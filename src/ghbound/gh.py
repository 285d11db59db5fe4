"""Exact Gromov-Hausdorff distance for small finite metric spaces.

d_GH(X, Y) is half the minimal distortion over correspondences between X and Y.
The search is a branch-and-bound over relations. A node is a set P of assigned
pairs; it branches on one point u, of X or of Y, that P leaves uncovered, over
every partner of u. Every correspondence containing P relates u to some
partner, so every step adds a pair of some optimal correspondence and the
search is exact. A leaf is a P that covers both sides; its distortion is at
most that of any correspondence containing it.

Floors (Memoli, "Some properties of Gromov-Hausdorff distances", DCG 2012):

* L[x, y] is the Hausdorff distance between the value sets of row x of d_X and
  row y of d_Y. A correspondence containing (x, y) relates every x' to some y'
  and every y' to some x', so its distortion is at least L[x, y]. Computed once
  from sorted rows with searchsorted: O(n^3 log n) time, O(n^2) memory.
* inc[x, y] is the cost of (x, y) against the pairs in P. Every uncovered x
  still needs a partner, so max over uncovered x of min_y max(L, inc), and the
  same with X and Y swapped, bound every completion of P from below.

A node is pruned when that look-ahead bound, or the distortion of P itself,
reaches the incumbent; the root bound max(max_x min_y L, max_y min_x L)
certifies an incumbent that meets it. Branching is fail-first: on the
uncovered point with the largest look-ahead minimum, over its partners in
increasing inc, skipping those whose L or inc reaches the incumbent. The
depth-first loop keeps its own stack, so the input size never meets the
recursion limit.

Incumbent. The search starts from an infinite incumbent, or from a caller's
correspondence, whose distortion on the same matrices becomes the value to
beat; only a strictly better leaf replaces it, so the search stays exact. A
seed that already meets the root bound prunes the root, and is returned as
proven after one node. Floors prune only against an incumbent: unseeded, most
nodes of a search go to reaching its final one. rigid_incumbent seeds pairs of
circle subsets: for every isometry g of the circle, joining each point of gX
to its nearest point of Y and each point of Y to its nearest point of gX gives
a correspondence of distortion at most 2 d_H(gX, Y).

Node step. On small inputs a node costs numpy call overhead, not arithmetic,
so each step makes a fixed handful of calls on preallocated nx x ny buffers and
does its bookkeeping in Python. A node takes the row and column minima of
max(L, inc) in two reductions; a cap vector (+inf on uncovered points, -1 on
covered ones, kept beside the Python cover counts) masks covered points, and
argmax picks the first largest minimum. The candidates are read off .tolist()
rows in stable argsort order of inc. Assigning (x, y) writes
|d_X[x, :] - d_Y[y, :]| into a scratch matrix, logs the cells it raises above
inc with their old values, and takes the elementwise maximum in place;
withdrawing the pair writes the logged values back. The log holds only the
raised cells, so memory stays quadratic in practice, where a snapshot of inc per
level would be cubic.

The result is exact whenever the node budget is not exhausted; on budget
exhaustion the best correspondence found is returned with proven_optimal =
False (its half-distortion is still an upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifolds import BLOCK, CIRCLE, FiniteMetricSpace, FiniteSubset


@dataclass(frozen=True)
class Correspondence:
    """A relation between index sets, as a sorted tuple of (x, y) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted((int(a), int(b))
                                                       for a, b in self.pairs)))

    def transpose(self) -> "Correspondence":
        return Correspondence(tuple((b, a) for a, b in self.pairs))

    def validate(self, size_x: int, size_y: int) -> None:
        """Raise unless every index is in range and both sides are covered."""
        seen_x, seen_y = set(), set()
        for a, b in self.pairs:
            if not (0 <= a < size_x and 0 <= b < size_y):
                raise ValueError(f"pair ({a}, {b}) out of range")
            seen_x.add(a)
            seen_y.add(b)
        if len(seen_x) != size_x or len(seen_y) != size_y:
            raise ValueError("correspondence must cover both point sets")


def distortion(corr: Correspondence, space_x: FiniteMetricSpace,
               space_y: FiniteMetricSpace) -> float:
    """max |d_X(x, x') - d_Y(y, y')| over related pairs (x, y), (x', y')."""
    corr.validate(space_x.size, space_y.size)
    pairs = np.array(corr.pairs, dtype=np.intp)
    xs, ys = pairs[:, 0], pairs[:, 1]
    gap = space_x.dist[np.ix_(xs, xs)] - space_y.dist[np.ix_(ys, ys)]
    return float(np.abs(gap).max())


@dataclass(frozen=True)
class GHResult:
    """Outcome of gh_exact: value = distortion(correspondence)/2, exact when
    proven_optimal, otherwise an upper bound reached within the node budget."""

    value: float
    correspondence: Correspondence
    nodes_explored: int
    proven_optimal: bool


def _farthest_gaps(row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each row of values, the largest distance from one of its entries to
    the nearest entry of the sorted vector row."""
    hi = np.searchsorted(row, values)
    lo = np.maximum(hi - 1, 0)
    np.minimum(hi, len(row) - 1, out=hi)
    near = np.minimum(np.abs(values - row[lo]), np.abs(values - row[hi]))
    return near.max(axis=1)


def _pair_floors(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """L[x, y]: the Hausdorff distance between the value sets of dx[x] and dy[y]."""
    sorted_x, sorted_y = np.sort(dx, axis=1), np.sort(dy, axis=1)
    floors = np.empty((len(dx), len(dy)))
    for x, row in enumerate(sorted_x):
        floors[x] = _farthest_gaps(row, dy)
    for y, row in enumerate(sorted_y):
        np.maximum(floors[:, y], _farthest_gaps(row, dx), out=floors[:, y])
    return floors


def rigid_incumbent(sub_x: FiniteSubset, sub_y: FiniteSubset) -> Correspondence:
    """The least-distortion nearest-point correspondence over rigid motions.

    Tries the 2 * |Y| isometries of the circle, rotations first, then
    reflections followed by a rotation, that send the first point of X onto a
    point y_j, in increasing j. Each motion g relates every x to the y nearest
    to gx, and every y to the x whose gx is nearest to y; distortions are taken
    on the subsets' metric tables, as distortion() takes them. Ties go to the
    first nearest point and the first least-distortion motion, so the result
    is deterministic. Motions are handled in blocks whose temporaries hold
    about BLOCK entries (one motion per block, if that is larger).
    """
    if sub_x.manifold != sub_y.manifold or sub_x.manifold.kind != CIRCLE:
        raise ValueError("rigid_incumbent needs two subsets of one circle")
    length = sub_x.manifold.params[0]
    dx = sub_x.to_metric_space().dist
    dy = sub_y.to_metric_space().dist
    nx, ny = len(dx), len(dy)
    theta_x, theta_y = sub_x.points[:, 0], sub_y.points[:, 0]
    offsets = theta_x - theta_x[0]
    images = np.mod(np.concatenate([theta_y[:, None] + offsets,  # (2 ny, nx): g(x)
                                    theta_y[:, None] - offsets]), length)
    own_x = np.broadcast_to(np.arange(nx), (len(images), nx))
    own_y = np.broadcast_to(np.arange(ny), (len(images), ny))
    rows = max(1, BLOCK // (nx + ny) ** 2)
    best, best_xs, best_ys = np.inf, None, None
    for lo in range(0, len(images), rows):
        gap = np.abs(images[lo:lo + rows, :, None] - theta_y)
        cross = np.minimum(gap, length - gap)
        xs = np.concatenate([own_x[lo:lo + rows], cross.argmin(axis=1)], axis=1)
        ys = np.concatenate([cross.argmin(axis=2), own_y[lo:lo + rows]], axis=1)
        # per motion, |d_X - d_Y| over every two related pairs
        gap = dx.take(xs[:, :, None] * nx + xs[:, None, :])
        gap -= dy.take(ys[:, :, None] * ny + ys[:, None, :])
        dis = np.abs(gap, out=gap).reshape(len(gap), -1).max(axis=1)
        k = int(dis.argmin())
        if dis[k] < best:
            best, best_xs, best_ys = dis[k], xs[k], ys[k]
    return Correspondence(tuple(set(zip(best_xs.tolist(), best_ys.tolist()))))


def gh_exact(space_x: FiniteMetricSpace, space_y: FiniteMetricSpace,
             node_budget: int = 10_000_000, *,
             incumbent: Correspondence | None = None) -> GHResult:
    """Exact d_GH by branch-and-bound over relations (see the module notes).

    Parameters
    ----------
    space_x, space_y : the two finite metric spaces.
    node_budget : maximum number of search-node expansions before giving up on
        the optimality proof. The incumbent at that point is still returned;
        without a seed, the search never stops before its first dive lands one.
    incumbent : an optional correspondence to start from (ValueError unless it
        is in range and covers both sides). The result is never worse than it.

    Returns
    -------
    GHResult with value = best distortion / 2 and nodes_explored = the number
    of nodes expanded. Deterministic for fixed inputs: branching order depends
    only on the distance matrices.
    """
    dx = np.ascontiguousarray(space_x.dist)
    dy = np.ascontiguousarray(space_y.dist)
    nx, ny = space_x.size, space_y.size
    floors = _pair_floors(dx, dy)
    root_floor = max(floors.min(axis=1).max(), floors.min(axis=0).max())

    inc = np.zeros((nx, ny))
    inc_flat = inc.reshape(-1)
    cost, gap = np.empty((nx, ny)), np.empty((nx, ny))  # scratch, one node at a time
    raised = np.empty((nx, ny), dtype=bool)
    raised_flat = raised.reshape(-1)
    covers_x = [0] * nx  # assigned pairs per point
    covers_y = [0] * ny
    cap_x = np.full(nx, np.inf)  # -1 on covered points, below every cost
    cap_y = np.full(ny, np.inf)
    pairs: list[tuple[int, int]] = []  # P, in assignment order
    best = float("inf")
    best_pairs: list[tuple[int, int]] = []
    if incumbent is not None:
        best = distortion(incumbent, space_x, space_y)
        best_pairs = list(incumbent.pairs)

    def expand(partial: float) -> list | None:
        """The frame branching the current node, or None if its floor reaches best.

        A frame is [partial, candidates, next position, undo of the applied
        candidate]; a candidate is (inc, L, x, y), in increasing inc.
        """
        np.maximum(floors, inc, out=cost)
        need_x = np.minimum(cost.min(axis=1), cap_x)
        need_y = np.minimum(cost.min(axis=0), cap_y)
        x, y = int(need_x.argmax()), int(need_y.argmax())
        top_x, top_y = float(need_x[x]), float(need_y[y])
        if max(partial, top_x, top_y) >= best:
            return None
        if top_x >= top_y:
            incs, lows = inc[x].tolist(), floors[x].tolist()
            return [partial, [(incs[y], lows[y], x, y)
                              for y in np.argsort(inc[x], kind="stable").tolist()
                              if incs[y] < best and lows[y] < best], 0, None]
        incs, lows = inc[:, y].tolist(), floors[:, y].tolist()
        return [partial, [(incs[x], lows[x], x, y)
                          for x in np.argsort(inc[:, y], kind="stable").tolist()
                          if incs[x] < best and lows[x] < best], 0, None]

    def assign(x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        np.subtract.outer(dx[x], dy[y], out=gap)
        np.abs(gap, out=gap)
        np.greater(gap, inc, out=raised)
        changed = raised_flat.nonzero()[0]
        undo = (changed, inc_flat[changed])
        np.maximum(inc, gap, out=inc)
        covers_x[x] += 1
        covers_y[y] += 1
        cap_x[x] = cap_y[y] = -1.0
        pairs.append((x, y))
        return undo

    def withdraw(undo: tuple[np.ndarray, np.ndarray]) -> None:
        changed, old = undo
        inc_flat[changed] = old
        x, y = pairs.pop()
        covers_x[x] -= 1
        covers_y[y] -= 1
        if not covers_x[x]:
            cap_x[x] = np.inf
        if not covers_y[y]:
            cap_y[y] = np.inf

    nodes = 1
    proven = True
    root = expand(0.0)  # None when the root bound certifies the incumbent
    stack = [root] if root is not None else []
    while stack:
        frame = stack[-1]
        partial, cands, pos, undo = frame
        if undo is not None:
            withdraw(undo)
            frame[3] = None
        while pos < len(cands):
            cost_xy, floor_xy, x, y = cands[pos]
            pos += 1
            if max(partial, cost_xy) >= best:
                pos = len(cands)  # inc ascends, nothing later can improve
            elif floor_xy < best:
                break
        else:
            stack.pop()
            continue
        frame[2] = pos
        frame[3] = assign(x, y)
        child = max(partial, cost_xy)
        if all(covers_x) and all(covers_y):
            best, best_pairs = child, list(pairs)
            if best <= root_floor:
                break
            continue
        nodes += 1
        if nodes > node_budget and best_pairs:
            # never abort before the first depth-first dive lands an incumbent
            proven = False
            break
        frame = expand(child)
        if frame is not None:
            stack.append(frame)

    corr = Correspondence(tuple(best_pairs))
    return GHResult(best / 2.0, corr, nodes, proven)
