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
  from the tensor T[x, y, i, j] = |d_X[x, i] - d_Y[y, j]| when that holds at
  most BLOCK doubles, otherwise from sorted rows with searchsorted
  (O(n^3 log n) time, O(n^2) memory). Float subtraction rounds
  monotonically, so the nearest entry found by searchsorted is the global
  minimum of |difference| and the two agree bit for bit. T is kept for the
  whole search: it is every matrix a node step needs (see below).
* inc[x, y] is the cost of (x, y) against the pairs in P. Every uncovered x
  still needs a partner, so max over uncovered x of min_y max(L, inc), and the
  same with X and Y swapped, bound every completion of P from below.

The search keeps the two as one folded matrix, cost = max(L, inc): it starts
as L, and assigning a pair raises it where inc rises. A child's partial
distortion is taken as max(partial, cost[x, y]) rather than max(partial,
inc[x, y]), which is still a floor for every correspondence through the
child. It stays exact at the leaves: a leaf P relates every x' to some y' and
every y' to some x', so for each pair (x, y) of P, L[x, y] is at most the
largest |d_X[x, x'] - d_Y[y, y']| over pairs (x', y') of P, one of the terms
of dis(P). Bit for bit, too, since both sides take the same float
subtractions (up to exact negation on the sorted path). So a leaf's value is
exactly its distortion.

A node is pruned when that look-ahead bound, or the distortion of P itself,
reaches the incumbent; the root bound max(max_x min_y L, max_y min_x L)
certifies an incumbent that meets it. Branching is fail-first: on the
uncovered point with the largest look-ahead minimum, over its partners in
increasing cost. The walk breaks at the first partner whose max(partial,
cost) reaches the incumbent: costs ascend, and the incumbent only falls, so
no later partner can beat it. The depth-first loop keeps its own stack of
node generators, so the input size never meets the recursion limit.

Nogoods (Dechter, "Enhancement schemes for constraint processing", AIJ 1990).
Once the child P + (x, y) has been searched to the end, every correspondence
that contains it and beats the incumbent has been seen; the incumbent only
falls, so whatever that subtree pruned stays pruned. The later siblings of
the child, and all their descendants, may therefore drop (x, y): the node sets
cost[x, y] = +inf until its walk ends, then writes the old value back. A
banned partner sorts last and is never tried, since +inf reaches every
incumbent, the infinite one included. The look-ahead minima then bound only
the completions that avoid the banned pairs, which are all the completions
still to be seen.

Incumbent. The search starts from an infinite incumbent, or from a caller's
correspondence, whose distortion on the same matrices becomes the value to
beat; only a strictly better leaf replaces it, so the search stays exact. A
seed that already meets the root bound prunes the root, and is returned as
proven after one node. Floors prune only against an incumbent: unseeded, most
nodes of a search go to reaching its final one. rigid_incumbent seeds pairs of
circle subsets: for every isometry g of the circle, joining each point of gX
to its nearest point of Y and each point of Y to its nearest point of gX gives
a correspondence of distortion at most 2 d_H(gX, Y).

Node step. Each node is one generator, branch(partial): it computes the
node's look-ahead floor and returns at once if that prunes the node; otherwise
it walks the partners of the branching point, assigning each pair, yielding
the child's partial distortion and withdrawing the pair when resumed. The loop
advances the generator on top of its stack, and pops it, records a leaf or
pushes the child's generator. On small inputs a node costs numpy call
overhead, not arithmetic, so each node makes a fixed handful of calls on
preallocated buffers and does its bookkeeping in Python: one need vector
holds the row and then the column minima of cost (np.minimum.reduce skips
ndarray.min's Python wrapper), a cap vector masks covered points, and the
branching line is read once with .tolist(); its partners are walked in the
stable sorted order of those values. Assigning (x, y) reads the matrix
|d_X[x, :] - d_Y[y, :]| as the view T[x, y] when T was kept, and otherwise
writes it into an (nx, ny) scratch matrix with one outer subtraction; each
entry is the same IEEE subtraction d_X[x, i] - d_Y[y, j] either way, so the
two paths agree bit for bit. It then logs the cells it raises above cost with
their old values, and takes the elementwise maximum in place; withdrawing the
pair writes the logged values back, and a banned cell (at +inf) is never
raised. The log holds only the raised cells, so memory stays quadratic in
practice, where a snapshot of cost per level would be cubic.

The result is exact whenever the node budget is not exhausted; on budget
exhaustion the best correspondence found is returned with proven_optimal =
False (its half-distortion is still an upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .manifolds import BLOCK, CIRCLE, FiniteMetricSpace, FiniteSubset, _distance_table

NODE_BUDGET = 10_000_000  # node budget of gh_exact and the CLI by default


@dataclass(frozen=True)
class Correspondence:
    """A relation between index sets, as a sorted tuple of (x, y) pairs of
    Python ints; non-integer indices are refused."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            pairs = sorted((index(a), index(b)) for a, b in self.pairs)
        except TypeError:
            raise ValueError("correspondence indices must be integers") from None
        object.__setattr__(self, "pairs", tuple(pairs))

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
    gap = space_x.dist[xs[:, None], xs] - space_y.dist[ys[:, None], ys]
    return float(np.abs(gap).max())


@dataclass(frozen=True)
class GHResult:
    """Outcome of gh_exact: value = distortion(correspondence)/2, exact when
    proven_optimal, otherwise an upper bound reached within the node budget."""

    value: float
    correspondence: Correspondence
    nodes_explored: int
    proven_optimal: bool


def _directed_floors(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """F[a, b]: the largest distance from an entry of db[b] to the nearest entry
    of da[a]."""
    floors = np.empty((len(da), len(db)))
    for a, row in enumerate(np.sort(da, axis=1)):
        hi = np.searchsorted(row, db)
        lo = np.maximum(hi - 1, 0)
        np.minimum(hi, len(row) - 1, out=hi)
        floors[a] = np.minimum(np.abs(db - row[lo]), np.abs(db - row[hi])).max(axis=1)
    return floors


def _pair_floors(dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(L, T): L[x, y] is the Hausdorff distance between the value sets of dx[x]
    and dy[y]. When T[x, y, i, j] = |dx[x, i] - dy[y, j]| holds at most BLOCK
    doubles, L is taken from that one broadcast and T is returned for the
    search's node steps; otherwise L comes from sorted rows (the same bits;
    see the module notes) and T is None."""
    if (len(dx) * len(dy)) ** 2 > BLOCK:
        return np.maximum(_directed_floors(dx, dy), _directed_floors(dy, dx).T), None
    gap = dx[:, None, :, None] - dy[None, :, None, :]
    np.abs(gap, out=gap)
    return np.maximum(gap.min(axis=3).max(axis=2), gap.min(axis=2).max(axis=2)), gap


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
    manifold = sub_x.manifold
    if manifold != sub_y.manifold or manifold.kind != CIRCLE:
        raise ValueError("rigid_incumbent needs two subsets of one circle")
    dx = sub_x.to_metric_space().dist
    dy = sub_y.to_metric_space().dist
    nx, ny = len(dx), len(dy)
    theta_x, theta_y = sub_x.points[:, 0], sub_y.points[:, 0]
    offsets = theta_x - theta_x[0]
    images = np.mod(np.concatenate([theta_y[:, None] + offsets,  # (2 ny, nx): g(x)
                                    theta_y[:, None] - offsets]), manifold.params[0])
    own_x = np.broadcast_to(np.arange(nx), (len(images), nx))
    own_y = np.broadcast_to(np.arange(ny), (len(images), ny))
    rows = max(1, BLOCK // (nx + ny) ** 2)
    best, best_xs, best_ys = np.inf, None, None
    for lo in range(0, len(images), rows):
        # unnormalized: an image np.mod rounded to L must not become 0.0
        cross = _distance_table(manifold, images[lo:lo + rows].reshape(-1, 1),
                                sub_y.points).reshape(-1, nx, ny)
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
             node_budget: int = NODE_BUDGET, *,
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
    cost, gaps = _pair_floors(dx, dy)  # cost = max(L, inc), raised and restored
    cost_flat = cost.reshape(-1)
    root_floor = max(cost.min(axis=1).max(), cost.min(axis=0).max())

    if gaps is None:
        scratch = np.empty((nx, ny))  # |dx[x] - dy[y]|, one node at a time
    raised = np.empty((nx, ny), dtype=bool)
    raised_flat = raised.reshape(-1)
    # points of X then of Y: u < nx is x = u, u >= nx is y = u - nx
    covers = [0] * (nx + ny)  # assigned pairs per point
    cap = np.full(nx + ny, np.inf)  # -1 on covered points, below every cost
    need = np.empty(nx + ny)
    need_x, need_y = need[:nx], need[nx:]
    least = np.minimum.reduce
    pairs: list[tuple[int, int]] = []  # P, in assignment order
    best = float("inf")
    best_pairs: list[tuple[int, int]] = []
    if incumbent is not None:
        best = distortion(incumbent, space_x, space_y)
        best_pairs = list(incumbent.pairs)

    def branch(partial: float):
        """The node P: yields each child's partial distortion with its pair
        assigned; when resumed, withdraws the pair and bans it for the later
        siblings. Returns at once when the look-ahead floor reaches best;
        partners are tried in increasing cost until one reaches best."""
        least(cost, 1, None, need_x)
        least(cost, 0, None, need_y)
        np.minimum(need, cap, out=need)
        u = int(need.argmax())  # the first largest: X wins ties
        if max(partial, need[u]) >= best:
            return
        line = (cost[u] if u < nx else cost[:, u - nx]).tolist()
        banned, kept = [], []  # nogoods of this node, with their costs
        for v in sorted(range(len(line)), key=line.__getitem__):
            child = max(partial, line[v])
            if child >= best:
                break  # costs ascend, nothing later can improve
            x, y = (u, v) if u < nx else (v, u - nx)
            if gaps is None:
                gap = np.abs(np.subtract.outer(dx[x], dy[y], out=scratch), out=scratch)
            else:
                gap = gaps[x, y]
            np.greater(gap, cost, out=raised)
            changed = raised_flat.nonzero()[0]
            old = cost_flat[changed]
            np.maximum(cost, gap, out=cost)
            covers[x] += 1
            covers[nx + y] += 1
            cap[x] = cap[nx + y] = -1.0
            pairs.append((x, y))
            yield child
            cost_flat[changed] = old
            pairs.pop()
            for w in (x, nx + y):
                covers[w] -= 1
                if not covers[w]:
                    cap[w] = np.inf
            banned.append(x * ny + y)
            kept.append(line[v])
            cost_flat[banned[-1]] = np.inf
        cost_flat[banned] = kept

    nodes = 1
    proven = True
    stack = [branch(0.0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif all(covers):
            best, best_pairs = child, list(pairs)
            if best <= root_floor:
                break
        else:
            nodes += 1
            if nodes > node_budget and best_pairs:
                # never abort before the first depth-first dive lands an incumbent
                proven = False
                break
            stack.append(branch(child))

    corr = Correspondence(tuple(best_pairs))
    return GHResult(best / 2.0, corr, nodes, proven)
