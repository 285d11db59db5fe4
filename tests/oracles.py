"""Independent oracles the tests check the library against.

Everything here recomputes results through a different route than the library:
dense numpy Gaussian elimination instead of coboundary reduction, explicit
representative cycles and induced maps instead of reading ranks and survival
off one persistence pass, full enumeration instead of branch-and-bound,
definitional subset scans instead of clique expansion, simplex-by-simplex
lookups in enumerated complexes instead of edge tests on neighbour masks,
support-set enumeration of enclosing balls instead of Jung's closed form,
one broadcast (a x b x dim) difference array instead of row-blocked per-axis
accumulation, and the dense witness x point table of a materialized grid,
with every subset of every witness's star, instead of per-axis windows and
star masks.
Keep these naive; clarity beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ghbound.complexes import (SimplicialComplex, VertexMap, check_simplicial,
                               inclusion_map)
from ghbound.manifolds import (CIRCLE, EUCLIDEAN, AmbientManifold,
                               FiniteSubset, cross_distances, normalize_points)
from ghbound.sampling import grid_points


def gf2_rank_dense(mat: np.ndarray) -> int:
    """Rank over GF(2) by dense row elimination on a bool matrix."""
    m = mat.astype(bool).copy()
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def naive_boundary_matrix(complex_: SimplicialComplex, dim: int) -> np.ndarray:
    """Dense boundary matrix from dim-chains to (dim-1)-chains."""
    top = complex_.simplices[dim]
    if dim == 0:
        return np.zeros((0, len(top)), dtype=bool)
    faces = {s: i for i, s in enumerate(complex_.simplices[dim - 1])}
    mat = np.zeros((len(faces), len(top)), dtype=bool)
    for j, s in enumerate(top):
        for k in range(len(s)):
            mat[faces[s[:k] + s[k + 1:]], j] = True
    return mat


def naive_betti(complex_: SimplicialComplex, up_to: int) -> list[int]:
    """Betti numbers via dense ranks: beta_k = #S_k - rank d_k - rank d_{k+1}."""
    out = []
    for k in range(up_to + 1):
        n_k = len(complex_.simplices[k])
        r_k = gf2_rank_dense(naive_boundary_matrix(complex_, k))
        r_up = gf2_rank_dense(naive_boundary_matrix(complex_, k + 1))
        out.append(n_k - r_k - r_up)
    return out


def vr_values(complex_: SimplicialComplex, dist: np.ndarray) -> dict[int, np.ndarray]:
    """Each simplex's diameter under dist, the scale at which it enters the VR
    filtration, per dimension in the complex's order, one simplex at a time."""
    return {k: np.array([max((dist[a, b] for a, b in combinations(s, 2)), default=0.0)
                         for s in simplices], dtype=np.float64)
            for k, simplices in complex_.simplices.items()}


def standard_barcode(complex_: SimplicialComplex, values: dict[int, np.ndarray],
                     up_to: int) -> dict[int, np.ndarray]:
    """Barcode by the textbook reduction of the whole filtered boundary matrix.

    Every simplex of dimension <= up_to + 1 is one row and one column of the
    matrix, ordered by (value, dimension, index in complex_); a column is an
    integer with bit i set for row i. Columns are reduced left to right, each
    until its lowest entry is unique, with no clearing; a reduced column j
    with lowest row i pairs i (birth) with j (death). bars[k] lists
    (birth, death) per zero column of a k-simplex in that order, death inf
    when its row is nobody's lowest entry.
    """
    cells = sorted((float(values[k][i]), k, i) for k in range(up_to + 2)
                   for i in range(len(complex_.simplices[k])))
    where = {(k, complex_.simplices[k][i]): n for n, (_, k, i) in enumerate(cells)}
    cols = []  # cols[j] is column j
    for _, k, i in cells:
        s = complex_.simplices[k][i]
        cols.append(sum(1 << where[(k - 1, s[:drop] + s[drop + 1:])]
                        for drop in range(len(s) if k else 0)))
    owner: dict[int, int] = {}  # lowest row -> the reduced column that has it
    for j in range(len(cells)):
        while cols[j]:
            low = cols[j].bit_length() - 1
            if low not in owner:
                owner[low] = j
                break
            cols[j] ^= cols[owner[low]]
    bars: dict[int, list] = {k: [] for k in range(up_to + 1)}
    for n, (value, k, _) in enumerate(cells):
        if k <= up_to and not cols[n]:
            bars[k].append((value, cells[owner[n]][0] if n in owner else np.inf))
    return {k: np.array(rows, dtype=np.float64).reshape(-1, 2)
            for k, rows in bars.items()}


def boundary_columns(complex_: SimplicialComplex, dim: int) -> list[int]:
    """naive_boundary_matrix as bitset columns (bit i = row i)."""
    mat = naive_boundary_matrix(complex_, dim)
    return [sum(1 << int(i) for i in np.flatnonzero(mat[:, j]))
            for j in range(mat.shape[1])]


def gf2_reduce(columns: list[int]) -> tuple[dict[int, int], list[int]]:
    """Column reduction over GF(2) that tracks combinations.

    Returns (pivots, kernel): pivots maps a pivot row to its reduced nonzero
    column, kernel lists combination words (over input column indices) whose
    input combination vanishes. len(pivots) is the rank.
    """
    pivots: dict[int, int] = {}
    combos: dict[int, int] = {}
    kernel: list[int] = []
    for j, col in enumerate(columns):
        combo = 1 << j
        while col:
            p = col.bit_length() - 1
            if p not in pivots:
                break
            col ^= pivots[p]
            combo ^= combos[p]
        if col:
            pivots[col.bit_length() - 1] = col
            combos[col.bit_length() - 1] = combo
        else:
            kernel.append(combo)
    return pivots, kernel


class HomologyBasis:
    """H_dim of one complex with explicit representative cycles.

    Representatives are chain bitsets over the complex's simplex order;
    coordinates expresses any cycle's class in the representative basis.
    """

    def __init__(self, complex_: SimplicialComplex, dim: int) -> None:
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        if dim > complex_.max_dim - 1:
            raise ValueError("insufficient skeleton: betti at dim k needs simplices "
                             "up to dim k+1")
        _, kernel = gf2_reduce(boundary_columns(complex_, dim))
        self.boundary_pivots, _ = gf2_reduce(boundary_columns(complex_, dim + 1))
        self._rep_pivots: dict[int, int] = {}  # pivot row -> representative index
        self._rep_reduced: list[int] = []
        self.representatives: list[int] = []
        for z in kernel:
            reduced, _ = self._reduce(z)
            if reduced:
                self._rep_pivots[reduced.bit_length() - 1] = len(self.representatives)
                self._rep_reduced.append(reduced)
                self.representatives.append(z)
        self.betti = len(self.representatives)

    def _reduce(self, chain: int) -> tuple[int, int]:
        """(residual, coords) against the boundaries plus the representatives.

        The residual is zero iff the chain is a cycle of this complex; coords
        is the bitset of representatives used.
        """
        coords = 0
        while chain:
            p = chain.bit_length() - 1
            if p in self.boundary_pivots:
                chain ^= self.boundary_pivots[p]
            elif p in self._rep_pivots:
                i = self._rep_pivots[p]
                coords ^= 1 << i
                chain ^= self._rep_reduced[i]
            else:
                break
        return chain, coords

    def is_boundary(self, chain: int) -> bool:
        return self._reduce(chain) == (0, 0)

    def coordinates(self, cycle: int) -> int:
        """Coordinates of a cycle's class; raises if the chain is not a cycle."""
        residual, coords = self._reduce(cycle)
        if residual:
            raise ValueError("chain is not a cycle of this complex")
        return coords


@dataclass(frozen=True)
class HomologyMap:
    """A map on H_dim as a GF(2) matrix: matrix[j] is the image of source
    representative j, as a bitset of target representative indices."""

    matrix: tuple[int, ...]
    source_betti: int
    target_betti: int

    def rank(self) -> int:
        return len(gf2_reduce(self.matrix)[0])

    def is_injective(self) -> bool:
        return self.rank() == self.source_betti

    def is_isomorphism(self) -> bool:
        return self.source_betti == self.target_betti and self.is_injective()

    def after(self, inner: "HomologyMap") -> "HomologyMap":
        """Composite self . inner (functoriality: matrices multiply)."""
        if inner.target_betti != self.source_betti:
            raise ValueError("maps are not composable")
        cols = []
        for col in inner.matrix:
            out = 0
            for i in range(col.bit_length()):
                if (col >> i) & 1:
                    out ^= self.matrix[i]
            cols.append(out)
        return HomologyMap(tuple(cols), inner.source_betti, self.target_betti)


def _push_chain(f: VertexMap, dim: int, bits: int,
                target_index: dict[tuple[int, ...], int]) -> int:
    """Image of a dim-chain under a vertex map; degenerate simplices drop out."""
    simplices = f.source.simplices[dim]
    out = 0
    for i in range(bits.bit_length()):
        if (bits >> i) & 1:
            image = f.apply(simplices[i])
            if len(image) == dim + 1:
                out ^= 1 << target_index[image]
    return out


def induced_map(f: VertexMap, dim: int) -> HomologyMap:
    """The map a simplicial vertex map induces on H_dim.

    Also checks that f sends boundaries to boundaries, then writes the image
    of each source representative in the target representative basis.
    """
    if not check_simplicial(f):
        raise ValueError("map is not simplicial")
    src = HomologyBasis(f.source, dim)
    tgt = HomologyBasis(f.target, dim)
    target_index = {s: i for i, s in enumerate(f.target.simplices[dim])}
    for col in src.boundary_pivots.values():
        if not tgt.is_boundary(_push_chain(f, dim, col, target_index)):
            raise ValueError("map does not send boundaries to boundaries")
    cols = tuple(tgt.coordinates(_push_chain(f, dim, z, target_index))
                 for z in src.representatives)
    return HomologyMap(cols, src.betti, tgt.betti)


def fundamental_class_survives(small: SimplicialComplex, big: SimplicialComplex,
                               dim: int, vertex_image=None) -> bool:
    """Whether the inclusion-induced map on H_dim is injective with equal
    Betti numbers on both sides."""
    inc = inclusion_map(small, big, vertex_image)
    if not check_simplicial(inc):
        raise ValueError("inclusion is not simplicial; the big complex must "
                         "contain the small one")
    hm = induced_map(inc, dim)
    return hm.source_betti == hm.target_betti and hm.is_injective()


def _among_simplices(complex_: SimplicialComplex):
    """Membership in the enumerated simplices of complex_, by dimension."""
    sets = {d: set(found) for d, found in complex_.simplices.items()}
    return lambda t: t in sets.get(len(t) - 1, ())


def simplicial_by_enumeration(f: VertexMap) -> bool:
    """check_simplicial by definition: every source simplex, its image looked
    up among the target's enumerated simplices."""
    member = _among_simplices(f.target)
    return all(member(f.apply(s))
               for found in f.source.simplices.values() for s in found)


def contiguous_by_enumeration(f: VertexMap, g: VertexMap) -> bool:
    """check_contiguous by definition: every source simplex, the union of its
    two images looked up among the target's enumerated simplices."""
    member = _among_simplices(f.target)
    return all(member(tuple(sorted({*f.apply(s), *g.apply(s)})))
               for found in f.source.simplices.values() for s in found)


def gh_exhaustive(dx: np.ndarray, dy: np.ndarray) -> float:
    """Exact GH by enumerating every function pair phi: X->Y, psi: Y->X.

    Any correspondence contains a sub-correspondence of the form
    graph(phi) union graph(psi)^T with no larger distortion, so minimizing over
    these function pairs is exact. Vectorized over all |Y|^|X| * |X|^|Y|
    combinations; intended for 4-point spaces and below.
    """
    nx, ny = len(dx), len(dy)
    phis = np.array(list(product(range(ny), repeat=nx)), dtype=np.intp)
    psis = np.array(list(product(range(nx), repeat=ny)), dtype=np.intp)
    # distortion within phi pairs alone, then within psi pairs alone
    a = np.abs(dx[None, :, :] - dy[phis[:, :, None], phis[:, None, :]]).max(axis=(1, 2))
    b = np.abs(dx[psis[:, :, None], psis[:, None, :]] - dy[None, :, :]).max(axis=(1, 2))
    # cross terms pair (x, phi(x)) against (psi(y), y)
    lhs = dx[:, psis.T]            # (nx, ny, n_psi): d_X(x, psi_j(y))
    rhs = dy[phis, :]              # (n_phi, nx, ny): d_Y(phi_i(x), y)
    cross = np.abs(lhs.transpose(2, 0, 1)[None, :, :, :]
                   - rhs[:, None, :, :]).max(axis=(2, 3))
    dis = np.maximum(np.maximum(a[:, None], b[None, :]), cross)
    return float(dis.min()) / 2.0


def vr_brute(dist: np.ndarray, scale: float, max_dim: int) -> dict[int, set]:
    """Definitional VR membership: every vertex subset with diameter < scale."""
    m = len(dist)
    out: dict[int, set] = {k: set() for k in range(max_dim + 1)}
    for k in range(max_dim + 1):
        for s in combinations(range(m), k + 1):
            if all(dist[a, b] < scale for a, b in combinations(s, 2)):
                out[k].add(s)
    return out


def _axis_wrap_dist(delta: np.ndarray, sides: np.ndarray) -> np.ndarray:
    d = np.abs(delta)
    return np.minimum(d, sides - d)


def broadcast_cross_distances(manifold: AmbientManifold, a: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix between two point arrays, shape (len(a), len(b))."""
    a = normalize_points(manifold, a)
    b = normalize_points(manifold, b)
    delta = a[:, None, :] - b[None, :, :]
    if manifold.kind == EUCLIDEAN:
        return np.sqrt(np.sum(delta * delta, axis=-1))
    per_axis = _axis_wrap_dist(delta, np.asarray(manifold.params))
    if manifold.kind == CIRCLE:
        return per_axis[:, :, 0]
    return np.sqrt(np.sum(per_axis * per_axis, axis=-1))


def witness_table(subset: FiniteSubset, per_axis: int) -> np.ndarray:
    """Distances from every point of grid_points(subset.manifold, per_axis),
    one row per witness, to every point of the subset."""
    witnesses = grid_points(subset.manifold, per_axis)
    return cross_distances(subset.manifold, witnesses.points, subset.points)


def witness_covering_radius(subset: FiniteSubset, per_axis: int) -> float:
    """max over the witness grid of the distance to the subset, densely."""
    return float(witness_table(subset, per_axis).min(axis=1).max())


def witness_cech(subset: FiniteSubset, radius: float, max_dim: int,
                 per_axis: int) -> dict[int, list]:
    """The witnessed Cech simplices per dimension, sorted: every subset of at
    most max_dim + 1 points of every witness's star {i : dist < radius}."""
    rows, cols = np.nonzero(witness_table(subset, per_axis) < radius)
    stars: dict[int, list] = {}
    for w, i in zip(rows.tolist(), cols.tolist()):
        stars.setdefault(w, []).append(i)
    simplices: dict[int, set] = {k: set() for k in range(max_dim + 1)}
    for star in set(map(tuple, stars.values())):
        for k in range(min(len(star), max_dim + 1)):
            simplices[k].update(combinations(star, k + 1))
    return {k: sorted(v) for k, v in simplices.items()}


def circle_arc_dist(theta: float, points: np.ndarray, circumference: float) -> float:
    """Distance from an angle to a finite set of angles (min over the set)."""
    d = np.abs(points - theta)
    return float(np.minimum(d, circumference - d).min())


def min_enclosing_ball_brute(points: np.ndarray) -> float:
    """Minimal enclosing ball radius by support-subset enumeration.

    The optimal ball is determined by at most dim+1 points on its surface;
    enumerate every subset of size <= dim+1, build its smallest circumsphere,
    and keep the smallest ball that contains everything. The subsets of one
    size are solved together as a stack of small Gram systems.
    """
    pts = np.asarray(points, dtype=np.float64)
    m, dim = pts.shape
    best = np.inf
    for k in range(1, min(m, dim + 1) + 1):
        subsets = np.array(list(combinations(range(m), k)))
        base = pts[subsets[:, 0]]
        u = pts[subsets[:, 1:]] - base[:, None, :]
        rhs = 0.5 * np.einsum("sij,sij->si", u, u)
        gram = u @ u.transpose(0, 2, 1)
        coeff = (np.linalg.pinv(gram) @ rhs[:, :, None])[:, :, 0]
        center = base + np.einsum("si,sij->sj", coeff, u)
        r2 = np.max(np.sum((pts[subsets] - center[:, None, :]) ** 2, axis=2), axis=1)
        reach = np.sum((pts[None, :, :] - center[:, None, :]) ** 2, axis=2)
        encloses = np.all(reach <= r2[:, None] * (1 + 1e-10) + 1e-18, axis=1)
        if encloses.any():
            best = min(best, float(np.sqrt(r2[encloses].min())))
    return float(best)


def random_complex(rng: np.random.Generator, cap: int = 200) -> SimplicialComplex:
    """A random simplicial complex with at most cap simplices.

    Half the draws close random maximal simplices downward, half take VR
    complexes of random Euclidean point clouds; both then shed top simplices
    (largest dimension first, which preserves closure) until under the cap.
    """
    if rng.random() < 0.5:
        vertices = int(rng.integers(3, 13))
        max_dim = int(rng.integers(1, 4))
        picks = int(rng.integers(1, 9))
        chosen: set[tuple[int, ...]] = set()
        for _ in range(picks):
            size = min(int(rng.integers(1, max_dim + 2)), vertices)
            chosen.add(tuple(sorted(rng.choice(vertices, size=size, replace=False))))
        simplices: dict[int, set] = {k: set() for k in range(max_dim + 1)}
        for v in range(vertices):
            simplices[0].add((v,))
        for s in chosen:
            for k in range(len(s)):
                simplices[k].update(combinations(s, k + 1))
        scale = 1.0
    else:
        vertices = int(rng.integers(4, 11))
        max_dim = int(rng.integers(1, 4))
        pts = rng.random((vertices, int(rng.integers(1, 4))))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d = np.triu(d, 1)
        d += d.T
        scale = float(rng.uniform(0.2, 1.2))
        out: dict[int, set] = {k: set() for k in range(max_dim + 1)}
        for k in range(max_dim + 1):
            for s in combinations(range(vertices), k + 1):
                if all(d[a, b] < scale for a, b in combinations(s, 2)):
                    out[k].add(s)
        simplices = out
    while sum(len(v) for v in simplices.values()) > cap:
        top = max(k for k, v in simplices.items() if v)
        simplices[top].pop()
    return SimplicialComplex(vertices, scale, max_dim,
                             {k: tuple(v) for k, v in simplices.items()})
