"""Simplicial homology over Z/2: union-find, then one coboundary reduction
per dimension, each call reading every step's cofaces from one source.

Dimension 0 is paired by union-find, as in Ripser (Bauer, J. Appl. Comput.
Topol. 2021): in filtration order, an edge that joins two components kills
the younger, whose least vertex is the larger (the elder rule). Those edges
are the columns dimension 1 clears, so dimension 0 builds no column.

In dimension k = 1, ..., up_to the columns are the k-simplices in
decreasing filtration position, the rows are the (k+1)-simplices, and a
column's pivot is its earliest coface. A column carries the key its simplex
has as a row one dimension down. Two shortcuts keep the work small:

* clearing: a k-simplex paired as a death in dimension k-1 has a column
  that reduces to zero, so a column whose key is among those rows is skipped;
* emergent pairs: a column whose earliest coface has no owner yet is already
  reduced. It is paired at once; its column is built only if a later column
  has to XOR with it.

The cofaces come from one of two sources, and dimension up_to + 1 only
supplies rows, so it is neither reduced nor enumerated:

* masks (betti_numbers, fundamental_class_survives): a complex's _joins
  gives the vertices that extend a face to a simplex (complexes). Rows are
  keyed by their vertex tuples: with every value 0 the order is lex, so a
  column's earliest coface adds its lowest joining vertex. Survival keys a
  row by (not in the image, vertex tuple). The Betti numbers of a built
  complex are those of its edge collapse (complexes._MaskComplex._collapsed);
  on the VR complex of the 16 x 16 grid on the unit torus at 0.3 it leaves
  324 of 8,704 edges;
* distance rows (vr_persistence_bars, the VR filtration): a face's cofaces
  add the vertices within scale of all its vertices, each entering at the
  larger of the face's diameter and its farthest distance to them. One
  blocked pass over the rows finds every column's earliest coface; a row is
  keyed by an integer that compares like (diameter, lex), and only a column
  that must be XORed lists its cofaces, built off one row maximum. The
  column under reduction is a lazy heap (_HeapColumn, after Ripser), so the
  long cocycle of a fundamental class is never re-sorted as it grows.

The coboundary matrix of dimension k is the boundary matrix of dimension
k + 1 with rows and columns swapped and both orders reversed. That flip maps
the lower-left submatrices, whose ranks fix the persistence pairs, onto each
other, so the pairs are those of the homology reduction (de Silva, Morozov
and Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011). With
simplices ordered by filtration value the pairs give the barcode; Betti
numbers and survival under an inclusion are read off the pairs of one
filtration (every simplex at 0; the subcomplex at 0, then the rest at 1).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from heapq import heappop, heappush
from itertools import combinations
from operator import mul

import numpy as np

from .complexes import SimplicialComplex, build_vr, check_simplicial, inclusion_map
from .manifolds import BLOCK, FiniteMetricSpace


def _diameters(verts: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Diameter under dist of each row of vertices: the scale at which the
    simplex enters the VR filtration (it is in build_vr's complex at scale s
    iff its diameter is < s)."""
    diam = np.zeros(len(verts))
    for a, b in combinations(range(verts.shape[1]), 2):
        np.maximum(diam, dist[verts[:, a], verts[:, b]], out=diam)
    return diam


def _mask_cofaces(faces: tuple, joins: Callable, row: Callable | None = None) -> tuple:
    """Cofaces of every face of a complex, from its joins, as the (keys,
    earliest, column, pivot) that _pair_columns reads.

    faces are in filtration order. Rows are keyed by their vertex tuples, lex
    order being the filtration order when every value is 0, or by row(coface)
    when row is given; a face's key is made the same way. A column is the set
    of its rows' keys, and only a column that must be XORed lists them all.
    """
    def cofaces(s: tuple[int, ...], mask: int):
        while mask:
            low = mask & -mask
            mask ^= low
            u = low.bit_length() - 1
            i = bisect_left(s, u)
            yield s[:i] + (u,) + s[i:]

    def column(j: int) -> set:
        s = faces[j]
        found = cofaces(s, joins(s))
        return set(found if row is None else map(row, found))

    if row is not None:
        return ([row(s) for s in faces], lambda j: min(column(j), default=None),
                column, min)

    def earliest(j: int) -> tuple[int, ...] | None:
        s = faces[j]
        return next(cofaces(s, joins(s, True)), None)

    return faces, earliest, column, min


def _key_dtype(levels: int, n: int, width: int) -> type:
    """int64 if every key of _row_keys fits in it, else object."""
    return np.int64 if levels * n ** width <= 2 ** 63 else object


def _row_keys(rank: np.ndarray, rows: np.ndarray, n: int, levels: int) -> np.ndarray:
    """One integer per row, rank * n ** width + the base-n code of the row.

    rows holds vertex rows below n, width to a row, and rank values below
    levels, so the keys compare like (rank, row). They are int64 while the
    largest, levels * n ** width - 1, fits in it, and Python integers (object
    dtype) past that, so no key ever wraps.
    """
    dtype = _key_dtype(levels, n, rows.shape[1])
    key = rank.astype(dtype)
    for col in rows.T:  # Horner: no partial key exceeds the full one
        key = key * n + col.astype(dtype)
    return key


class _HeapColumn:
    """A column of row keys over Z/2 whose reduction runs on a lazy heap, as
    Ripser's working coboundary does (Bauer, "Ripser: efficient computation
    of Vietoris-Rips persistence barcodes", J. Appl. Comput. Topol. 2021).

    A built column is a sorted array of distinct keys. The first ^= turns the
    column under reduction into a heap list, and every ^= pushes the other
    column's keys onto it uncancelled. The truth test pops equal least keys
    in pairs, which cancel, and stops at the first unpaired one, so that key
    is then heap[0], the pivot. A heap that is XORed into another column is
    first compacted back into an array: sorted, keeping the keys that occur
    an odd number of times.
    """

    __slots__ = ("keys", "heap")

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.heap: list | None = None

    def __bool__(self) -> bool:
        heap = self.heap
        if heap is None:
            return len(self.keys) > 0
        while heap:
            least = heappop(heap)
            if not heap or heap[0] != least:
                heappush(heap, least)
                return True
            heappop(heap)
        return False

    def __ixor__(self, other: _HeapColumn) -> _HeapColumn:
        if self.heap is None:  # a sorted list is a heap; keys[:0] keeps the dtype
            self.heap, self.keys = self.keys.tolist(), self.keys[:0]
        heap = self.heap
        for key in other.sorted_keys().tolist():
            heappush(heap, key)
        return self

    def sorted_keys(self) -> np.ndarray:
        if self.heap is not None:
            keys, times = np.unique(np.array(self.heap, dtype=self.keys.dtype),
                                    return_counts=True)
            self.keys, self.heap = keys[times % 2 == 1], None
        return self.keys

    def pivot(self) -> int:
        return self.heap[0] if self.heap is not None else int(self.keys[0])


def _vr_cofaces(faces: np.ndarray, diam: np.ndarray, dist: np.ndarray, scale: float,
                levels: np.ndarray) -> tuple[tuple, Callable]:
    """Cofaces in the VR filtration below scale of every face, read off the
    distance rows.

    faces holds vertex rows in filtration order and diam their diameters. A
    face's coface adds a vertex u outside it with dist[v, u] < scale for every
    vertex v of the face, and enters at the larger of the face's diameter and
    that row maximum. A row is keyed by _row_keys: the rank of its diameter
    among levels, the distinct distances, then its sorted vertices, so keys
    compare like (diameter, lex) and the least key is the earliest coface; a
    face is keyed the same way, so the keys of faces in filtration order
    ascend.
    Returns the (keys, earliest, column, pivot) that _pair_columns reads, and
    a map from a list of row keys to their diameters.
    """
    n = len(dist)
    width = faces.shape[1] + 1  # vertices of a coface

    def entries(f: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Each face's coface diameters, one column per vertex u; inf where u
        adds no coface."""
        near = dist[f[:, 0]]
        for i in range(1, f.shape[1]):
            np.maximum(near, dist[f[:, i]], out=near)
        near[near >= scale] = np.inf
        near[np.arange(len(f))[:, None], f] = np.inf
        return np.maximum(near, d[:, None], out=near)

    def keys(f: np.ndarray, u: np.ndarray, at: np.ndarray) -> np.ndarray:
        rows = np.sort(np.column_stack((f, u)), axis=1)
        return _row_keys(np.searchsorted(levels, at), rows, n, len(levels))

    earliest: list = []
    step = max(1, BLOCK // n)  # faces per block, so a block holds about BLOCK entries
    for lo in range(0, len(faces), step):
        f = faces[lo:lo + step]
        near = entries(f, diam[lo:lo + step])
        u = near.argmin(axis=1)  # the first minimum: the lowest vertex wins a tie
        at = near[np.arange(len(f)), u]
        first = keys(f, u, at).tolist()
        for i in np.flatnonzero(np.isinf(at)).tolist():
            first[i] = None
        earliest += first

    dtype = _key_dtype(len(levels), n, width)
    place = [n ** e for e in range(width - 1, -1, -1)]  # of each vertex position
    at_place = np.array(place, dtype=dtype)
    base = n ** width

    def column(j: int) -> _HeapColumn:
        """The keys _row_keys gives the face's cofaces, built off one row
        maximum: a vertex u inserted at position i takes place i, and the
        face's vertices keep their order in the other places."""
        f = faces[j]
        near = dist[f].max(axis=0)
        near[f] = np.inf
        u = np.flatnonzero(near < scale)
        rank = np.searchsorted(levels, np.maximum(near[u], diam[j]))
        v = f.tolist()
        face_at = np.array([sum(map(mul, v, place[:i] + place[i + 1:]))
                            for i in range(width)], dtype=dtype)
        i = np.searchsorted(f, u)
        found = rank.astype(dtype) * base + face_at[i] + u.astype(dtype) * at_place[i]
        found.sort()
        return _HeapColumn(found)

    own = _row_keys(np.searchsorted(levels, diam), faces, n, len(levels)).tolist()
    return ((own, earliest.__getitem__, column, _HeapColumn.pivot),
            lambda rows: levels[[r // base for r in rows]])


def _pair_columns(cleared, keys: list, earliest: Callable, column: Callable,
                  pivot: Callable) -> dict:
    """Reduce one coboundary matrix; return pivot row -> owning column.

    Columns are taken from the last, len(keys) - 1, to the first, skipping
    column j when keys[j], its key as a row one dimension down, is in cleared.
    earliest(j) is column j's pivot row before any reduction (None if it has
    no rows), column(j) is the column itself, which XOR reduces, and
    pivot(col) is the earliest row of a non-zero column.
    """
    owner: dict = {}    # pivot row -> the column that owns it
    reduced: dict = {}  # pivot row -> its owner's column, once built
    for j in range(len(keys) - 1, -1, -1):
        if keys[j] in cleared or (p := earliest(j)) is None:
            continue
        if p not in owner:  # emergent: the column is already reduced
            owner[p] = j
            continue
        col = column(j)
        while col:
            p = pivot(col)
            if p not in owner:
                owner[p] = j
                reduced[p] = col
                break
            if p not in reduced:
                reduced[p] = column(owner[p])
            col ^= reduced[p]
    return owner


def _merges(edges: list, born) -> dict[int, int]:
    """Dimension 0's persistence pairs by union-find: edge index -> the vertex
    whose class the edge kills.

    edges lists (a, b) pairs in filtration order, and born[v] orders vertex
    v's birth. A component is named by its eldest vertex, and an edge that
    joins two components kills the younger (the elder rule), so the pairs are
    those the reduction of dimension 0 would give.
    """
    parent = list(range(len(born)))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    killed = {}
    for i, (a, b) in enumerate(edges):
        a, b = root(a), root(b)
        if a != b:
            if born[a] > born[b]:
                a, b = b, a
            parent[b] = a
            killed[i] = b
    return killed


def _check_up_to(complex_: SimplicialComplex, up_to: int) -> None:
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if up_to > complex_.max_dim - 1:
        raise ValueError("insufficient skeleton: need simplices up to dim "
                         f"{up_to + 1}, complex caps at {complex_.max_dim}")


def betti_numbers(complex_: SimplicialComplex, up_to: int) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_up_to; requires max_dim >= up_to + 1.

    With every simplex entering at 0, beta_k counts the k-simplices that
    neither kill a class nor give birth to one that dies. They are computed on
    the complex's edge collapse, which keeps the homotopy type, enumerated to
    dimension up_to only (the edges when up_to is 0). The first dimension
    without a simplex ends the reduction: none above it has one either.
    """
    _check_up_to(complex_, up_to)
    complex_ = complex_._collapsed()
    simplices = complex_._skeleton(max(up_to, 1))
    # vertex_count may lie far above every listed vertex; only these are born
    killed = _merges(simplices[1], range(simplices[0][-1][0] + 1 if simplices[0] else 0))
    betti = [len(simplices[0]) - len(killed)]
    deaths = {simplices[1][i] for i in killed}
    for k in range(1, up_to + 1):
        if not simplices[k]:
            break
        pairs = _pair_columns(deaths, *_mask_cofaces(simplices[k], complex_._joins))
        betti.append(len(simplices[k]) - len(deaths) - len(pairs))
        deaths = pairs
    return tuple(betti) + (0,) * (up_to + 1 - len(betti))


def vr_persistence_bars(space: FiniteMetricSpace, scale: float,
                        up_to: int) -> dict[int, np.ndarray]:
    """Barcode in dimensions 0..up_to of the VR filtration below scale, in
    which each simplex of build_vr(space, scale, up_to + 1) enters at its
    diameter.

    Dimensions 0..up_to are enumerated and ordered by (diameter, lex);
    dimension 0 is paired by union-find over the edges, and every higher
    step reads its cofaces off the distance rows, so dimension up_to + 1 is
    never enumerated. bars[k] holds one (birth, death) row per k-class in
    birth order; death is inf for a class that never dies. Under the strict
    convention (a simplex is present at scale s iff its diameter is < s) a
    bar is alive at s iff birth < s <= death, so
    beta_k(s) = #{birth < s} - #{death < s}.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    dist = space.dist
    levels = np.unique(dist)
    faces, diam = [], []
    skeleton = build_vr(space, scale, up_to + 1)._skeleton(max(up_to, 1))
    for k, found in enumerate(skeleton):
        verts = np.array(found, dtype=np.intp).reshape(-1, k + 1)
        values = _diameters(verts, dist)
        order = np.argsort(values, kind="stable")
        faces.append(verts[order])
        diam.append(values[order])
    killed = _merges(faces[1].tolist(), range(len(dist)))
    death = np.full(len(dist), np.inf)
    death[list(killed.values())] = diam[1][list(killed)]
    bars = {0: np.column_stack((diam[0], death))}
    for k in range(1, up_to + 1):
        (keys, *cofaces), diameter = _vr_cofaces(faces[k], diam[k], dist, scale, levels)
        if k == 1:  # dimension 0's deaths, by key
            deaths = {keys[i] for i in killed}
        pairs = _pair_columns(deaths, keys, *cofaces)
        death = np.full(len(keys), np.inf)
        death[list(pairs.values())] = diameter(list(pairs))
        bars[k] = np.column_stack((diam[k], death))[[key not in deaths for key in keys]]
        deaths = pairs
    return bars


def fundamental_class_survives(small: SimplicialComplex, big: SimplicialComplex,
                               dim: int, vertex_image=None) -> bool:
    """Whether inclusion keeps H_dim fully alive from small to big.

    True iff the inclusion-induced map on H_dim is injective and both Betti
    numbers agree. vertex_image overrides the default identity inclusion when
    the small complex's vertices sit inside the big one at shifted indices; it
    must be injective.

    Read off the two-step filtration that puts the image of small at 0 and the
    rest of big at 1: the map is injective with equal ranks iff every
    positive-length dim-bar born at 0 never dies and every bar that never dies
    is born at 0. A simplex is keyed by (not in the image, vertex tuple),
    which orders it in that filtration; dimension 0 is paired by union-find,
    and the dimensions above by reducing coboundaries off big's joins.
    """
    inc = inclusion_map(small, big, vertex_image)
    if len(set(inc.image)) != len(inc.image):
        raise ValueError("vertex_image must be injective")
    if not check_simplicial(inc):
        raise ValueError("inclusion is not simplicial; the big complex must "
                         "contain the small one")
    _check_up_to(small, dim)
    _check_up_to(big, dim)
    image = {inc.apply(s) for found in small._skeleton(dim + 1) for s in found}

    def row(s: tuple[int, ...]) -> tuple[bool, tuple[int, ...]]:
        return s not in image, s

    simplices = [sorted(found, key=row) for found in big._skeleton(max(dim, 1))]
    killed = _merges(simplices[1], [row((v,)) for v in range(big.vertex_count)])
    deaths = {row(simplices[1][i]): row((v,)) for i, v in killed.items()}
    positive = [row(s) for s in simplices[0]]
    for k in range(1, dim + 1):
        keys, *cofaces = _mask_cofaces(simplices[k], big._joins, row)
        pairs = _pair_columns(deaths, keys, *cofaces)
        positive = [key for key in keys if key not in deaths]
        deaths = {r: keys[j] for r, j in pairs.items()}
    killer = {born: r for r, born in deaths.items()}
    # key[0] is True for a class born at 1, killer[key][0] for one dying at 1:
    # a class born at 0 must not die at 1, and every class born at 1 must die
    return all(killer[key][0] <= key[0] if key in killer else not key[0]
               for key in positive)
