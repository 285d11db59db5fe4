"""Simplicial homology over Z/2: persistence pairs from one coboundary reduction.

One reduction serves everything here, and it reduces coboundaries, not
boundaries. In dimension k = 0, 1, ..., up_to the columns are the k-simplices
in decreasing filtration position, the rows are the (k+1)-simplices, and a
column's pivot is its earliest coface. Two shortcuts keep the work small:

* clearing: a k-simplex that dimension k-1 paired as a death has a column
  that reduces to zero, so it is skipped;
* emergent pairs: a column whose earliest coface has no owner yet is already
  reduced (Bauer, "Ripser", J. Appl. Comput. Topol. 2021). It is paired at
  once; its column is built only if a later column has to XOR with it.

The Betti numbers of a built complex are those of its edge collapse
(complexes._MaskComplex._collapsed). Edge xy goes when some vertex w outside
it has N[x] & N[y] <= N[w] on closed neighbourhoods and, in a witnessed
complex, lies in every kept star holding x and y. The link of xy is then a
cone with apex w, and removing the open star of such an edge keeps the
homotopy type (Boissonnat and Pritam, SoCG 2020; Barmak and Minian, DCG
2012). The collapse ignores the cap: homology below max_dim depends only on
the max_dim-skeleton. On the VR complex of the 16 x 16 grid on the unit
torus at 0.3 it leaves 324 of 8,704 edges.

Dimension up_to + 1 only supplies rows and is never reduced. Its cofaces
come from one of three sources:

* stored (an explicit complex, or a filtration given by its values): rows
  are filtration positions and a column is a Python integer with one bit per
  row, so a column operation is one XOR on an arbitrary-width word;
* masks (the Betti numbers of a built complex, a _MaskComplex): with every
  value 0 the order is lex, so a column's earliest coface adds its lowest
  joining vertex, read off its vertices' masks;
* distance rows (vr_persistence_bars, the VR filtration): a face's cofaces
  add the vertices within scale of all its vertices, each entering at the
  larger of the face's diameter and its farthest distance to them. One
  blocked pass over the rows finds every column's earliest coface; a row is
  keyed by an integer that compares like (diameter, lex), and only a column
  that must be XORed lists its cofaces, as a sorted array of keys built off
  one row maximum. The column under reduction is a lazy heap (_HeapColumn,
  after Ripser): an XOR pushes the other column's keys, and equal keys
  cancel in pairs only when they reach the top, so the long cocycle of a
  fundamental class is never re-sorted as it grows.

The coboundary matrix of dimension k is the boundary matrix of dimension
k + 1 with rows and columns swapped and both orders reversed. That flip maps
the lower-left submatrices, whose ranks fix the persistence pairs, onto each
other, so the pairs are exactly those of the homology reduction (de Silva,
Morozov and Vejdemo-Johansson, "Dualities in persistent (co)homology",
2011). With simplices ordered by filtration value the pairs give the barcode,
and all else is read off a barcode: Betti numbers count the bars that never
die when every simplex enters at 0, and whether an inclusion keeps a
homology group alive is read off the two-step filtration (the subcomplex,
then the rest).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from heapq import heappop, heappush
from itertools import chain, combinations
from operator import mul

import numpy as np

from .complexes import (SimplicialComplex, _MaskComplex, build_vr, check_simplicial,
                        inclusion_map)
from .manifolds import BLOCK, FiniteMetricSpace


def _vertex_arrays(simplices, top: int) -> dict[int, np.ndarray]:
    """Dimensions 0..top as arrays with one row of vertices per simplex."""
    return {k: np.fromiter(chain.from_iterable(simplices[k]), dtype=">i8",
                           count=len(simplices[k]) * (k + 1)).reshape(-1, k + 1)
            for k in range(top + 1)}


def _diameters(verts: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Diameter under dist of each row of vertices: the scale at which the
    simplex enters the VR filtration (it is in build_vr's complex at scale s
    iff its diameter is < s)."""
    diam = np.zeros(len(verts))
    for a, b in combinations(range(verts.shape[1]), 2):
        np.maximum(diam, dist[verts[:, a], verts[:, b]], out=diam)
    return diam


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row that compares like the row's vertex tuple.

    The bytes of big-endian non-negative int64s compare in numeric order, so
    the keys sort lexicographically and no packing can overflow.
    """
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _cofaces(faces: np.ndarray, cofaces: np.ndarray, face_pos: np.ndarray,
             coface_pos: np.ndarray) -> tuple[Callable, Callable, Callable]:
    """Stored cofaces of every face, as the (earliest, column, pivot) triple
    that _pair_columns reads, with rows keyed by filtration position.

    faces and cofaces are lex-sorted vertex arrays of adjacent dimensions, and
    *_pos give each row's filtration position. A column is an integer whose
    bit top - p is row p, so its pivot is its highest bit.
    """
    top = len(cofaces) - 1
    if top < 0:  # nor any dimension above; the search costs O(k^2)
        return (lambda j: None), None, None
    keys = _lex_keys(faces)
    col = face_pos[np.stack([np.searchsorted(keys, _lex_keys(np.delete(cofaces, i, 1)))
                             for i in range(cofaces.shape[1])], axis=1)].ravel()
    row = np.repeat(coface_pos, cofaces.shape[1])
    by_col = np.lexsort((row, col))
    starts = np.searchsorted(col[by_col], np.arange(len(faces) + 1)).tolist()
    row = row[by_col]
    del col, by_col  # only the lists outlive this call
    flat = row.tolist()  # the rows of column j, earliest first
    earliest = [flat[a] if a < b else None for a, b in zip(starts, starts[1:])]

    def column(j: int) -> int:
        return sum(1 << (top - p) for p in flat[starts[j]:starts[j + 1]])

    return earliest.__getitem__, column, lambda col: top + 1 - col.bit_length()


def _mask_cofaces(faces: tuple, joins: Callable) -> tuple[Callable, Callable, Callable]:
    """Cofaces of every face of a mask complex, from its joins, as the
    (earliest, column, pivot) triple that _pair_columns reads. Rows are keyed
    by their vertex tuples, and a column is the set of them: only a column
    that must be XORed lists them all."""
    def coface(s: tuple[int, ...], u: int) -> tuple[int, ...]:
        i = bisect_left(s, u)
        return s[:i] + (u,) + s[i:]

    def earliest(j: int) -> tuple[int, ...] | None:
        s = faces[j]
        low = joins(s, True)
        return coface(s, low.bit_length() - 1) if low else None

    def column(j: int) -> set[tuple[int, ...]]:
        s = faces[j]
        mask = joins(s)
        out = set()
        while mask:
            low = mask & -mask
            mask ^= low
            out.add(coface(s, low.bit_length() - 1))
        return out

    return earliest, column, min


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


def _vr_cofaces(faces: np.ndarray, diam: np.ndarray, dist: np.ndarray,
                scale: float) -> tuple[tuple[Callable, Callable, Callable], Callable]:
    """Cofaces in the VR filtration below scale of every face, read off the
    distance rows.

    faces holds vertex rows in filtration order and diam their diameters. A
    face's coface adds a vertex u outside it with dist[v, u] < scale for every
    vertex v of the face, and enters at the larger of the face's diameter and
    that row maximum. A row is keyed by _row_keys: the rank of its diameter
    among the distinct distances, then its sorted vertices, so keys compare
    like (diameter, lex) and the least key is the earliest coface. Returns the
    (earliest, column, pivot) triple that _pair_columns reads, and a map from
    a list of row keys to their diameters.
    """
    n = len(dist)
    levels = np.unique(dist)
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

    return ((earliest.__getitem__, column, _HeapColumn.pivot),
            lambda rows: levels[[r // base for r in rows]])


def _pair_columns(count: int, cleared: dict, earliest: Callable, column: Callable,
                  pivot: Callable) -> dict:
    """Reduce one coboundary matrix; return pivot row -> owning column.

    Columns are taken from the last, count - 1, to the first, skipping those
    in cleared. earliest(j) is column j's pivot row before any reduction (None
    if it has no rows), column(j) is the column itself, which XOR reduces,
    and pivot(col) is the earliest row of a non-zero column.
    """
    owner: dict = {}    # pivot row -> the column that owns it
    reduced: dict = {}  # pivot row -> its owner's column, once built
    for j in range(count - 1, -1, -1):
        if j in cleared or (p := earliest(j)) is None:
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


def _reduce_coboundaries(verts: dict[int, np.ndarray], up_to: int,
                         order: dict | None = None,
                         last: tuple | None = None) -> dict[int, dict]:
    """Persistence pairs of dimensions 1..up_to + 1, by reducing coboundaries.

    verts[k] holds the k-simplices' vertex rows in lexicographic order, and
    order[k] lists dimension k's indices in filtration order (lex order when
    order is None). pairs[k] maps the position of every k-simplex that kills a
    class to the position of the (k-1)-simplex that gave birth to it. Given
    last, the (earliest, column, pivot) triple of the last step, dimension
    up_to + 1 is neither given nor stored, and pairs[up_to + 1] is keyed by
    last's row keys.
    """
    stored = up_to + 2 if last is None else up_to + 1
    position = {k: np.arange(len(verts[k])) if order is None
                else np.argsort(order[k]) for k in range(stored)}  # inverse permutations
    pairs: dict[int, dict] = {}
    deaths: dict = {}
    for k in range(up_to + 1):
        pairs[k + 1] = deaths = _pair_columns(len(verts[k]), deaths, *(
            _cofaces(verts[k], verts[k + 1], position[k], position[k + 1])
            if k + 1 < stored else last))
    return pairs


def _check_up_to(complex_: SimplicialComplex, up_to: int) -> None:
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if up_to > complex_.max_dim - 1:
        raise ValueError("insufficient skeleton: need simplices up to dim "
                         f"{up_to + 1}, complex caps at {complex_.max_dim}")


def betti_numbers(complex_: SimplicialComplex, up_to: int) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_up_to; requires max_dim >= up_to + 1.

    With every simplex entering at 0, beta_k counts the k-simplices that
    neither kill a class nor give birth to one that dies. A mask complex is
    replaced by its edge collapse: an edge xy is removed while a vertex w
    outside it has N[x] & N[y] <= N[w] and lies in every star holding x and
    y, so the link of xy is a cone on w and the homotopy type is kept
    (Boissonnat and Pritam 2020; Barmak and Minian 2012). The collapse ignores
    max_dim, which the Betti numbers below it do not depend on. The collapsed
    complex is enumerated to dimension up_to only.
    """
    _check_up_to(complex_, up_to)
    if isinstance(complex_, _MaskComplex):
        complex_ = complex_._collapsed()
        simplices = complex_._skeleton(up_to)
        last = _mask_cofaces(simplices[up_to], complex_._joins)
    else:
        simplices, last = complex_.simplices, None
    pairs = _reduce_coboundaries(
        _vertex_arrays(simplices, up_to + (last is None)), up_to, last=last)
    return tuple(len(simplices[k]) - len(pairs.get(k, ())) - len(pairs[k + 1])
                 for k in range(up_to + 1))


def _barcode(pairs: dict[int, dict], ordered: dict[int, np.ndarray], up_to: int,
             top_values: Callable) -> dict[int, np.ndarray]:
    """Bars of dimensions 0..up_to. ordered[k] holds dimension k's values in
    filtration order, and top_values(rows) the values of the
    (up_to + 1)-simplices keyed by rows in pairs[up_to + 1]."""
    bars = {}
    for k in range(up_to + 1):
        death = np.full(len(ordered[k]), np.inf)
        killed = pairs[k + 1]  # death row -> birth position
        rows = list(killed)
        death[list(killed.values())] = (ordered[k + 1][rows] if k < up_to
                                        else top_values(rows))
        positive = np.ones(len(death), dtype=bool)
        positive[list(pairs.get(k, {}))] = False
        bars[k] = np.column_stack((ordered[k], death))[positive]
    return bars


def persistence_bars(complex_: SimplicialComplex, values: dict[int, np.ndarray],
                     up_to: int) -> dict[int, np.ndarray]:
    """Barcode in dimensions 0..up_to of the filtration that adds each simplex
    at its value.

    values[k][i] is the value of complex_.simplices[k][i], and no face may
    exceed its cofaces. Each dimension is ordered by (value, lex) and the
    coboundaries are reduced once. bars[k] holds one (birth, death) row per
    k-class in birth order; death is inf for a class that never dies. Under
    the strict convention (a simplex is present at scale s iff its value is
    < s) a bar is alive at s iff birth < s <= death, so
    beta_k(s) = #{birth < s} - #{death < s}.
    """
    _check_up_to(complex_, up_to)
    order = {k: np.argsort(values[k], kind="stable") for k in range(up_to + 2)}
    pairs = _reduce_coboundaries(_vertex_arrays(complex_.simplices, up_to + 1),
                                 up_to, order)
    ordered = {k: values[k][idx] for k, idx in order.items()}
    return _barcode(pairs, ordered, up_to, ordered[up_to + 1].__getitem__)


def vr_persistence_bars(space: FiniteMetricSpace, scale: float,
                        up_to: int) -> dict[int, np.ndarray]:
    """persistence_bars of build_vr(space, scale, up_to + 1), every simplex
    at its diameter, with dimension up_to + 1 never enumerated.

    Dimensions 0..up_to are enumerated, ordered by (diameter, lex) and
    reduced as persistence_bars reduces them; the last step reads its
    cofaces off the distance rows.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    verts = _vertex_arrays(build_vr(space, scale, up_to + 1)._skeleton(up_to), up_to)
    values = {k: _diameters(v, space.dist) for k, v in verts.items()}
    order = {k: np.argsort(v, kind="stable") for k, v in values.items()}
    ordered = {k: values[k][idx] for k, idx in order.items()}
    last, death_values = _vr_cofaces(verts[up_to][order[up_to]], ordered[up_to],
                                     space.dist, scale)
    return _barcode(_reduce_coboundaries(verts, up_to, order, last), ordered, up_to,
                    death_values)


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
    is born at 0.
    """
    inc = inclusion_map(small, big, vertex_image)
    if len(set(inc.image)) != len(inc.image):
        raise ValueError("vertex_image must be injective")
    if not check_simplicial(inc):
        raise ValueError("inclusion is not simplicial; the big complex must "
                         "contain the small one")
    _check_up_to(small, dim)
    _check_up_to(big, dim)
    values = {}
    for k in range(dim + 2):
        image = {inc.apply(s) for s in small.simplices[k]}
        values[k] = np.array([0.0 if s in image else 1.0 for s in big.simplices[k]])
    bars = persistence_bars(big, values, dim)[dim]
    lasting = bars[bars[:, 0] < bars[:, 1]]
    return bool(np.all((lasting[:, 0] == 0.0) == np.isinf(lasting[:, 1])))
