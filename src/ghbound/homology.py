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

Dimension up_to + 1 only supplies rows and is never reduced. Stored, its
rows are filtration positions and a column is a Python integer with one bit
per row, so a column operation is one XOR on an arbitrary-width word. For the
Betti numbers of a built complex (a _MaskComplex) it is not stored at all:
with every value 0 the order is lex, so a column's earliest coface adds its
lowest joining vertex, read off its vertices' masks.

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
from itertools import chain

import numpy as np

from .complexes import SimplicialComplex, _MaskComplex, check_simplicial, inclusion_map


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


def _reduce_coboundaries(simplices, up_to: int, order: dict | None = None,
                         joins: Callable | None = None) -> dict[int, dict]:
    """Persistence pairs of dimensions 1..up_to + 1, by reducing coboundaries.

    simplices maps each dimension to its simplices in lexicographic order, and
    order[k] lists dimension k's indices in filtration order (lex order when
    order is None). pairs[k] maps the position of every k-simplex that kills a
    class to the position of the (k-1)-simplex that gave birth to it. Given a
    mask complex's joins (lex order only), dimension up_to + 1 is neither
    given nor stored: the last step takes its cofaces from the masks, and
    pairs[up_to + 1] is keyed by the killing simplices' vertex tuples.
    """
    stored = up_to + 2 if joins is None else up_to + 1
    verts = {k: np.fromiter(chain.from_iterable(simplices[k]), dtype=">i8",
                            count=len(simplices[k]) * (k + 1)).reshape(-1, k + 1)
             for k in range(stored)}
    position = {k: np.arange(len(verts[k])) if order is None
                else np.argsort(order[k]) for k in range(stored)}  # inverse permutations
    pairs: dict[int, dict] = {}
    deaths: dict = {}
    for k in range(up_to + 1):
        pairs[k + 1] = deaths = _pair_columns(len(verts[k]), deaths, *(
            _cofaces(verts[k], verts[k + 1], position[k], position[k + 1])
            if k + 1 < stored else _mask_cofaces(simplices[k], joins)))
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
    enumerated to dimension up_to only.
    """
    _check_up_to(complex_, up_to)
    if isinstance(complex_, _MaskComplex):
        simplices, joins = complex_._skeleton(up_to), complex_._joins
    else:
        simplices, joins = complex_.simplices, None
    pairs = _reduce_coboundaries(simplices, up_to, joins=joins)
    return tuple(len(simplices[k]) - len(pairs.get(k, ())) - len(pairs[k + 1])
                 for k in range(up_to + 1))


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
    pairs = _reduce_coboundaries(complex_.simplices, up_to, order)
    ordered_values = {k: values[k][idx] for k, idx in order.items()}
    bars = {}
    for k in range(up_to + 1):
        death = np.full(len(order[k]), np.inf)
        killed = pairs[k + 1]  # death position -> birth position
        death[list(killed.values())] = ordered_values[k + 1][list(killed)]
        positive = np.ones(len(death), dtype=bool)
        positive[list(pairs.get(k, {}))] = False
        bars[k] = np.column_stack((ordered_values[k], death))[positive]
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
