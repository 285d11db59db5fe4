"""Simplicial homology over Z/2 with bitset linear algebra.

Chains in each dimension are encoded as Python integers, one bit per simplex
in a fixed order of that dimension, so column operations are single XORs on
arbitrary-width words. Boundary matrices are reduced column by column; a
column that survives keeps a unique pivot (its highest set bit).

One pivot-only reduction serves everything here: it reduces dimensions
top-down and skips every column whose simplex is already a pivot of the
dimension above (clearing; such a column reduces to zero). It gives ranks,
hence Betti numbers of a snapshot, and, with simplices ordered by filtration
value, the persistence barcode of a filtered complex. Whether an inclusion
keeps a homology group fully alive is read off the barcode of the two-step
filtration (the subcomplex, then the whole complex).
"""

from __future__ import annotations

import numpy as np

from .complexes import SimplicialComplex, check_simplicial, inclusion_map


def _boundary_columns(simplices: dict, dim: int) -> list[int]:
    """Columns of the boundary operator from dimension dim to dim-1.

    simplices maps each dimension to its simplices in the order that numbers
    both the columns (dimension dim) and the rows (dimension dim-1).
    """
    if dim == 0:
        return [0] * len(simplices[0])
    face_index = {s: i for i, s in enumerate(simplices[dim - 1])}
    cols = []
    for s in simplices[dim]:
        bits = 0
        for k in range(len(s)):
            face = s[:k] + s[k + 1:]
            bits ^= 1 << face_index[face]
        cols.append(bits)
    return cols


def _reduce_pivots(simplices: dict, top: int) -> dict[int, dict[int, int]]:
    """Pivot-only reduction of the boundaries of dimensions top down to 1.

    Returns pairs[k], mapping each pivot row (a (k-1)-simplex position) to the
    k-simplex column that owns it, so len(pairs[k]) is the rank of the k-th
    boundary. Columns are reduced left to right; a k-column whose simplex is a
    pivot row of pairs[k+1] is skipped, since it would reduce to zero.
    """
    pairs: dict[int, dict[int, int]] = {}
    cleared: dict[int, int] = {}
    for k in range(top, 0, -1):
        reduced: dict[int, int] = {}
        owner: dict[int, int] = {}
        for j, col in enumerate(_boundary_columns(simplices, k)):
            if j in cleared:
                continue
            while col:
                p = col.bit_length() - 1
                other = reduced.get(p)
                if other is None:
                    reduced[p] = col
                    owner[p] = j
                    break
                col ^= other
        pairs[k] = cleared = owner
    return pairs


def _check_up_to(complex_: SimplicialComplex, up_to: int) -> None:
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if up_to > complex_.max_dim - 1:
        raise ValueError("insufficient skeleton: need simplices up to dim "
                         f"{up_to + 1}, complex caps at {complex_.max_dim}")


def betti_numbers(complex_: SimplicialComplex, up_to: int) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_up_to; requires max_dim >= up_to + 1.

    beta_k = #k-simplices - rank d_k - rank d_(k+1), ranks from one pivot-only
    reduction.
    """
    _check_up_to(complex_, up_to)
    pairs = _reduce_pivots(complex_.simplices, up_to + 1)
    rank = [0] + [len(pairs[k]) for k in range(1, up_to + 2)]
    return tuple(len(complex_.simplices[k]) - rank[k] - rank[k + 1]
                 for k in range(up_to + 1))


def persistence_bars(complex_: SimplicialComplex, values: dict[int, np.ndarray],
                     up_to: int) -> dict[int, np.ndarray]:
    """Barcode in dimensions 0..up_to of the filtration that adds each simplex
    at its value.

    values[k][i] is the value of complex_.simplices[k][i], and no face may
    exceed its cofaces. Each dimension is ordered by (value, lex) and reduced
    once. bars[k] holds one (birth, death) row per k-class in birth order;
    death is inf for a class that never dies. Under the strict convention (a
    simplex is present at scale s iff its value is < s) a bar is alive at s
    iff birth < s <= death, so beta_k(s) = #{birth < s} - #{death < s}.
    """
    _check_up_to(complex_, up_to)
    order = {k: np.argsort(values[k], kind="stable") for k in range(up_to + 2)}
    pairs = _reduce_pivots({k: [complex_.simplices[k][i] for i in idx]
                            for k, idx in order.items()}, up_to + 1)
    ordered_values = {k: values[k][idx] for k, idx in order.items()}
    bars = {}
    for k in range(up_to + 1):
        death = np.full(len(order[k]), np.inf)
        death[list(pairs[k + 1])] = ordered_values[k + 1][list(pairs[k + 1].values())]
        positive = np.ones(len(death), dtype=bool)
        positive[list(pairs.get(k, {}).values())] = False
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
