"""Simplicial homology over Z/2 with bitset linear algebra.

Chains in each dimension are encoded as Python integers, one bit per simplex
in a fixed order of that dimension, so column operations are single XORs on
arbitrary-width words. Boundary matrices are reduced column by column; a
column that survives keeps a unique pivot (its highest set bit).

Two reductions share that encoding. The pivot-only one keeps nothing but the
pivots: it reduces dimensions top-down and skips every column whose simplex is
already a pivot of the dimension above (clearing; such a column reduces to
zero). It gives ranks, hence Betti numbers of a snapshot, and, with simplices
ordered by filtration value, the persistence barcode of a filtered complex.
The tracking one also records which input columns combine to each cancelled
column; HomologyBasis reads explicit homology representatives and coordinates
of arbitrary cycles off it, which is what induced maps on homology are
assembled from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex, VertexMap, check_simplicial, inclusion_map


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers by dimension, values[k] = rank of H_k over Z/2."""

    values: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def _gf2_reduce(columns: list[int]) -> tuple[dict[int, int], list[int]]:
    """Column reduction over GF(2).

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


class HomologyBasis:
    """Homology of one complex in one dimension, with explicit representatives.

    Exposes the Betti number, representative cycles (as chain bitsets over the
    canonical simplex order), and coordinates of arbitrary cycles in the
    representative basis.
    """

    def __init__(self, complex_: SimplicialComplex, dim: int) -> None:
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        if dim > complex_.max_dim - 1:
            raise ValueError("insufficient skeleton: betti at dim k needs simplices "
                             "up to dim k+1")
        self.complex = complex_
        self.dim = dim
        _, kernel = _gf2_reduce(_boundary_columns(complex_.simplices, dim))
        boundary_pivots, _ = _gf2_reduce(_boundary_columns(complex_.simplices, dim + 1))
        self._boundary_pivots = boundary_pivots
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
        """Reduce a chain against the joint boundary + representative echelon basis.

        Returns (residual, coords): coords is the bitset of representatives
        used. The residual is zero iff the chain is a cycle of this complex.
        """
        coords = 0
        while chain:
            p = chain.bit_length() - 1
            if p in self._boundary_pivots:
                chain ^= self._boundary_pivots[p]
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
        """Coordinates of a cycle's class in the representative basis (a bitset).

        Raises if the chain is not a cycle of this complex.
        """
        residual, coords = self._reduce(cycle)
        if residual:
            raise ValueError("chain is not a cycle of this complex")
        return coords

    def chain_of(self, rep_index: int) -> tuple[tuple[int, ...], ...]:
        """The rep_index-th representative as a tuple of simplices."""
        simplices = self.complex.simplices[self.dim]
        bits = self.representatives[rep_index]
        return tuple(simplices[i] for i in range(bits.bit_length()) if (bits >> i) & 1)


def _check_up_to(complex_: SimplicialComplex, up_to: int) -> None:
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if up_to > complex_.max_dim - 1:
        raise ValueError("insufficient skeleton: need simplices up to dim "
                         f"{up_to + 1}, complex caps at {complex_.max_dim}")


def betti_numbers(complex_: SimplicialComplex, up_to: int) -> BettiVector:
    """Betti numbers beta_0..beta_up_to; requires max_dim >= up_to + 1.

    beta_k = #k-simplices - rank d_k - rank d_(k+1), ranks from one pivot-only
    reduction.
    """
    _check_up_to(complex_, up_to)
    pairs = _reduce_pivots(complex_.simplices, up_to + 1)
    rank = [0] + [len(pairs[k]) for k in range(1, up_to + 2)]
    return BettiVector(tuple(len(complex_.simplices[k]) - rank[k] - rank[k + 1]
                             for k in range(up_to + 1)))


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


@dataclass(frozen=True)
class HomologyMap:
    """A map on homology in one dimension, as a GF(2) matrix between bases.

    matrix[j] is the image of the j-th source representative, written as a
    bitset of target representative indices. Representative cycles of both
    sides are kept (as simplex tuples) so a matrix entry can be traced back to
    actual chains.
    """

    dim: int
    matrix: tuple[int, ...]
    source_betti: int
    target_betti: int
    source_reps: tuple[tuple[tuple[int, ...], ...], ...]
    target_reps: tuple[tuple[tuple[int, ...], ...], ...]

    def rank(self) -> int:
        return len(_gf2_reduce(self.matrix)[0])

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
        return HomologyMap(self.dim, tuple(cols), inner.source_betti,
                           self.target_betti, inner.source_reps, self.target_reps)


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
    """The map induced on H_dim by a simplicial vertex map.

    Validates that f is simplicial and that it sends boundaries to boundaries
    (automatic for chain maps; checked anyway as an internal consistency
    guard), then expresses the image of each source representative in the
    target representative basis.
    """
    if not check_simplicial(f):
        raise ValueError("map is not simplicial")
    src = HomologyBasis(f.source, dim)
    tgt = HomologyBasis(f.target, dim)
    target_index = {s: i for i, s in enumerate(f.target.simplices[dim])}
    for col in src._boundary_pivots.values():
        if not tgt.is_boundary(_push_chain(f, dim, col, target_index)):
            raise ValueError("map does not send boundaries to boundaries")
    cols = tuple(tgt.coordinates(_push_chain(f, dim, z, target_index))
                 for z in src.representatives)
    return HomologyMap(dim, cols, src.betti, tgt.betti,
                       tuple(src.chain_of(i) for i in range(src.betti)),
                       tuple(tgt.chain_of(i) for i in range(tgt.betti)))


def fundamental_class_survives(small: SimplicialComplex, big: SimplicialComplex,
                               dim: int, vertex_image=None) -> bool:
    """Whether inclusion keeps H_dim fully alive from small to big.

    True iff the inclusion-induced map on H_dim is injective and both Betti
    numbers agree. vertex_image overrides the default identity inclusion when
    the small complex's vertices sit inside the big one at shifted indices.
    """
    inc = inclusion_map(small, big, vertex_image)
    if not check_simplicial(inc):
        raise ValueError("inclusion is not simplicial; the big complex must "
                         "contain the small one")
    hm = induced_map(inc, dim)
    return hm.source_betti == hm.target_betti and hm.is_injective()
