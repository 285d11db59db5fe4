"""Vietoris-Rips and Cech complexes at a single scale, plus simplicial maps.

Complexes here are filtration-free snapshots: one scale, simplices up to an
explicit max_dim. The VR convention is strict, a simplex enters at scale r when
its diameter is < r (ties at exactly r are excluded). Cech complexes use the
ball radius as their scale. On the circle, at radii below a sixth of the
circumference, the Cech nerve coincides with a VR complex at doubled scale and
is built exactly; in general ambient spaces the Cech complex is approximated
from a witness set (a simplex is present iff some witness sees all its vertices
within the radius).

Vertex maps between complexes are plain index arrays. check_simplicial and
check_contiguous are executable forms of the two standard lemmas used to turn
metric data (a correspondence with small distortion, or a dense subset) into
maps on homology: a correspondence with distortion below r induces a simplicial
map into the VR complex at scale r + eps, and the round trip is contiguous to
the inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .manifolds import STRICT_SLACK, FiniteMetricSpace


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex:
    """An abstract simplicial complex on vertices 0..vertex_count-1.

    simplices maps dimension to a lexicographically sorted tuple of strictly
    increasing vertex tuples. Every dimension 0..max_dim has an entry (possibly
    empty); max_dim records the construction cap, which may exceed the top
    non-empty dimension. Instances are immutable by convention.

    The constructor checks every simplex and every one of its codimension-one
    faces, in time linear in simplices x dim, so a complex that exists is
    closed under taking faces.
    """

    def __init__(self, vertex_count: int, scale: float, max_dim: int,
                 simplices, flavor: str = "vr") -> None:
        self._store(vertex_count, scale, max_dim, simplices, flavor)
        self._validate()

    @classmethod
    def _closed(cls, vertex_count: int, scale: float, max_dim: int,
                simplices, flavor: str) -> "SimplicialComplex":
        """Wrap a builder's output, which is closed by construction, unchecked."""
        complex_ = cls.__new__(cls)
        complex_._store(vertex_count, scale, max_dim, simplices, flavor)
        return complex_

    def _store(self, vertex_count: int, scale: float, max_dim: int,
               simplices, flavor: str) -> None:
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        if max_dim < 0:
            raise ValueError("max_dim must be >= 0")
        self.vertex_count = vertex_count
        self.scale = float(scale)
        self.max_dim = max_dim
        self.flavor = flavor
        canon: dict[int, tuple[tuple[int, ...], ...]] = {}
        for d in range(max_dim + 1):
            entries = simplices.get(d, ())
            canon[d] = tuple(sorted(set(tuple(s) for s in entries)))
        self.simplices = canon
        self._sets = {d: frozenset(v) for d, v in canon.items()}

    def _validate(self) -> None:
        for d, entries in self.simplices.items():
            for s in entries:
                if len(s) != d + 1:
                    raise ValueError(f"simplex {s} filed under dimension {d}")
                if any(s[i] >= s[i + 1] for i in range(d)):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= self.vertex_count:
                    raise ValueError(f"simplex {s} has a vertex out of range")
                if d == 0:
                    continue
                faces = self._sets[d - 1]
                for k in range(d + 1):
                    face = s[:k] + s[k + 1:]
                    if face not in faces:
                        raise ValueError(f"face {face} of {s} is missing")

    def has_simplex(self, simplex) -> bool:
        t = tuple(simplex)
        return t in self._sets.get(len(t) - 1, frozenset())

    def simplex_counts(self) -> list[int]:
        return [len(self.simplices[d]) for d in range(self.max_dim + 1)]

    def top_dim(self) -> int:
        """Largest dimension that actually holds a simplex (-1 if none)."""
        return max((d for d, v in self.simplices.items() if v), default=-1)

    def __repr__(self) -> str:
        return (f"SimplicialComplex(vertices={self.vertex_count}, scale={self.scale:g}, "
                f"max_dim={self.max_dim}, counts={self.simplex_counts()})")


def same_complex(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Structural equality: same vertex set and same simplices."""
    if a is b:
        return True
    return a.vertex_count == b.vertex_count and a.simplices == b.simplices


def build_vr(space: FiniteMetricSpace, scale: float, max_dim: int) -> SimplicialComplex:
    """Vietoris-Rips complex at one scale: simplices are sets of diameter < scale.

    Built by clique expansion of the proximity graph with neighbor bitmasks; the
    per-dimension lists come out lexicographically sorted.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    m = space.size
    d = space.dist
    nbr = [0] * m
    for i in range(m):
        row = np.nonzero(d[i] < scale)[0]
        mask = 0
        for j in row:
            if j != i:
                mask |= 1 << int(j)
        nbr[i] = mask

    simplices: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(max_dim + 1)}
    simplices[0] = [(i,) for i in range(m)]

    def extend(simplex: tuple[int, ...], cand: int, dim: int) -> None:
        for u in _iter_bits(cand):
            bigger = simplex + (u,)
            simplices[dim + 1].append(bigger)
            if dim + 1 < max_dim:
                extend(bigger, cand & nbr[u] & (-1 << (u + 1)), dim + 1)

    if max_dim >= 1:
        for i in range(m):
            extend((i,), nbr[i] & (-1 << (i + 1)), 0)

    return SimplicialComplex._closed(m, scale, max_dim, simplices, "vr")


def simplex_diameters(complex_: SimplicialComplex,
                      dist: np.ndarray) -> dict[int, np.ndarray]:
    """Diameter under dist of every simplex, per dimension in the complex's order.

    A simplex enters the VR filtration at its diameter: it is in build_vr's
    complex at scale s iff its diameter is < s.
    """
    out = {}
    for k, simplices in complex_.simplices.items():
        # reshape keeps an empty dimension two-dimensional
        verts = np.asarray(simplices, dtype=np.intp).reshape(-1, k + 1)
        diam = np.zeros(len(verts))
        for a, b in combinations(range(k + 1), 2):
            np.maximum(diam, dist[verts[:, a], verts[:, b]], out=diam)
        out[k] = diam
    return out


def build_cech_circle(space: FiniteMetricSpace, radius: float, max_dim: int,
                      circumference: float) -> SimplicialComplex:
    """Exact ambient Cech complex for a circle subset, radius below circumference/6.

    In that regime balls of radius r have a common point iff the vertex set has
    diameter < 2r, so the nerve equals the VR complex at doubled scale; the
    returned complex is that VR complex relabeled with the Cech radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not (2 * radius < circumference / 3.0 - STRICT_SLACK):
        raise ValueError("lemma scale bound violated: need 2*radius < circumference/3")
    vr = build_vr(space, 2 * radius, max_dim)
    return SimplicialComplex._closed(vr.vertex_count, radius, max_dim, vr.simplices,
                                     "cech")


def build_cech_witness(space_cross: np.ndarray, radius: float,
                       max_dim: int) -> SimplicialComplex:
    """Witnessed Cech complex from a witness-to-point distance matrix.

    space_cross[w, i] is the distance from witness w to point i. A simplex is
    included iff a single witness is within radius of all its vertices; in
    particular a vertex itself appears only if witnessed. This under-approximates
    the true ambient Cech complex (witnesses only sample the ambient space) and
    the approximation is one-sided.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    cross = np.asarray(space_cross, dtype=np.float64)
    if cross.ndim != 2:
        raise ValueError("space_cross must be a 2-d matrix")
    m = cross.shape[1]
    rows, cols = np.nonzero(cross < radius)
    cuts = np.searchsorted(rows, np.arange(len(cross) + 1)).tolist()
    cols = cols.tolist()
    stars = {tuple(cols[lo:hi]) for lo, hi in zip(cuts, cuts[1:])}
    simplices: dict[int, set[tuple[int, ...]]] = {k: set() for k in range(max_dim + 1)}
    for star in stars:
        for k in range(min(len(star), max_dim + 1)):
            simplices[k].update(combinations(star, k + 1))
    return SimplicialComplex._closed(m, radius, max_dim, simplices, "cech-witness")


@dataclass(frozen=True)
class VertexMap:
    """A vertex assignment between two complexes (not necessarily simplicial)."""

    source: SimplicialComplex = field(compare=False)
    target: SimplicialComplex = field(compare=False)
    image: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.image) != self.source.vertex_count:
            raise ValueError("image must assign every source vertex")
        for v in self.image:
            if v < 0 or v >= self.target.vertex_count:
                raise ValueError("vertex index out of range")

    def apply(self, simplex) -> tuple[int, ...]:
        """Image of a simplex, deduplicated and sorted (may drop dimension)."""
        return tuple(sorted({self.image[v] for v in simplex}))


def inclusion_map(small: SimplicialComplex, big: SimplicialComplex,
                  vertex_image=None) -> VertexMap:
    """The inclusion of a subcomplex, identity on vertex indices by default."""
    if vertex_image is None:
        if small.vertex_count > big.vertex_count:
            raise ValueError("small complex has more vertices than big complex")
        vertex_image = tuple(range(small.vertex_count))
    return VertexMap(small, big, tuple(int(v) for v in vertex_image))


def compose_maps(outer: VertexMap, inner: VertexMap) -> VertexMap:
    if not same_complex(inner.target, outer.source):
        raise ValueError("maps are not composable: inner target differs from outer source")
    image = tuple(outer.image[v] for v in inner.image)
    return VertexMap(inner.source, outer.target, image)


def check_simplicial(f: VertexMap) -> bool:
    """True iff every simplex image (after collapsing repeats) is a target simplex."""
    for d in range(f.source.max_dim + 1):
        for s in f.source.simplices[d]:
            if not f.target.has_simplex(f.apply(s)):
                return False
    return True


def check_contiguous(f: VertexMap, g: VertexMap) -> bool:
    """True iff f(sigma) union g(sigma) spans a target simplex for every sigma.

    Contiguous simplicial maps are homotopic, hence induce the same map on
    homology. The target must have been built with max_dim large enough to hold
    the unions (up to twice the source dimension plus one).
    """
    if not (same_complex(f.source, g.source) and same_complex(f.target, g.target)):
        raise ValueError("mismatched complexes")
    for d in range(f.source.max_dim + 1):
        for s in f.source.simplices[d]:
            union = tuple(sorted(set(f.apply(s)) | set(g.apply(s))))
            if not f.target.has_simplex(union):
                return False
    return True


def induced_vr_map(corr, space_x: FiniteMetricSpace, space_y: FiniteMetricSpace,
                   source: SimplicialComplex, r: float,
                   max_dim: int | None = None) -> VertexMap:
    """Simplicial map VR(Y; eps) -> VR(X; r + eps) induced by a correspondence.

    corr relates points of X to points of Y with distortion dis(corr) < r. Each
    Y-vertex is sent to the X-partner of its lexicographically first related
    pair; for a simplex of diameter < eps the image has diameter < r + eps, so
    the assignment is simplicial into the VR complex of X at scale r + eps
    (built here, with max_dim defaulting to the source's).
    """
    from .gh import distortion  # local import, gh depends on manifolds only

    if source.vertex_count != space_y.size:
        raise ValueError("source complex does not match the Y metric space")
    dis = distortion(corr, space_x, space_y)
    if not (dis < r - STRICT_SLACK):
        raise ValueError("distortion exceeds scale")
    partner = {}
    for i, j in corr.pairs:  # pairs are sorted, first hit is the lexicographic min
        if j not in partner:
            partner[j] = i
    image = tuple(partner[j] for j in range(space_y.size))
    target = build_vr(space_x, r + source.scale,
                      source.max_dim if max_dim is None else max_dim)
    return VertexMap(source, target, image)


def subset_projection_map(space: FiniteMetricSpace, subset_indices,
                          source: SimplicialComplex, r: float,
                          max_dim: int | None = None) -> VertexMap:
    """Simplicial map VR(Z; eps) -> VR(Y; r + eps) sending z to its nearest subset point.

    Y is the subspace of Z on subset_indices. Requires r to exceed twice the
    directed Hausdorff distance from Z to Y (each point moves less than r/2, so
    simplex diameters grow by less than r). Ties pick the earliest subset entry.
    The target lives on the subspace metric; compose with an inclusion into
    VR(Z; r + eps) to compare against the identity.
    """
    idx = [int(i) for i in subset_indices]
    if len(set(idx)) != len(idx) or not idx:
        raise ValueError("subset_indices must be non-empty and distinct")
    if source.vertex_count != space.size:
        raise ValueError("source complex does not match the metric space")
    cols = space.dist[:, idx]
    gap = float(cols.min(axis=1).max())
    if not (2 * gap < r - STRICT_SLACK):
        raise ValueError("r must exceed twice the directed Hausdorff distance")
    image = tuple(int(k) for k in cols.argmin(axis=1))
    sub = space.submatrix(idx)
    target = build_vr(sub, r + source.scale,
                      source.max_dim if max_dim is None else max_dim)
    return VertexMap(source, target, image)
