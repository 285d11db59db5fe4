"""Vietoris-Rips and Cech complexes at a single scale, plus simplicial maps.

Complexes here are filtration-free snapshots: one scale, simplices up to an
explicit max_dim. The VR convention is strict, a simplex enters at scale r when
its diameter is < r (ties at exactly r are excluded). A VR complex is a flag
(clique) complex, so it is held as one neighbour bitmask per vertex: membership
is a clique test on the masks, and the simplices are enumerated only when first
read, in the same canonical order as every other complex. Cech complexes use the
ball radius as their scale. On the circle, at radii below a sixth of the
circumference, the Cech nerve coincides with a VR complex at doubled scale and
is built exactly; on circles and tori in general the Cech complex is
approximated from a witness grid (a simplex is present iff some witness sees
all its vertices within the radius). That complex is built from star masks:
each point carries the bitmask of the distinct witness stars it lies in, and a
vertex set is a simplex iff the AND of its masks is non-zero.

Vertex maps between complexes are tuples of int vertex indices.
check_simplicial and check_contiguous are executable forms of the two standard
lemmas used to turn metric data (a correspondence with small distortion, or a
dense subset) into maps on homology: a correspondence with distortion below r
induces a simplicial map into the VR complex at scale r + eps, and the round
trip is contiguous to the inclusion. Between two flag complexes whose target
cap cannot bind (every image, or every union of two images, fits in a target
simplex), both checks test only the source edges against the target's
neighbour masks and enumerate nothing; for explicit complexes, or when the cap
binds, they enumerate the source simplices and query each image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import index

import numpy as np

from .manifolds import STRICT_SLACK, FiniteMetricSpace, FiniteSubset, witness_hits


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
                 simplices) -> None:
        canon = {d: sorted(set(tuple(s) for s in simplices.get(d, ())))
                 for d in range(max_dim + 1)}
        self._store(vertex_count, scale, max_dim, canon)
        self._validate()

    @classmethod
    def _closed(cls, vertex_count: int, scale: float, max_dim: int,
                simplices) -> "SimplicialComplex":
        """Wrap a builder's output unchecked.

        Builders hand over, per dimension, a lexicographically sorted list of
        strictly increasing tuples, free of duplicates and closed under faces.
        """
        complex_ = cls.__new__(cls)
        complex_._store(vertex_count, scale, max_dim, simplices)
        return complex_

    def _store(self, vertex_count: int, scale: float, max_dim: int,
               simplices) -> None:
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        if max_dim < 0:
            raise ValueError("max_dim must be >= 0")
        self.vertex_count = vertex_count
        self.scale = float(scale)
        self.max_dim = max_dim
        self.simplices = {d: tuple(simplices.get(d, ())) for d in range(max_dim + 1)}
        self._sets: dict[int, frozenset] = {}  # filled per dimension by _set

    def _set(self, dim: int) -> frozenset:
        """The simplices of one dimension as a set, frozen on first use."""
        found = self._sets.get(dim)
        if found is None:
            found = self._sets[dim] = frozenset(self.simplices.get(dim, ()))
        return found

    def _validate(self) -> None:
        for d, entries in self.simplices.items():
            faces = self._set(d - 1) if d else frozenset()
            for s in entries:
                if len(s) != d + 1:
                    raise ValueError(f"simplex {s} filed under dimension {d}")
                if any(s[i] >= s[i + 1] for i in range(d)):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= self.vertex_count:
                    raise ValueError(f"simplex {s} has a vertex out of range")
                if d == 0:
                    continue
                for k in range(d + 1):
                    face = s[:k] + s[k + 1:]
                    if face not in faces:
                        raise ValueError(f"face {face} of {s} is missing")

    def has_simplex(self, simplex) -> bool:
        t = tuple(simplex)
        return t in self._set(len(t) - 1)

    def simplex_counts(self) -> list[int]:
        return [len(self.simplices[d]) for d in range(self.max_dim + 1)]

    def __repr__(self) -> str:
        return (f"SimplicialComplex(vertices={self.vertex_count}, scale={self.scale:g}, "
                f"max_dim={self.max_dim}, counts={self.simplex_counts()})")


class _FlagComplex(SimplicialComplex):
    """A flag complex held as neighbour masks: a vertex set is a simplex iff
    its vertices are pairwise adjacent and it has at most max_dim + 1 of them.

    nbr[i] has bit j set iff vertices i != j are adjacent. simplices is
    enumerated from the masks on first read; has_simplex never reads it.
    """

    def __init__(self, vertex_count: int, scale: float, max_dim: int,
                 nbr: list[int]) -> None:
        self.vertex_count = vertex_count
        self.scale = float(scale)
        self.max_dim = max_dim
        self._nbr = nbr

    @cached_property
    def simplices(self) -> dict[int, tuple]:
        """Level-wise clique expansion, in the inductive style of Zomorodian
        (2010). Each simplex carries the bitmask of its common neighbours above
        its last vertex. Popping the lowest bit u of that mask gives the coface
        s + (u,), whose mask is what is left of the parent's intersected with
        the neighbours of u; a coface in the top dimension or with an empty
        mask is not carried on. Parents are visited in order and their cofaces
        come out by increasing u, so every dimension is emitted
        lexicographically sorted and free of duplicates: the output is
        canonical.
        """
        nbr = self._nbr
        simplices = {0: tuple((i,) for i in range(self.vertex_count))}
        level = [((i,), mask >> (i + 1) << (i + 1)) for i, mask in enumerate(nbr)]
        for k in range(1, self.max_dim + 1):
            found = []
            next_level = []
            last = k == self.max_dim
            for s, cand in level:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    u = low.bit_length() - 1
                    t = s + (u,)
                    found.append(t)
                    if not last and (common := cand & nbr[u]):
                        next_level.append((t, common))
            simplices[k] = tuple(found)
            level = next_level
        return simplices

    def has_simplex(self, simplex) -> bool:
        t = tuple(map(index, simplex))
        if not 0 < len(t) <= self.max_dim + 1:
            return False
        nbr = self._nbr
        prev, seen = -1, 0  # seen: the bits of the vertices before v
        for v in t:
            if not prev < v < self.vertex_count or seen & ~nbr[v]:
                return False
            prev = v
            seen |= 1 << v
        return True


def _same_complex(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Structural equality: same vertex set and same simplices."""
    if a is b:
        return True
    return a.vertex_count == b.vertex_count and a.simplices == b.simplices


def build_vr(space: FiniteMetricSpace, scale: float, max_dim: int) -> SimplicialComplex:
    """Vietoris-Rips complex at one scale: simplices are sets of diameter < scale.

    VR complexes are flag complexes, so the result holds only the proximity
    graph, one neighbour bitmask per vertex packed from the rows of
    dist < scale. has_simplex is a clique test on those masks; simplices is
    enumerated on first read, dimension by dimension in the canonical
    lexicographic order, and a complex that is only queried never enumerates.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    return _FlagComplex(space.size, scale, max_dim, _neighbour_masks(space.dist, scale))


def _neighbour_masks(dist: np.ndarray, scale: float) -> list[int]:
    """Bit j of entry i is set iff i != j and dist[i, j] < scale."""
    packed = np.packbits(dist < scale, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") & ~(1 << i)
            for i in range(len(dist))]


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
    returned complex is that VR complex's neighbour masks relabeled with the
    Cech radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not (2 * radius < circumference / 3.0 - STRICT_SLACK):
        raise ValueError("lemma scale bound violated: need 2*radius < circumference/3")
    vr = build_vr(space, 2 * radius, max_dim)
    return _FlagComplex(vr.vertex_count, radius, max_dim, vr._nbr)


def build_cech_witness(subset: FiniteSubset, radius: float, max_dim: int,
                       per_axis: int) -> SimplicialComplex:
    """Witnessed Cech complex of a circle or torus subset on a witness grid.

    The witnesses are grid_points(subset.manifold, per_axis). A simplex is
    included iff a single witness is within distance < radius of all its
    vertices; in particular a vertex itself appears only if witnessed. This
    under-approximates the true ambient Cech complex (witnesses only sample the
    ambient space) and the approximation is one-sided.

    The witness x point table is never formed: witness_hits finds the
    (witness, point) pairs within radius from per-axis windows, exactly the
    dense table's entries below radius. The hits group into distinct
    non-empty stars; each point gets the bitmask of the stars it lies in and
    a neighbour mask, the union of those stars. Simplices then grow level by
    level as in build_vr's enumeration, a coface s + (u,) being kept while the
    AND of the star masks stays non-zero, so every dimension comes out
    lexicographically sorted and free of duplicates.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    witness, point = witness_hits(subset, radius, per_axis)
    order = np.lexsort((point, witness))
    points = point[order].tolist()
    cuts = [0, *(np.flatnonzero(np.diff(witness[order])) + 1).tolist(), len(points)]
    stars = {tuple(points[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo}
    member = [0] * subset.size  # bit s: the point lies in star s
    nbr = [0] * subset.size  # the points sharing a star with it, itself included
    for s, star in enumerate(stars):
        span = 0
        for j in star:
            span |= 1 << j
        for j in star:
            member[j] |= 1 << s
            nbr[j] |= span
    level = [((j,), mask, nbr[j] >> (j + 1) << (j + 1))
             for j, mask in enumerate(member) if mask]
    simplices = {0: [s for s, _, _ in level]}
    for k in range(1, max_dim + 1):
        found = []
        next_level = []
        last = k == max_dim
        for s, mask, cand in level:
            while cand:
                low = cand & -cand
                cand ^= low
                u = low.bit_length() - 1
                if shared := mask & member[u]:
                    t = s + (u,)
                    found.append(t)
                    if not last and (common := cand & nbr[u]):
                        next_level.append((t, shared, common))
        simplices[k] = found
        level = next_level
    return SimplicialComplex._closed(subset.size, radius, max_dim, simplices)


@dataclass(frozen=True)
class VertexMap:
    """A vertex assignment between two complexes (not necessarily simplicial);
    image is stored as a tuple of Python ints, and non-integers are refused."""

    source: SimplicialComplex = field(compare=False)
    target: SimplicialComplex = field(compare=False)
    image: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "image", tuple(map(index, self.image)))
        except TypeError:
            raise ValueError("image entries must be integers") from None
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
        vertex_image = range(small.vertex_count)
    return VertexMap(small, big, vertex_image)


def compose_maps(outer: VertexMap, inner: VertexMap) -> VertexMap:
    if not _same_complex(inner.target, outer.source):
        raise ValueError("maps are not composable: inner target differs from outer source")
    image = tuple(outer.image[v] for v in inner.image)
    return VertexMap(inner.source, outer.target, image)


def _flag_pair(f: VertexMap, k: int) -> bool:
    """Whether f joins two flag complexes and the target's cap cannot bind:
    the images of k source simplices together span at most
    min(k (source max_dim + 1), target vertices) <= target max_dim + 1
    vertices, so their edges alone decide membership."""
    s, t = f.source, f.target
    return (isinstance(s, _FlagComplex) and isinstance(t, _FlagComplex)
            and min(k * (s.max_dim + 1), t.vertex_count) <= t.max_dim + 1)


def _edges_land_on_cliques(f: VertexMap, g: VertexMap) -> bool:
    """Whether, for every source vertex a and every neighbour b > a of it,
    f(a), g(a), f(b) and g(b) lie in the closed target neighbourhoods of both
    f(a) and g(a). A source of max_dim 0 has no edges."""
    fi, gi, nbr = f.image, g.image, f.target._nbr
    edges = f.source.max_dim > 0
    for a, above in enumerate(f.source._nbr):
        u, v = fi[a], gi[a]
        spread = 1 << u | 1 << v
        above = above >> (a + 1) << (a + 1) if edges else 0
        while above:
            low = above & -above
            above ^= low
            b = low.bit_length() - 1
            spread |= 1 << fi[b] | 1 << gi[b]
        if spread & ~((nbr[u] | 1 << u) & (nbr[v] | 1 << v)):
            return False
    return True


def check_simplicial(f: VertexMap) -> bool:
    """True iff every simplex image (after collapsing repeats) is a target simplex.

    Between two flag complexes where the target's cap cannot bind, the images
    are cliques iff every source edge {a, b} has f(b) equal or adjacent to
    f(a), and only that is tested; otherwise every source simplex is
    enumerated and its image queried.
    """
    if _flag_pair(f, 1):
        return _edges_land_on_cliques(f, f)
    for d in range(f.source.max_dim + 1):
        for s in f.source.simplices[d]:
            if not f.target.has_simplex(f.apply(s)):
                return False
    return True


def check_contiguous(f: VertexMap, g: VertexMap) -> bool:
    """True iff f(sigma) union g(sigma) spans a target simplex for every sigma.

    Contiguous simplicial maps are homotopic, hence induce the same map on
    homology. Between two flag complexes where the target's cap cannot bind
    on a union, the unions are cliques iff for every source vertex a, f(a),
    g(a) and f(b), g(b) for its neighbours b are equal or adjacent to both
    f(a) and g(a), and only that is tested; otherwise every source simplex is
    enumerated and its union queried.
    """
    if not (_same_complex(f.source, g.source) and _same_complex(f.target, g.target)):
        raise ValueError("mismatched complexes")
    if _flag_pair(f, 2):
        return _edges_land_on_cliques(f, g)
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
    sub = space.submatrix(idx)
    target = build_vr(sub, r + source.scale,
                      source.max_dim if max_dim is None else max_dim)
    return VertexMap(source, target, cols.argmin(axis=1))
