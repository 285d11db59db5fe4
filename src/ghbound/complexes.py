"""Vietoris-Rips and Cech complexes at a single scale, plus simplicial maps.

Complexes here are filtration-free snapshots: one scale, simplices up to an
explicit max_dim. The VR convention is strict, a simplex enters at scale r when
its diameter is < r (ties at exactly r are excluded). Cech complexes use the
ball radius as their scale. On the circle, at radii below a sixth of the
circumference, the Cech nerve coincides with a VR complex at doubled scale and
is built exactly; on circles and tori in general the Cech complex is
approximated from a witness grid (a simplex is present iff some witness sees
all its vertices within the radius).

Built complexes are lazy masks (_MaskComplex): has_simplex tests bitmasks,
each _skeleton call is one fresh clique walk that returns its dimensions in
canonical order and keeps none, and simplex_counts is one walk that stores
no simplex. Only the simplices property, which structural equality and the
enumerating map check read, holds on to what it walked. Explicit complexes,
such as those read from a file, keep only a coface index, built whole by the
pass that checks them: each face maps to the bitmask of the vertices
extending it (the coface half of a simplex tree; Boissonnat and Maria,
Algorithmica 2014). A dimension below max_dim is read back as the next one's
keys, and max_dim as the faces and their bits. Both offer homology _skeleton
(dimensions 0..top), _collapsed (the edge collapse below, or the explicit
complex itself) and _joins, the bitmask of the vertices that extend a face
to a simplex: the AND of its vertices' masks, or the face's index entry, so
homology enumerates no top dimension.

A mask complex's edge collapse (_collapsed) removes dominated edges in one
sweep over the vertices, testing each edge from both ends. With N[.] the
closed neighbourhoods, edge xy is dominated by a vertex w outside it when
N[x] & N[y] <= N[w] and, with star masks,
member[x] & member[y] & ~member[w] == 0: every kept star that holds x and y
holds w. Then every simplex containing x and y is a clique inside N[w] and
lies in a star that holds w, so adding w keeps it a simplex: the link of xy
is a cone with apex w. Removing the open star of an edge whose link is a
cone keeps the homotopy type (Boissonnat and Pritam, "Edge collapse and
persistence of flag complexes", SoCG 2020; Barmak and Minian, "Strong
homotopy types, nerves and collapses", Discrete Comput. Geom. 2012), and it
is one mask edit: the remaining complex is the cliques of the smaller graph
that share a star. The star condition is what makes the rule sound off flag
complexes: the witnessed hollow triangle, stars {0,1}, {1,2} and {0,2},
has every edge dominated in its graph and none in its stars. The collapse
ignores max_dim: homology below max_dim depends only on the
max_dim-skeleton, so it is the homology of the uncapped complex, which the
collapse keeps.

Vertex maps between complexes are tuples of int vertex indices.
check_simplicial and check_contiguous are executable forms of the two standard
lemmas used to turn metric data (a correspondence with small distortion, or a
dense subset) into maps on homology: a correspondence with distortion below r
induces a simplicial map into the VR complex at scale r + eps, and the round
trip is contiguous to the inclusion. A map is simplicial iff it is contiguous
to itself, so one check serves both. Between two flag complexes whose target
cap cannot bind (every image, or every union of two images, fits in a target
simplex), it tests only the source edges against the target's neighbour masks
and enumerates nothing; for explicit or witnessed complexes, or when the cap
binds, it enumerates the source simplices and queries each image.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, islice
from operator import and_, ge, index

import numpy as np

from .manifolds import MAX_TABLE, STRICT_SLACK, FiniteMetricSpace, FiniteSubset, witness_hits


class SimplicialComplex:
    """An abstract simplicial complex on vertices 0..vertex_count-1.

    simplices maps dimension to a lexicographically sorted tuple of strictly
    increasing tuples of int vertices. Every dimension 0..max_dim has an entry
    (possibly empty); max_dim records the construction cap, which may exceed
    the top non-empty dimension. Instances are immutable by convention.

    This constructor, for explicit complexes, checks every simplex in one
    linear pass that fills the coface index, all it keeps: _index[k] maps
    each k-vertex face to the bitmask of the vertices extending it, keyed
    first by the listed (k-1)-simplices in order, so a key past them is a
    missing face and a complex that exists is closed under taking faces.
    """

    def __init__(self, vertex_count: int, scale: float, max_dim: int,
                 simplices) -> None:
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        if max_dim < 0:
            raise ValueError("max_dim must be >= 0")
        self.vertex_count = vertex_count
        self.scale = float(scale)
        self.max_dim = max_dim
        self._index: list[dict[tuple, int]] = []
        entries, top = 0, 0  # face entries and largest vertex so far
        for d in range(max_dim + 1):
            # keyed first by the listed faces, so a key past them is missing
            faces: dict[tuple, int] = defaultdict(int, dict.fromkeys(
                _extensions(self._index[-1]) if d else [()], 0))
            listed, ints = len(faces), (int,) * (d + 1)
            for s in simplices.get(d, ()):
                if tuple(map(type, s)) != ints:  # numpy integers, or not integers
                    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
                           for v in s):
                        raise ValueError(f"simplex {tuple(s)} has a non-integer vertex")
                    s = tuple(map(index, s))
                if len(s) != d + 1:
                    raise ValueError(f"simplex {tuple(s)} filed under dimension {d}")
                if any(map(ge, s, s[1:])):
                    raise ValueError(f"simplex {tuple(s)} is not strictly increasing")
                if s[0] < 0 or s[-1] >= vertex_count:
                    raise ValueError(f"simplex {tuple(s)} has a vertex out of range")
                entries, top = entries + d + 1, max(top, s[-1])
                if entries * (top + 1) > 64 * MAX_TABLE:  # bits the masks may take
                    raise ValueError(f"simplex {tuple(s)} needs a coface index over 2 GiB")
                # combinations drops the last vertex first, then the one before
                for face, u in zip(combinations(s, d), reversed(s)):
                    faces[face] |= 1 << u
            if len(faces) > listed:
                face, mask = next(islice(faces.items(), listed, None))
                coface = tuple(sorted({*face, (mask & -mask).bit_length() - 1}))
                raise ValueError(f"face {face} of {coface} is missing")
            self._index.append(faces)

    @cached_property
    def simplices(self) -> dict[int, tuple]:
        return dict(enumerate(self._skeleton(self.max_dim)))

    def has_simplex(self, simplex) -> bool:
        t = tuple(map(index, simplex))
        return 0 < len(t) <= self.max_dim + 1 and self._holds(t)

    def _holds(self, t: tuple[int, ...]) -> bool:  # 1 <= len(t) <= max_dim + 1
        face, u = t[:-1], t[-1]
        return ((not face or face[-1] < u) and u >= 0
                and self._index[len(face)].get(face, 0) >> u & 1 == 1)

    def simplex_counts(self) -> list[int]:
        top = sum(mask.bit_count() for mask in self._index[-1].values())
        return [*map(len, self._index[1:]), top // (self.max_dim + 1)]

    def _skeleton(self, top: int) -> list[tuple]:
        """Dimensions 0..top: the index keys one dimension up, or its bits."""
        out = [tuple(self._index[k + 1]) for k in range(min(top, self.max_dim - 1) + 1)]
        return out + [tuple(_extensions(self._index[top]))] if top == self.max_dim else out

    def _collapsed(self) -> SimplicialComplex:
        """Homology reads an explicit complex as it is."""
        return self

    def _joins(self, s: tuple[int, ...], first: bool = False) -> int:
        """Bitmask of the vertices u such that s plus u is a simplex of one
        more dimension; with first, only the lowest of them. Read off the
        coface index; s has at most max_dim vertices."""
        mask = self._index[len(s)].get(s, 0)
        return mask & -mask if first else mask


def _extensions(faces: dict[tuple, int]):
    """Each face of a coface index extended by its bits above its last vertex."""
    for face, mask in faces.items():
        mask &= -2 << face[-1] if face else -1
        while mask:
            yield (*face, (mask & -mask).bit_length() - 1)
            mask &= mask - 1


class _MaskComplex(SimplicialComplex):
    """A built complex held as masks: a vertex set of at most max_dim + 1
    vertices is a simplex iff its vertices are pairwise adjacent and, when
    star masks are given, the AND of their star masks is non-zero.

    For i != j, nbr[i] has bit j set iff vertices i and j are adjacent. A
    flag complex's masks are open (bit i of nbr[i] is clear); a witnessed
    complex's are closed, the union of i's stars, so they hold bit i when i
    lies in a star. No reader depends on bit i. member is None
    for a flag complex, where every clique is a simplex; for a witnessed Cech
    complex member[i] has bit s set iff vertex i lies in star s, and a vertex
    with no star is not a vertex. Each _skeleton or simplex_counts call is
    one fresh walk from the empty simplex; has_simplex walks nothing.
    """

    def __init__(self, vertex_count: int, scale: float, max_dim: int,
                 nbr: list[int], member: list[int] | None = None) -> None:
        self.vertex_count = vertex_count
        self.scale = float(scale)
        self.max_dim = max_dim
        self._nbr = nbr
        self._member = member

    def _stars(self, cand: int, shared: int, first: bool = False) -> int:
        """The bits u of cand whose star mask meets shared (every bit in a
        flag complex); with first, only the lowest of them."""
        member = self._member
        if member is None:
            return cand & -cand if first else cand
        out = 0
        while cand:
            low = cand & -cand
            cand ^= low
            if shared & member[low.bit_length() - 1]:
                if first:
                    return low
                out |= low
        return out

    def _joins(self, s: tuple[int, ...], first: bool = False) -> int:
        """Bitmask of the vertices u such that s plus u is a simplex of one
        more dimension; with first, only the lowest of them. (A witnessed
        complex's nbr[v] holds bit v, so s's own bits are cleared.)"""
        nbr, member = self._nbr, self._member
        shared, common, own = -1, -1, 0
        for v in s:
            common &= nbr[v]
            own |= 1 << v
            if member is not None:
                shared &= member[v]
        return self._stars(common & ~own, shared, first)

    def _expand(self, top: int, keep: bool) -> list:
        """Dimensions 0..top, by one clique walk from the empty simplex.

        The walk is in the inductive style of Zomorodian (2010). Each simplex
        carries the AND of its vertices' star masks and the bitmask of its
        common neighbours above its last vertex. Popping the lowest bit u of
        that mask gives the candidate s + (u,), kept while the AND with u's
        star mask stays non-zero; its neighbour mask is what is left of the
        parent's intersected with the neighbours of u. Parents are visited in
        order and their cofaces come out by increasing u, so with keep every
        dimension is emitted as a lexicographically sorted tuple free of
        duplicates: the output is canonical. Without keep only counts come
        out: the walk carries its (star AND, neighbour mask) pairs and no
        simplex, and dimension top (when top > 0) is counted from the masks
        of the one below it, never walked.
        """
        nbr = self._nbr
        member = [-1] * self.vertex_count if self._member is None else self._member
        level = [((), -1, (1 << self.vertex_count) - 1)]
        out: list = []
        t = None  # without keep, no simplex is formed
        for d in range(top + 1):
            last = not keep and d == top - 1  # this level's masks count dimension top
            found, next_level, count, above = [], [], 0, 0
            for s, mask, cand in level:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    u = low.bit_length() - 1
                    if shared := mask & member[u]:
                        if keep:
                            t = s + (u,)
                            found.append(t)
                        else:
                            count += 1
                        if d < top and (common := cand & nbr[u]):
                            if last:
                                above += self._stars(common, shared).bit_count()
                            else:
                                next_level.append((t, shared, common))
            out.append(tuple(found) if keep else count)
            if last:
                out.append(above)
                break
            level = next_level
        return out

    def _skeleton(self, top: int) -> list[tuple]:
        """Dimensions 0..top, enumerated afresh."""
        return self._expand(top, keep=True)

    def simplex_counts(self) -> list[int]:
        """Counts per dimension, by a walk that stores no simplex."""
        return self._expand(self.max_dim, keep=False)

    def _collapsed(self) -> _MaskComplex:
        """This complex with dominated edges removed (see the module
        docstring), in the same open or closed mask form. One sweep visits
        the vertices lowest first and tests each remaining edge at the
        visited vertex against the current masks, so an edge kept at one
        end's visit is tested again at the other's. Nothing is revisited, so
        collapsing the result again may remove more."""
        nbr, member = list(self._nbr), self._member
        for x in range(self.vertex_count):
            ys = nbr[x] & ~(1 << x)
            while ys:
                by = ys & -ys
                ys ^= by
                y = by.bit_length() - 1
                common = (nbr[x] | 1 << x) & (nbr[y] | by)
                ws = common & ~(1 << x | by)
                while ws:
                    bw = ws & -ws
                    ws ^= bw
                    w = bw.bit_length() - 1
                    if not (common & ~(nbr[w] | bw) or member is not None
                            and member[x] & member[y] & ~member[w]):
                        nbr[x] ^= by
                        nbr[y] ^= 1 << x
                        break
        return _MaskComplex(self.vertex_count, self.scale, self.max_dim, nbr, member)

    def _holds(self, t: tuple[int, ...]) -> bool:
        nbr = self._nbr
        prev, seen = -1, 0  # seen: the bits of the vertices before v
        for v in t:
            if not prev < v < self.vertex_count or seen & ~nbr[v]:
                return False
            prev = v
            seen |= 1 << v
        if self._member is None:
            return True
        shared = -1
        for v in t:
            shared &= self._member[v]
        return shared != 0


def _same_complex(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Structural equality: same vertex set and same simplices."""
    if a is b:
        return True
    return a.vertex_count == b.vertex_count and a.simplices == b.simplices


def build_vr(space: FiniteMetricSpace, scale: float, max_dim: int) -> SimplicialComplex:
    """Vietoris-Rips complex at one scale: simplices are sets of diameter < scale.

    VR complexes are flag complexes, so the result is a _MaskComplex of the
    proximity graph alone, one neighbour bitmask per vertex packed from the
    rows of dist < scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    return _MaskComplex(space.size, scale, max_dim, _neighbour_masks(space.dist, scale))


def _neighbour_masks(dist: np.ndarray, scale: float) -> list[int]:
    """Bit j of entry i is set iff i != j and dist[i, j] < scale."""
    packed = np.packbits(dist < scale, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") & ~(1 << i)
            for i in range(len(dist))]


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
    return _MaskComplex(vr.vertex_count, radius, max_dim, vr._nbr)


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
    non-empty stars, of which only the maximal ones are kept: a vertex set
    lies in some star iff it lies in a maximal one. Each point gets the
    bitmask of the kept stars it lies in and a neighbour mask, the union of
    those stars, for a _MaskComplex.
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
    member = [0] * subset.size  # bit s: the point lies in kept star s
    nbr = [0] * subset.size  # the points sharing a star with it, itself included
    kept = 0
    # largest first, so a star that no kept star holds lies in no other star
    for star in sorted(stars, key=len, reverse=True):
        if reduce(and_, [member[j] for j in star]):
            continue
        span = 0
        for j in star:
            span |= 1 << j
        for j in star:
            member[j] |= 1 << kept
            nbr[j] |= span
        kept += 1
    return _MaskComplex(subset.size, radius, max_dim, nbr, member)


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
    vertices, so their edges alone decide membership. A complex with star
    masks is not a flag complex: a clique of it need not be a simplex, and a
    vertex in no star is not a vertex."""
    s, t = f.source, f.target
    return (isinstance(s, _MaskComplex) and s._member is None
            and isinstance(t, _MaskComplex) and t._member is None
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
    """True iff every simplex image (after collapsing repeats) is a target
    simplex, that is iff f is contiguous to itself."""
    return check_contiguous(f, f)


def check_contiguous(f: VertexMap, g: VertexMap) -> bool:
    """True iff f(sigma) union g(sigma) spans a target simplex for every sigma.

    Contiguous simplicial maps are homotopic, hence induce the same map on
    homology. Between two flag complexes where the target's cap cannot bind
    on a union (on one image when f is g), the unions are cliques iff for
    every source vertex a, f(a), g(a) and f(b), g(b) for its neighbours b are
    equal or adjacent to both f(a) and g(a), and only that is tested;
    otherwise every source simplex is enumerated and its union queried.
    """
    if not (_same_complex(f.source, g.source) and _same_complex(f.target, g.target)):
        raise ValueError("mismatched complexes")
    if _flag_pair(f, 1 if f is g else 2):
        return _edges_land_on_cliques(f, g)
    fi, gi = f.image, g.image
    for d in range(f.source.max_dim + 1):
        for s in f.source.simplices[d]:
            if not f.target.has_simplex(sorted({fi[v] for v in s} | {gi[v] for v in s})):
                return False
    return True


def induced_vr_map(corr, space_x: FiniteMetricSpace, space_y: FiniteMetricSpace,
                   source: SimplicialComplex, r: float,
                   max_dim: int | None = None, *, dis: float) -> VertexMap:
    """Simplicial map VR(Y; eps) -> VR(X; r + eps) induced by a correspondence.

    corr relates points of X to points of Y, and dis is its distortion, which
    the caller vouches for (gh_exact's 2 * value is exactly it); dis < r is
    required. Each Y-vertex is sent to the X-partner of its lexicographically
    first related pair; for a simplex of diameter < eps the image has diameter
    < r + eps, so the assignment is simplicial into the VR complex of X at
    scale r + eps (built here, with max_dim defaulting to the source's).
    """
    if source.vertex_count != space_y.size:
        raise ValueError("source complex does not match the Y metric space")
    if not (dis < r - STRICT_SLACK):
        raise ValueError("distortion exceeds scale")
    partner = {}
    for i, j in corr.pairs:  # pairs are sorted, first hit is the lexicographic min
        if j not in partner:
            partner[j] = i
    try:
        image = tuple(partner[j] for j in range(space_y.size))
    except KeyError:
        raise ValueError("correspondence must cover every point of Y") from None
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
