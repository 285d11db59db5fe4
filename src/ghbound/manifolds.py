"""Model manifolds and finite metric data.

Three ambient models are built in, all with closed-form geodesics: the circle of
circumference L (coordinates are arc-length positions mod L), the flat torus with
side lengths L_1..L_n (coordinates mod L_i per axis), and Euclidean space R^n.
Geometric constants that the bounds need (convexity radius rho, curvature bound
kappa, filling radius) are carried on the manifold record; they are user-supplied
constants, never computed here.

Finite data comes in two layers: a FiniteSubset pins points to an ambient
manifold, while a FiniteMetricSpace is just a distance matrix (what the
Gromov-Hausdorff search consumes). Subsets are compared with the Hausdorff
distance inside their common ambient manifold.
The FiniteMetricSpace constructor, the door for outside input, checks every
axiom. Builders of matrices that are metrics by construction (geodesic tables,
principal submatrices) hand them over unchecked through its _closed.

Witness grids (the regular lattices that stand in for a whole circle or torus)
are never formed point by point: _witness_terms holds one per-axis table of
grid coordinate against point, covering_radius_witness sweeps the grid's
product structure in blocks, and witness_hits finds the witness-point pairs
within a radius from per-axis windows; complexes builds the witnessed Cech
complex from star masks over those hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TRIANGLE_TOL = 1e-9  # relative to the largest distance, if that exceeds 1
STRICT_SLACK = 1e-12  # open conditions "x < y" are enforced as x < y - STRICT_SLACK
BLOCK = 2 ** 16  # doubles per temporary of the dense distance kernels (0.5 MiB)
MAX_GRID_POINTS = 2 ** 24  # larger regular grids are refused before any work

CIRCLE = "circle"
FLAT_TORUS = "flat_torus"
EUCLIDEAN = "euclidean"
_KINDS = (CIRCLE, FLAT_TORUS, EUCLIDEAN)


@dataclass(frozen=True)
class AmbientManifold:
    """A model space with closed-form geodesic distance.

    Attributes
    ----------
    kind : {"circle", "flat_torus", "euclidean"}
    dim : intrinsic dimension n (1 for the circle).
    params : circumference for the circle, side lengths for the torus, () for R^n.
    rho : convexity radius (float, may be math.inf for Euclidean space).
    kappa : upper sectional curvature bound (0.0 for all built-in flat models).
    fill_rad : filling radius, or None when unknown.
    """

    kind: str
    dim: int
    params: tuple[float, ...]
    rho: float
    kappa: float
    fill_rad: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == CIRCLE and (self.dim != 1 or len(self.params) != 1):
            raise ValueError("circle has dim 1 and a single circumference parameter")
        if self.kind == FLAT_TORUS and len(self.params) != self.dim:
            raise ValueError("flat torus needs one side length per dimension")
        if self.kind == EUCLIDEAN and self.params:
            raise ValueError("euclidean space takes no parameters")
        if not all(0 < p < math.inf for p in self.params):
            raise ValueError("size parameters must be finite and positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")


def circle(circumference: float = math.tau, *, rho: float | None = None,
           kappa: float = 0.0, fill_rad: float | None = None) -> AmbientManifold:
    """The circle of the given circumference (default 2*pi, i.e. unit radius)."""
    if rho is None:
        rho = circumference / 4.0
    return AmbientManifold(CIRCLE, 1, (float(circumference),), rho, kappa, fill_rad)


def flat_torus(side_lengths, *, rho: float | None = None, kappa: float = 0.0,
               fill_rad: float | None = None) -> AmbientManifold:
    """A flat torus, the product of circles with the given circumferences."""
    sides = tuple(float(s) for s in side_lengths)
    if rho is None:
        if not sides:
            raise ValueError("flat torus needs at least one side length")
        rho = min(sides) / 4.0
    return AmbientManifold(FLAT_TORUS, len(sides), sides, rho, kappa, fill_rad)


def euclidean(dim: int, *, rho: float = math.inf, kappa: float = 0.0,
              fill_rad: float | None = None) -> AmbientManifold:
    return AmbientManifold(EUCLIDEAN, dim, (), rho, kappa, fill_rad)


def normalize_points(manifold: AmbientManifold, points) -> np.ndarray:
    """Coerce to a float64 array of shape (m, dim), reduced to the fundamental domain.

    Circle and torus coordinates are taken mod the side lengths into [0, L_i).
    A 1-d array is treated as m points on a 1-dimensional manifold.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != manifold.dim:
        raise ValueError(f"points must have shape (m, {manifold.dim})")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if manifold.kind in (CIRCLE, FLAT_TORUS):
        sides = np.asarray(manifold.params)
        pts = np.mod(pts, sides)
        pts = np.where(pts == sides, 0.0, pts)  # mod can return L for tiny negatives
    return pts


def cross_distances(manifold: AmbientManifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix between two point arrays, shape (len(a), len(b))."""
    return _distance_table(manifold, normalize_points(manifold, a),
                           normalize_points(manifold, b))


def _distance_table(manifold: AmbientManifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cross_distances on normalized points.

    Row blocks of the result take the squared per-axis terms one axis at a
    time, in axis order, so each temporary holds about BLOCK doubles (one row
    of the result, if a row is longer). Entries that overflow come out as inf,
    silently; callers that need a finite table check for it.
    """
    out = np.empty((len(a), len(b)))
    rows = max(1, BLOCK // max(1, len(b)))
    with np.errstate(over="ignore"):
        for lo in range(0, len(a), rows):
            acc = out[lo:lo + rows]
            for k in range(manifold.dim):
                term = acc if k == 0 else np.empty_like(acc)
                np.subtract.outer(a[lo:lo + rows, k], b[:, k], out=term)
                if manifold.kind != EUCLIDEAN:
                    np.abs(term, out=term)
                    np.minimum(term, manifold.params[k] - term, out=term)
                if manifold.kind == CIRCLE:
                    break
                np.multiply(term, term, out=term)
                if k:
                    acc += term
            if manifold.kind != CIRCLE:
                np.sqrt(acc, out=acc)
    return out


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by a dense distance matrix.

    Construction validates the metric axioms: at least one point, a square
    matrix of finite entries, zero diagonal, exact symmetry, non-negativity,
    and the triangle inequality within TRIANGLE_TOL * max(1, largest
    distance), which absorbs float rounding at any scale.
    """

    dist: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=np.float64)
        object.__setattr__(self, "dist", d)
        if d.size == 0:
            raise ValueError("metric space must contain at least one point")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        if np.any(d != d.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if np.any(d < 0.0):
            raise ValueError("distances must be non-negative")
        # best two-leg route per pair; one leg through k=j costs d[i,j] itself,
        # so violations show up as d exceeding the min by more than the tolerance.
        # Row blocks keep the rows x m x m temporary near BLOCK doubles (one
        # m x m slice, if that is larger).
        rows = max(1, BLOCK // d.size)
        tol = TRIANGLE_TOL * max(1.0, float(d.max()))
        for lo in range(0, len(d), rows):
            block = d[lo:lo + rows]
            two_leg = np.min(block[:, :, None] + d[None, :, :], axis=1)
            if np.any(block - two_leg > tol):
                raise ValueError("triangle inequality violated beyond tolerance")

    @classmethod
    def _closed(cls, dist: np.ndarray) -> FiniteMetricSpace:
        """Wrap, unchecked, a builder's matrix that meets every axiom above."""
        space = cls.__new__(cls)
        object.__setattr__(space, "dist", dist)
        return space

    @property
    def size(self) -> int:
        return len(self.dist)

    def submatrix(self, indices) -> FiniteMetricSpace:
        idx = np.asarray(list(indices), dtype=np.intp)
        if not idx.size:
            raise ValueError("metric space must contain at least one point")
        return FiniteMetricSpace._closed(self.dist[idx[:, None], idx])


@dataclass(frozen=True)
class FiniteSubset:
    """A finite list of points pinned to an ambient manifold.

    Points are normalized into the fundamental domain on construction. Order is
    preserved (it fixes vertex indices downstream); duplicates are
    allowed and are the caller's concern.
    """

    manifold: AmbientManifold
    points: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", normalize_points(self.manifold, self.points))
        if len(self.points) == 0:
            raise ValueError("subset must contain at least one point")

    @property
    def size(self) -> int:
        return len(self.points)

    def to_metric_space(self) -> FiniteMetricSpace:
        """The geodesic distance matrix, in point order, checked only for
        overflow to inf (squares of coordinates from about 1e154 up). Geodesics
        obey the triangle inequality, and the table is exactly symmetric with a
        +0.0 diagonal: IEEE subtraction gives a - b = -(b - a), and the per-axis
        terms of both entries are summed in the same order."""
        d = _distance_table(self.manifold, self.points, self.points)
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
        return FiniteMetricSpace._closed(d)


def hausdorff_subsets(x: FiniteSubset, y: FiniteSubset) -> float:
    """Hausdorff distance between two finite subsets of one ambient manifold."""
    if x.manifold != y.manifold:
        raise ValueError("subsets live on different ambient manifolds")
    cross = _distance_table(x.manifold, x.points, y.points)
    return float(max(cross.min(axis=1).max(), cross.min(axis=0).max()))


def covering_radius_circle(x: FiniteSubset) -> float:
    """Exact covering radius of a circle subset: half the largest angular gap.

    Equals the Hausdorff distance from the subset to the whole circle.
    """
    if x.manifold.kind != CIRCLE:
        raise ValueError("covering_radius_circle needs a circle subset")
    circumference = x.manifold.params[0]
    theta = np.sort(x.points[:, 0])
    gaps = np.diff(theta)
    wrap = theta[0] + circumference - theta[-1]
    largest = max(float(gaps.max()) if len(gaps) else 0.0, float(wrap))
    return largest / 2.0


def grid_axes(manifold: AmbientManifold, per_axis: int) -> list[np.ndarray]:
    """Coordinates of the regular grid with per_axis points along each axis.

    Axis k holds i * (L_k / per_axis) for i < per_axis, which already lie in
    [0, L_k). The grid is the product of the axes; its points are numbered in
    row-major order, the last axis fastest. Grids of more than
    MAX_GRID_POINTS points are refused.
    """
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    if manifold.kind not in (CIRCLE, FLAT_TORUS):
        raise ValueError("grids are built on circle and flat torus manifolds")
    count = per_axis ** manifold.dim
    if count > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {per_axis} points per axis in {manifold.dim} "
                         f"dimensions has {count} points, more than the "
                         f"{MAX_GRID_POINTS} allowed")
    return [np.arange(per_axis) * (side / per_axis) for side in manifold.params]


def _witness_terms(manifold: AmbientManifold, per_axis: int,
                  points: np.ndarray) -> list[np.ndarray]:
    """Per-axis tables of the witness grid grid_axes(manifold, per_axis)
    against normalized points, one (per_axis, len(points)) table per axis.

    Entry [i, j] of table k is the term _distance_table adds for axis k
    between grid coordinate i and point j: the wrapped gap
    min(|g_i - p_jk|, L_k - |g_i - p_jk|), squared on the torus. Summing a
    witness's terms in axis order, then taking sqrt on the torus, gives its
    distance to the point bit for bit as cross_distances does. The tables
    take dim * per_axis * len(points) doubles; the grid is never formed.
    """
    terms = []
    with np.errstate(over="ignore"):
        for k, coords in enumerate(grid_axes(manifold, per_axis)):
            term = np.subtract.outer(coords, points[:, k])
            np.abs(term, out=term)
            np.minimum(term, manifold.params[k] - term, out=term)
            if manifold.kind != CIRCLE:
                np.multiply(term, term, out=term)
            terms.append(term)
    return terms


def witness_hits(x: FiniteSubset, radius: float,
                 per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The (witness, point) index pairs at distance < radius, witnesses of
    grid_points(x.manifold, per_axis) numbered in its row-major order.

    Hits are sought axis by axis among the products of the per-axis windows
    {i : sqrt(term_k[i, j]) < radius} of _witness_terms, and a partial
    product is dropped as soon as the sqrt of its partial sum reaches radius.
    Float addition of non-negative terms is monotone, so neither step loses a
    hit; and sqrt(fl(t * t)) == t in binary64, so the torus window is
    {i : gap_k < radius}. The surviving sums are the dense distances bit for
    bit, so the hits are exactly the entries of the dense witness x point
    table below radius.
    """
    root = (lambda t: t) if x.manifold.kind == CIRCLE else np.sqrt
    point = np.arange(x.size)
    witness = np.zeros(x.size, dtype=np.intp)
    acc = np.zeros(x.size)
    for term in _witness_terms(x.manifold, per_axis, x.points):
        near = root(term) < radius
        # each point's window, as one run of grid indices in point order
        owner, index = np.nonzero(near.T)
        count = np.count_nonzero(near, axis=0)
        start = np.cumsum(count) - count  # where each point's window begins
        reps = count[point]
        first = np.cumsum(reps) - reps  # where each candidate's extensions begin
        pos = np.repeat(start[point] - first, reps) + np.arange(reps.sum())
        i, point = index[pos], owner[pos]
        witness = np.repeat(witness, reps) * per_axis + i
        acc = np.repeat(acc, reps) + term[i, point]
        keep = root(acc) < radius
        point, witness, acc = point[keep], witness[keep], acc[keep]
    return witness, point


def covering_radius_witness(x: FiniteSubset, per_axis: int) -> float:
    """max over the witnesses of grid_points(x.manifold, per_axis) of
    dist(witness, X), a proxy for d_H(X, M).

    One-sided: the true d_H(X, M) is under-approximated, by at most the covering
    radius of the witness set itself in M (any manifold point is within that
    radius of some witness, and the witness is within the returned value of X).
    Not checked at runtime; pick witness grids dense relative to the precision
    you need.

    Witnesses are swept by prefix over all axes but the last: each block adds
    about BLOCK // (per_axis * |X|) prefix sums of _witness_terms to the whole
    last-axis table at once, keeps the min over X of every sum and the max of
    those. On the torus one sqrt is taken at the end; sqrt is correctly rounded
    and monotone, so the value equals the max-min of the dense witness table.
    """
    *head, last = _witness_terms(x.manifold, per_axis, x.points)
    prefixes = per_axis ** len(head)
    rows = max(1, BLOCK // last.size)
    worst = 0.0
    for lo in range(0, prefixes, rows):
        ids = np.arange(lo, min(lo + rows, prefixes))
        acc = np.zeros((len(ids), x.size))
        if head:
            for term, i in zip(head, np.unravel_index(ids, (per_axis,) * len(head))):
                acc += term[i]
        sums = acc[:, None, :] + last
        worst = max(worst, float(sums.min(axis=2).max()))
    return worst if x.manifold.kind == CIRCLE else math.sqrt(worst)
