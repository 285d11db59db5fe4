"""Model manifolds and finite metric data.

Three ambient models are built in, all with closed-form geodesics: the circle of
circumference L (coordinates are arc-length positions mod L), the flat torus with
side lengths L_1..L_n (coordinates mod L_i per axis), and Euclidean space R^n.
Geometric constants that the bounds need (convexity radius rho, curvature bound
kappa, filling radius) are carried on the manifold record; they are user-supplied
constants, never computed here.

Finite data comes in two layers: a FiniteSubset pins points to an ambient
manifold, while a FiniteMetricSpace is just a labeled distance matrix (what the
Gromov-Hausdorff search consumes). Subsets are compared with the Hausdorff
distance inside their common ambient manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TRIANGLE_TOL = 1e-9
STRICT_SLACK = 1e-12  # open conditions "x < y" are enforced as x < y - STRICT_SLACK
BLOCK = 2 ** 16  # doubles per temporary of the dense distance kernels (0.5 MiB)

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
        if any(p <= 0 for p in self.params):
            raise ValueError("size parameters must be positive")
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
    of the result, if a row is longer).
    """
    out = np.empty((len(a), len(b)))
    rows = max(1, BLOCK // max(1, len(b)))
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


def geodesic_distance(manifold: AmbientManifold, p, q) -> float:
    """Geodesic distance between two points of the manifold."""
    return float(cross_distances(manifold, [np.ravel(p)], [np.ravel(q)])[0, 0])


def pairwise_distances(manifold: AmbientManifold, points) -> np.ndarray:
    """Symmetric geodesic distance matrix with an exactly zero diagonal."""
    pts = normalize_points(manifold, points)
    d = np.triu(_distance_table(manifold, pts, pts), 1)
    d = d + d.T  # mirror the upper triangle so symmetry is exact
    return d


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by labels and a dense distance matrix.

    Construction validates the metric axioms: finite entries, zero diagonal,
    exact symmetry, non-negativity, and the triangle inequality within
    TRIANGLE_TOL.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=np.float64)
        object.__setattr__(self, "dist", d)
        m = len(self.labels)
        if m == 0:
            raise ValueError("metric space must contain at least one point")
        if d.shape != (m, m):
            raise ValueError("distance matrix shape does not match labels")
        if len(set(self.labels)) != m:
            raise ValueError("labels must be distinct")
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
        rows = max(1, BLOCK // (m * m))
        for lo in range(0, m, rows):
            block = d[lo:lo + rows]
            two_leg = np.min(block[:, :, None] + d[None, :, :], axis=1)
            if np.any(block - two_leg > TRIANGLE_TOL):
                raise ValueError("triangle inequality violated beyond tolerance")

    @property
    def size(self) -> int:
        return len(self.labels)

    def submatrix(self, indices) -> FiniteMetricSpace:
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx)
        return FiniteMetricSpace(labels, self.dist[np.ix_(idx, idx)])


def diameter(space: FiniteMetricSpace) -> float:
    return float(np.max(space.dist))


@dataclass(frozen=True)
class FiniteSubset:
    """A finite list of points pinned to an ambient manifold.

    Points are normalized into the fundamental domain on construction. Order is
    preserved (it fixes labels and vertex indices downstream); duplicates are
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

    def to_metric_space(self, labels=None) -> FiniteMetricSpace:
        if labels is None:
            labels = tuple(str(i) for i in range(self.size))
        return FiniteMetricSpace(tuple(labels), pairwise_distances(self.manifold, self.points))


def _require_same_manifold(x: FiniteSubset, y: FiniteSubset) -> AmbientManifold:
    if x.manifold != y.manifold:
        raise ValueError("subsets live on different ambient manifolds")
    return x.manifold


def directed_hausdorff(x: FiniteSubset, y: FiniteSubset) -> float:
    """sup over x of dist(x, Y), inside the common ambient manifold."""
    m = _require_same_manifold(x, y)
    return float(cross_distances(m, x.points, y.points).min(axis=1).max())


def hausdorff_subsets(x: FiniteSubset, y: FiniteSubset) -> float:
    """Hausdorff distance between two finite subsets of one ambient manifold."""
    m = _require_same_manifold(x, y)
    cross = cross_distances(m, x.points, y.points)
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


def covering_radius_witness(x: FiniteSubset, witnesses: FiniteSubset) -> float:
    """max over witnesses of dist(witness, X), a proxy for d_H(X, M).

    One-sided: the true d_H(X, M) is under-approximated, by at most the covering
    radius of the witness set itself in M (any manifold point is within that
    radius of some witness, and the witness is within the returned value of X).
    Not checked at runtime; pick witness grids dense relative to the precision
    you need.
    """
    return directed_hausdorff(witnesses, x)


def subset_diameter(x: FiniteSubset) -> float:
    return float(pairwise_distances(x.manifold, x.points).max())
