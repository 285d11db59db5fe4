"""Closed-form lower bounds for d_GH between subsets of a model manifold.

Each bound is a minimum of a few named terms built from Hausdorff distances to
the ambient manifold and from its geometric constants (convexity radius rho,
curvature bound kappa, dimension n, filling radius). Reports keep the terms,
so a consumer can see which constraint was active. Bounds are never clamped:
a non-positive value is reported as-is and flagged vacuous (true but useless).

The single-subset variants bound d_GH(X, M) itself; the pair variants bound
d_GH(X, Y) when a second subset Y approximates M well. The circle variants are
sharper and come with an equality certificate below the critical density. The
Jung-type variant works in any dimension through the curvature-dependent
packing constant alpha(n, kappa) and the scale cap tau(rho, kappa).

Circumradius is computed exactly: largest-gap arithmetic on the circle, and a
Welzl minimal enclosing ball for Euclidean point sets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .manifolds import CIRCLE, EUCLIDEAN, STRICT_SLACK, FiniteSubset


@dataclass(frozen=True)
class BoundReport:
    """One evaluated lower bound: named terms, their minimum, and status flags."""

    bound_id: str
    terms: tuple[tuple[str, float], ...]
    lower_bound: float
    vacuous: bool
    flags: dict[str, bool] = field(default_factory=dict)
    inputs: dict[str, float] = field(default_factory=dict)


def _report(bound_id: str, terms: list[tuple[str, float]], flags=None, inputs=None) -> BoundReport:
    low = min(v for _, v in terms)
    return BoundReport(bound_id, tuple(terms), low, low <= 0.0,
                       dict(flags or {}), dict(inputs or {}))


def _check_common(dh_xm: float, rho: float, dh_ym: float = 0.0) -> None:
    if dh_xm < 0 or dh_ym < 0:
        raise ValueError("Hausdorff distances must be non-negative")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if math.isinf(rho):
        raise ValueError("requires closed manifold (finite rho)")


def convexity_bound(dh_xm: float, rho: float) -> BoundReport:
    """d_GH(X, M) >= min(d_H(X,M)/2, rho/4) for X inside a closed manifold M.

    The flag hausdorff_term_active marks the regime where the bound certifies
    d_GH >= d_H/2 outright (the convexity cap is not the binding term).
    """
    _check_common(dh_xm, rho)
    terms = [("hausdorff_term", dh_xm / 2.0), ("convexity_term", rho / 4.0)]
    flags = {"hausdorff_term_active": dh_xm / 2.0 <= rho / 4.0}
    return _report("convexity", terms, flags, {"dh_xm": dh_xm, "rho": rho})


def convexity_bound_pair(dh_xm: float, rho: float, dh_ym: float) -> BoundReport:
    """d_GH(X, Y) >= min(d_H(X,M)/2 - d_H(Y,M), rho/6 - 2 d_H(Y,M)/3)."""
    _check_common(dh_xm, rho, dh_ym)
    terms = [("hausdorff_term", dh_xm / 2.0 - dh_ym),
             ("convexity_term", rho / 6.0 - 2.0 * dh_ym / 3.0)]
    return _report("convexity-pair", terms, {},
                   {"dh_xm": dh_xm, "rho": rho, "dh_ym": dh_ym})


def circle_bound(dh_x: float, circumference: float = math.tau) -> BoundReport:
    """d_GH(X, S^1) >= min(d_H(X,S^1), L/12) for a circle of circumference L.

    For the unit-radius circle the cap is pi/6. When d_H(X,S^1) is strictly
    below the cap the bound meets the trivial upper bound d_H(X,S^1), so the
    value is exactly d_GH; this is reported as certified_equality.
    """
    if dh_x < 0:
        raise ValueError("Hausdorff distances must be non-negative")
    cap = circumference / 12.0
    terms = [("hausdorff_term", dh_x), ("cap_term", cap)]
    flags = {"certified_equality": dh_x < cap - STRICT_SLACK}
    return _report("circle", terms, flags,
                   {"dh_x": dh_x, "circumference": circumference})


def circle_bound_pair(dh_x: float, dh_y: float,
                      circumference: float = math.tau) -> BoundReport:
    """d_GH(X, Y) >= min(d_H(X,S^1) - d_H(Y,S^1), L/12 - d_H(Y,S^1)/2).

    Valid for arbitrary circle subsets X and Y; useful when Y is the denser one.
    """
    if dh_x < 0 or dh_y < 0:
        raise ValueError("Hausdorff distances must be non-negative")
    cap = circumference / 12.0
    terms = [("hausdorff_term", dh_x - dh_y), ("cap_term", cap - dh_y / 2.0)]
    return _report("circle-pair", terms, {},
                   {"dh_x": dh_x, "dh_y": dh_y, "circumference": circumference})


def _check_fill_rad(fill_rad: float) -> None:
    if fill_rad is None or not fill_rad > 0:
        raise ValueError("fill_rad must be a positive number")


def fillrad_bound(dh_xm: float, rho: float, fill_rad: float) -> BoundReport:
    """d_GH(X, M) >= min(d_H(X,M)/2, rho/2, FillRad(M)/3)."""
    _check_common(dh_xm, rho)
    _check_fill_rad(fill_rad)
    terms = [("hausdorff_term", dh_xm / 2.0), ("convexity_term", rho / 2.0),
             ("fillrad_term", fill_rad / 3.0)]
    return _report("fillrad", terms, {},
                   {"dh_xm": dh_xm, "rho": rho, "fill_rad": fill_rad})


def fillrad_bound_pair(dh_xm: float, rho: float, fill_rad: float,
                       dh_ym: float) -> BoundReport:
    """Pair form: each fillrad term pays for d_H(Y,M); reduces to fillrad_bound
    at d_H(Y,M) = 0."""
    _check_common(dh_xm, rho, dh_ym)
    _check_fill_rad(fill_rad)
    terms = [("hausdorff_term", dh_xm / 2.0 - dh_ym),
             ("convexity_term", rho / 2.0 - dh_ym),
             ("fillrad_term", fill_rad / 3.0 - 2.0 * dh_ym / 3.0)]
    return _report("fillrad-pair", terms, {},
                   {"dh_xm": dh_xm, "rho": rho, "fill_rad": fill_rad, "dh_ym": dh_ym})


def jung_constant(n: int, kappa: float) -> float:
    """The packing constant alpha(n, kappa) in (sqrt(2)/pi, 1].

    Equals sqrt((n+1)/(2n)) for kappa <= 0; positive curvature multiplies by
    sin(x)/x at x = (pi/2) sqrt(kappa/(kappa+1)). Decreases in both n and kappa,
    equals 1 exactly at (n, kappa) = (1, 0), and stays above sqrt(2)/pi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = math.sqrt((n + 1) / (2 * n))
    if kappa <= 0:
        return base
    x = (math.pi / 2.0) * math.sqrt(kappa / (kappa + 1.0))
    return base * math.sin(x) / x


def scale_cap(rho: float, kappa: float) -> float:
    """tau(rho, kappa): rho for kappa <= 0, else min(rho, pi / (2 sqrt(kappa+1)))."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    if kappa <= 0:
        return rho
    return min(rho, math.pi / (2.0 * math.sqrt(kappa + 1.0)))


def jung_bound_pair(dh_xm: float, rho: float, kappa: float, n: int,
                    dh_ym: float = 0.0) -> BoundReport:
    """Any-dimension bound through the Jung-type constant:

    d_GH(X, Y) >= min(alpha d_H(X,M) - d_H(Y,M),
                      (alpha tau - 2 d_H(Y,M)) / (2 alpha + 2)).
    """
    _check_common(dh_xm, rho, dh_ym)
    alpha = jung_constant(n, kappa)
    tau = scale_cap(rho, kappa)
    terms = [("hausdorff_term", alpha * dh_xm - dh_ym),
             ("geometry_term", (alpha * tau - 2.0 * dh_ym) / (2.0 * alpha + 2.0))]
    return _report("jung-pair", terms, {"alpha_at_least_half": alpha >= 0.5},
                   {"dh_xm": dh_xm, "rho": rho, "kappa": kappa, "n": n,
                    "dh_ym": dh_ym, "alpha": alpha, "tau": tau})


def min_diameter_for_circumradius(radius: float, n: int, kappa: float) -> float:
    """Least possible diameter of a set with circumradius >= radius, curvature kappa.

    Three closed forms by the sign of kappa; for kappa > 0 the radius must not
    exceed pi / (2 sqrt(kappa)). At kappa = 0 this is the sharp Euclidean Jung
    relation diam >= 2 R sqrt((n+1)/(2n)).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    c = math.sqrt((n + 1) / (2 * n))
    if kappa == 0:
        return 2.0 * radius * c
    if kappa < 0:
        s = math.sqrt(-kappa)
        return (2.0 / s) * math.asinh(c * math.sinh(s * radius))
    s = math.sqrt(kappa)
    if radius > math.pi / (2.0 * s) + STRICT_SLACK:
        raise ValueError("circumradius out of range for positive curvature")
    arg = min(1.0, c * math.sin(min(s * radius, math.pi / 2.0)))
    return (2.0 / s) * math.asin(arg)


def jung_radius_upper(diam: float, n: int) -> float:
    """Euclidean Jung upper bound: circumradius <= diam * sqrt(n / (2(n+1)))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return diam * math.sqrt(n / (2.0 * (n + 1)))


def _ball_from_support(support: list[np.ndarray]) -> tuple[np.ndarray | None, float]:
    """Smallest sphere through all support points: (center, squared radius)."""
    if not support:
        return None, -1.0
    base = support[0]
    if len(support) == 1:
        return base, 0.0
    u = np.array([p - base for p in support[1:]])
    rhs = 0.5 * np.einsum("ij,ij->i", u, u)
    # least squares handles affinely dependent supports that transit through Welzl
    coeff, *_ = np.linalg.lstsq(u @ u.T, rhs, rcond=None)
    center = base + coeff @ u
    r2 = float(max(np.sum((p - center) ** 2) for p in support))
    return center, r2


def _inside(p: np.ndarray, ball: tuple[np.ndarray | None, float]) -> bool:
    center, r2 = ball
    return (center is not None
            and float(np.sum((p - center) ** 2)) <= r2 * (1 + 1e-10) + 1e-18)


def _welzl(points: list[np.ndarray], dim: int) -> tuple[np.ndarray | None, float]:
    """Minimal enclosing ball by move-to-front Welzl, with an explicit stack.

    A frame (end, support, i, ball) encloses points[:end] with the support on
    the boundary; scanning from i, the first point outside the ball opens a
    child frame over points[:i] with that point added to the support, and
    moves to the front once the child returns. The stack never holds more
    than dim + 2 frames.
    """
    stack = [[len(points), [], 0, _ball_from_support([])]]
    returned = None
    while stack:
        frame = stack[-1]
        end, support, i, ball = frame
        if returned is not None:
            ball, returned = returned, None
            points.insert(0, points.pop(i))
            i += 1
        if len(support) == dim + 1:
            i = end  # a full support fixes the ball
        while i < end and _inside(points[i], ball):
            i += 1
        if i < end:
            frame[2:] = [i, ball]
            child = support + [points[i]]
            stack.append([i, child, 0, _ball_from_support(child)])
        else:
            stack.pop()
            returned = ball
    return returned


def circumradius(subset: FiniteSubset) -> tuple[float, np.ndarray]:
    """Circumradius and center of the minimal enclosing ball of a finite subset.

    Euclidean subsets use move-to-front Welzl after a deterministic shuffle; circle
    subsets use the exact arc form (the covering arc is the complement of the
    largest angular gap, its midpoint is the center). Other manifolds raise.
    """
    m = subset.manifold
    if m.kind == CIRCLE:
        circumference = m.params[0]
        theta = np.sort(np.unique(subset.points[:, 0]))
        gaps = np.diff(theta)
        wrap = theta[0] + circumference - theta[-1]
        if len(theta) == 1 or wrap >= gaps.max():
            gap = wrap
            arc_start = theta[0]
        else:
            k = int(np.argmax(gaps))
            gap = gaps[k]
            arc_start = theta[k + 1]
        radius = max((circumference - gap) / 2.0, 0.0)
        center = np.array([(arc_start + radius) % circumference])
        return float(radius), center
    if m.kind != EUCLIDEAN:
        raise ValueError("circumradius supports circle and euclidean subsets")
    pts = [row for row in subset.points]
    rng = random.Random(0x5EED11CE)
    rng.shuffle(pts)
    center, r2 = _welzl(pts, m.dim)
    return float(math.sqrt(max(r2, 0.0))), center
