"""Bound evaluators, Jung constants, circumradius.

Oracle notes
------------
* Welzl circumradius: checked against support-subset enumeration
  (oracles.min_enclosing_ball_brute) on random sets, and against closed forms
  (equilateral triangle, regular simplex, collinear pairs); a 20k-point set
  must finish in seconds without touching the recursion limit.
* jung_constant and min_diameter_for_circumradius: checked against each other
  at kappa = 0 (Jung's theorem), against limits (kappa -> 0+, kappa -> inf),
  and against the documented envelope sqrt(2)/pi < alpha <= 1.
* Bound reports: lower_bound is the min of the terms, vacuous iff <= 0,
  formula spot-checks on hand-computed inputs.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from ghbound import (FiniteSubset, circle, circle_bound, circle_bound_pair,
                     circumradius, convexity_bound, convexity_bound_pair,
                     euclidean, fillrad_bound, fillrad_bound_pair, flat_torus,
                     jung_bound_pair, jung_constant, jung_radius_upper,
                     min_diameter_for_circumradius, scale_cap, subset_diameter)

from oracles import min_enclosing_ball_brute


@pytest.fixture
def rng():
    return np.random.default_rng(0xB0B)


# ---------------------------------------------------------------- constants


def test_alpha_exact_at_one_zero():
    assert jung_constant(1, 0.0) == 1.0


def test_alpha_envelope_and_monotonicity():
    lower = math.sqrt(2) / math.pi
    kappas = [-10.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 5.0, 10.0,
              100.0, 1e3, 1e4, 1e5, 1e6]
    for n in range(1, 11):
        values = [jung_constant(n, k) for k in kappas]
        for v in values:
            assert lower < v <= 1.0
        # non-increasing in kappa at fixed n
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    # non-increasing in n at fixed kappa
    for k in kappas:
        col = [jung_constant(n, k) for n in range(1, 11)]
        assert all(a >= b - 1e-15 for a, b in zip(col, col[1:]))


def test_alpha_continuous_at_zero_curvature():
    for n in (1, 2, 5):
        flat = jung_constant(n, 0.0)
        assert jung_constant(n, 1e-12) == pytest.approx(flat, abs=1e-9)
        assert jung_constant(n, -1e-12) == pytest.approx(flat, abs=1e-9)


def test_alpha_high_curvature_limit():
    # sin(x)/x at x -> pi/2 gives 2/pi; with n -> inf the envelope's infimum
    assert jung_constant(1, 1e12) == pytest.approx(2 / math.pi, rel=1e-5)
    big_n = jung_constant(10_000, 1e12)
    assert big_n == pytest.approx(math.sqrt(2) / math.pi, rel=1e-3)
    assert big_n > math.sqrt(2) / math.pi


def test_scale_cap():
    assert scale_cap(2.0, -3.0) == 2.0
    assert scale_cap(2.0, 0.0) == 2.0
    assert scale_cap(2.0, 3.0) == pytest.approx(math.pi / 4)
    assert scale_cap(0.1, 3.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        scale_cap(0.0, 1.0)


def test_min_diameter_flat_matches_jung():
    for n in (1, 2, 3, 7):
        for radius in (0.1, 1.0, 3.0):
            d = min_diameter_for_circumradius(radius, n, 0.0)
            # Jung: radius <= d * sqrt(n / (2(n+1))), tight exactly here
            assert jung_radius_upper(d, n) == pytest.approx(radius, rel=1e-12)


def test_min_diameter_curvature_branches():
    d_flat = min_diameter_for_circumradius(1.0, 2, 0.0)
    d_neg = min_diameter_for_circumradius(1.0, 2, -1.0)
    d_pos = min_diameter_for_circumradius(1.0, 2, 0.5)
    # negative curvature spreads points (larger diameter needed), positive shrinks
    assert d_neg > d_flat > d_pos
    assert min_diameter_for_circumradius(1.0, 2, 1e-10) == pytest.approx(d_flat, abs=1e-8)
    with pytest.raises(ValueError, match="out of range"):
        min_diameter_for_circumradius(2.0, 2, 4.0)  # cap is pi/4
    # exactly at the cap is allowed
    min_diameter_for_circumradius(math.pi / 4, 2, 4.0)


# ---------------------------------------------------------------- circumradius


def test_circle_circumradius_examples():
    c = circle()
    r, center = circumradius(FiniteSubset(c, [[0.0], [math.pi / 2]]))
    assert r == pytest.approx(math.pi / 4)
    assert center[0] == pytest.approx(math.pi / 4)
    r, _ = circumradius(FiniteSubset(c, [[0.5]]))
    assert r == 0.0
    # antipodal pair: covering arc is half the circle
    r, _ = circumradius(FiniteSubset(c, [[0.0], [math.pi]]))
    assert r == pytest.approx(math.pi / 2)


def test_circle_circumradius_below_pi(rng):
    c = circle()
    for _ in range(20):
        pts = rng.random(int(rng.integers(1, 10))) * math.tau
        r, _ = circumradius(FiniteSubset(c, pts))
        assert 0.0 <= r < math.pi


def test_welzl_equilateral_triangle():
    side = 1.0
    tri = FiniteSubset(euclidean(2), [[0, 0], [side, 0],
                                      [side / 2, side * math.sqrt(3) / 2]])
    r, center = circumradius(tri)
    assert r == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert center == pytest.approx([0.5, 1 / (2 * math.sqrt(3))], abs=1e-9)


def test_welzl_regular_simplex_saturates_jung():
    # the regular n-simplex is the extremal set in Jung's theorem
    for n in (2, 3, 4):
        pts = np.eye(n + 1)  # side sqrt(2) regular simplex in R^{n+1}
        # project into an n-flat: subtract the centroid, keep any orthobasis
        centered = pts - pts.mean(axis=0)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        coords = centered @ vt[:n].T
        sub = FiniteSubset(euclidean(n), coords)
        r, _ = circumradius(sub)
        assert r == pytest.approx(jung_radius_upper(math.sqrt(2), n), abs=1e-9)


def test_welzl_against_support_enumeration(rng):
    for dim in (1, 2, 3):
        for _ in range(40):
            m = int(rng.integers(2, 9))
            pts = rng.normal(size=(m, dim)) * float(rng.uniform(0.5, 3.0))
            sub = FiniteSubset(euclidean(dim), pts)
            r, center = circumradius(sub)
            assert r == pytest.approx(min_enclosing_ball_brute(pts), abs=1e-9)
            # the ball actually encloses
            assert np.max(np.sqrt(((pts - center) ** 2).sum(1))) <= r * (1 + 1e-9) + 1e-12


def test_welzl_large_planar_set_is_fast_and_leaves_recursion_limit(rng):
    limit = sys.getrecursionlimit()
    pts = rng.normal(size=(20_000, 2))
    started = time.perf_counter()
    r, center = circumradius(FiniteSubset(euclidean(2), pts))
    assert time.perf_counter() - started < 5.0
    assert sys.getrecursionlimit() == limit
    dist = np.sqrt(((pts - center) ** 2).sum(1))
    assert dist.max() <= r * (1 + 1e-9)
    # at least two points on the boundary of a minimal ball in the plane
    assert np.count_nonzero(dist >= r * (1 - 1e-9)) >= 2


def test_jung_inequality_random_sets(rng):
    for dim in (1, 2, 3):
        for _ in range(80):
            m = int(rng.integers(2, 11))
            pts = rng.normal(size=(m, dim))
            sub = FiniteSubset(euclidean(dim), pts)
            r, _ = circumradius(sub)
            assert r <= jung_radius_upper(subset_diameter(sub), dim) + 1e-9


def test_circumradius_rejects_torus():
    with pytest.raises(ValueError, match="circle and euclidean"):
        circumradius(FiniteSubset(flat_torus([1.0, 1.0]), [[0.0, 0.0]]))


# ---------------------------------------------------------------- reports


def _assert_report_invariants(report):
    assert report.lower_bound == min(v for _, v in report.terms)
    assert report.vacuous == (report.lower_bound <= 0.0)


def test_convexity_bound_values():
    r = convexity_bound(0.2, math.pi / 2)
    _assert_report_invariants(r)
    assert dict(r.terms) == pytest.approx({"hausdorff_term": 0.1,
                                           "convexity_term": math.pi / 8})
    assert r.lower_bound == pytest.approx(0.1)
    assert r.flags["hausdorff_term_active"]
    capped = convexity_bound(10.0, math.pi / 2)
    assert capped.lower_bound == pytest.approx(math.pi / 8)
    assert not capped.flags["hausdorff_term_active"]


def test_convexity_pair_values():
    r = convexity_bound_pair(0.6, 1.2, 0.1)
    _assert_report_invariants(r)
    assert dict(r.terms) == pytest.approx(
        {"hausdorff_term": 0.2, "convexity_term": 1.2 / 6 - 0.2 / 3})
    vac = convexity_bound_pair(0.1, 1.2, 0.3)
    assert vac.vacuous and vac.lower_bound < 0


def test_circle_bound_certification():
    r = circle_bound(math.pi / 12)
    _assert_report_invariants(r)
    assert r.lower_bound == pytest.approx(math.pi / 12)
    assert r.flags["certified_equality"]
    at_cap = circle_bound(math.pi / 2)
    assert at_cap.lower_bound == pytest.approx(math.pi / 6)
    assert not at_cap.flags["certified_equality"]
    exactly_cap = circle_bound(math.pi / 6)
    assert not exactly_cap.flags["certified_equality"]


def test_circle_pair_values():
    r = circle_bound_pair(math.pi / 12, math.pi / 24)
    _assert_report_invariants(r)
    assert dict(r.terms)["hausdorff_term"] == pytest.approx(math.pi / 24)
    assert dict(r.terms)["cap_term"] == pytest.approx(math.pi / 6 - math.pi / 48)
    # scales with the circumference
    r5 = circle_bound_pair(0.3, 0.1, circumference=5.0)
    assert dict(r5.terms)["cap_term"] == pytest.approx(5 / 12 - 0.05)


def test_fillrad_bounds():
    r = fillrad_bound(0.4, math.pi / 2, math.pi / 3)
    _assert_report_invariants(r)
    assert dict(r.terms) == pytest.approx({
        "hausdorff_term": 0.2, "convexity_term": math.pi / 4,
        "fillrad_term": math.pi / 9})
    pair = fillrad_bound_pair(0.4, math.pi / 2, math.pi / 3, 0.05)
    assert dict(pair.terms)["hausdorff_term"] == pytest.approx(0.15)
    assert dict(pair.terms)["fillrad_term"] == pytest.approx(math.pi / 9 - 0.1 / 3)
    # the single-subset form is the pair form at dh_ym = 0
    single = fillrad_bound_pair(0.4, math.pi / 2, math.pi / 3, 0.0)
    assert [v for _, v in single.terms] == pytest.approx([v for _, v in r.terms])
    with pytest.raises(ValueError, match="fill_rad"):
        fillrad_bound(0.4, math.pi / 2, None)


def test_jung_pair_values():
    r = jung_bound_pair(0.5, math.pi / 2, 0.0, 1, 0.1)
    _assert_report_invariants(r)
    # alpha(1, 0) = 1, tau = rho
    assert dict(r.terms)["hausdorff_term"] == pytest.approx(0.4)
    assert dict(r.terms)["geometry_term"] == pytest.approx((math.pi / 2 - 0.2) / 4)
    assert r.inputs["alpha"] == 1.0
    torus_like = jung_bound_pair(0.5, math.pi / 2, 0.0, 2, 0.0)
    assert torus_like.inputs["alpha"] == pytest.approx(math.sqrt(3) / 2)


def test_bounds_require_finite_rho():
    for call in (lambda: convexity_bound(0.3, math.inf),
                 lambda: convexity_bound_pair(0.3, math.inf, 0.0),
                 lambda: fillrad_bound(0.3, math.inf, 1.0),
                 lambda: jung_bound_pair(0.3, math.inf, 0.0, 2)):
        with pytest.raises(ValueError, match="closed manifold"):
            call()


def test_bounds_reject_negative_inputs():
    with pytest.raises(ValueError):
        convexity_bound(-0.1, 1.0)
    with pytest.raises(ValueError):
        circle_bound(-0.1)
    with pytest.raises(ValueError):
        jung_constant(0, 0.0)
