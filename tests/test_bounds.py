"""Bound evaluators and the Jung constant.

Oracle notes
------------
* jung_constant: checked at kappa = 0 against Jung's theorem, both on random
  sets (circumradius by support-subset enumeration,
  oracles.min_enclosing_ball_brute) and in closed form on the regular
  n-simplex, which saturates it; against limits (kappa -> 0+, kappa -> inf);
  and against the documented envelope sqrt(2)/pi < alpha <= 1.
* Bound reports: lower_bound is the min of the terms, vacuous iff <= 0,
  formula spot-checks on hand-computed inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ghbound import (FiniteSubset, circle_bound, circle_bound_pair,
                     convexity_bound, convexity_bound_pair, euclidean,
                     fillrad_bound, fillrad_bound_pair, jung_bound_pair,
                     jung_constant, scale_cap)

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


def test_jung_constant_regular_simplex_closed_form():
    # the vertices e_0..e_n of R^{n+1} span a regular n-simplex of side
    # sqrt(2); its circumcentre is its centroid, so its circumradius is
    # sqrt(n / (n+1)), and Jung's bound diam / (2 alpha) meets it exactly
    for n in range(1, 8):
        pts = np.eye(n + 1)
        radius = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
        assert radius == pytest.approx(math.sqrt(n / (n + 1)), rel=1e-12)
        assert math.sqrt(2) / (2 * jung_constant(n, 0.0)) == pytest.approx(
            radius, rel=1e-12)
        if n <= 4:
            assert min_enclosing_ball_brute(pts) == pytest.approx(radius, abs=1e-9)


def test_jung_inequality_random_sets(rng):
    for dim in (1, 2, 3):
        for _ in range(80):
            m = int(rng.integers(2, 11))
            pts = rng.normal(size=(m, dim))
            diam = FiniteSubset(euclidean(dim), pts).to_metric_space().dist.max()
            radius = min_enclosing_ball_brute(pts)
            assert radius <= diam / (2 * jung_constant(dim, 0.0)) + 1e-9


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


@pytest.mark.parametrize("circumference", [0.0, -1.0, math.inf, math.nan])
def test_circle_bounds_need_a_finite_positive_circumference(circumference):
    for call in (lambda: circle_bound(0.2, circumference),
                 lambda: circle_bound_pair(0.2, 0.1, circumference)):
        with pytest.raises(ValueError, match="circumference must be finite and positive"):
            call()
