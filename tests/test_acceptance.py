"""Acceptance gate: nine release criteria, one test each.

Run `pytest tests/test_acceptance.py -v` for a single pass/fail line per
criterion. Tolerances are pinned in each test body; wall-clock limits use
time.perf_counter around the measured work only.

Criterion 1 note: the sandwich is checked unconditionally on all 50 sampled
pairs. A filter "covering radius < pi/6" would keep nothing: six or fewer
points on the unit-circumference-2*pi circle always leave a gap of at least
pi/3, so the covering radius is at least pi/6 and random pairs never beat it.
Checking every pair is strictly stronger than checking the empty filtered set.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from ghbound import (FiniteMetricSpace, FiniteSubset, as_subsets,
                     betti_numbers, build_instance, circle, circle_bound,
                     circle_bound_pair, cli, convexity_bound,
                     convexity_bound_pair, covering_radius_circle, euclidean,
                     equispaced_circle, fillrad_bound, fillrad_bound_pair,
                     gh_exact, hausdorff_subsets, jung_bound_pair,
                     jung_constant, uniform_points, verify_instance)

from oracles import (gh_exhaustive, min_enclosing_ball_brute, naive_betti,
                     random_complex)

TOL = 1e-9
KAPPA_GRID = [-10.0, -2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 10.0,
              100.0, 1e3, 1e4, 1e5, 1e6]


def _sample_circle_pairs(count, seed, max_points=6):
    """Seeded random subset pairs of the unit-speed circle, relabeled so the
    second subset is the better-covering one (dh_y <= dh_x)."""
    rng = np.random.default_rng(seed)
    ambient = circle()
    pairs = []
    for _ in range(count):
        nx = int(rng.integers(2, max_points + 1))
        ny = int(rng.integers(2, max_points + 1))
        sub_x = uniform_points(ambient, nx, seed=int(rng.integers(1 << 63)))
        sub_y = uniform_points(ambient, ny, seed=int(rng.integers(1 << 63)))
        if covering_radius_circle(sub_y) > covering_radius_circle(sub_x):
            sub_x, sub_y = sub_y, sub_x
        pairs.append((sub_x, sub_y))
    return pairs


def test_criterion_1_circle_pair_sandwich():
    started = time.perf_counter()
    pairs = _sample_circle_pairs(50, seed=20260817)
    checked = 0
    for sub_x, sub_y in pairs:
        dh_x = covering_radius_circle(sub_x)
        dh_y = covering_radius_circle(sub_y)
        bound = circle_bound_pair(dh_x, dh_y).lower_bound
        result = gh_exact(sub_x.to_metric_space(), sub_y.to_metric_space())
        assert result.proven_optimal
        dh_xy = hausdorff_subsets(sub_x, sub_y)
        assert bound <= result.value + TOL
        assert result.value <= dh_xy + TOL
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 50
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 50/50 sandwiches hold in {elapsed:.2f}s")


def test_criterion_2_certified_equality_regime():
    for n in range(7, 25):
        sub = equispaced_circle(circle(), n)
        dh = covering_radius_circle(sub)
        assert abs(dh - math.pi / n) <= 1e-12
        report = circle_bound(dh)
        assert report.lower_bound == dh  # the min picks the Hausdorff term
        assert abs(report.lower_bound - math.pi / n) <= 1e-12
        assert report.flags["certified_equality"] is True
        assert not report.vacuous
    print("criterion 2 PASS: equispaced n in 7..24 certified at pi/n")


def test_criterion_3_ratio_family_values():
    started = time.perf_counter()
    for n in (2, 3, 4, 9, 100):
        report = verify_instance(build_instance(n))
        assert report.hausdorff == float(n)
        assert report.gh_upper == math.sqrt(n)
        assert report.ratio_upper <= 1 / math.sqrt(n) + 1e-15
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 3 PASS: exact values for n in {{2,3,4,9,100}} in {elapsed:.3f}s")


def test_criterion_4_jung_suite():
    # (a) flat 1-dimensional constant is exactly 1
    assert jung_constant(1, 0.0) == 1.0
    # (b) envelope over the dimension/curvature grid
    floor = math.sqrt(2) / math.pi
    for n in range(1, 11):
        for kappa in KAPPA_GRID:
            alpha = jung_constant(n, kappa)
            assert floor <= alpha <= 1.0
    # (c) Jung's theorem at kappa = 0: circumradius <= diam / (2 alpha), with
    # the circumradius from support-subset enumeration
    rng = np.random.default_rng(0x1CE)
    for dim in (2, 3):
        alpha = jung_constant(dim, 0.0)
        for _ in range(500):
            m = int(rng.integers(2, 13))
            pts = rng.normal(size=(m, dim)) * float(rng.uniform(0.2, 5.0))
            diam = FiniteSubset(euclidean(dim), pts).to_metric_space().dist.max()
            assert min_enclosing_ball_brute(pts) <= diam / (2 * alpha) + TOL
    # (d) the equilateral triangle of side 1 saturates the planar bound
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    radius = min_enclosing_ball_brute(tri)
    assert abs(radius - 1 / math.sqrt(3)) <= TOL
    assert abs(radius - 1.0 / (2 * jung_constant(2, 0.0))) <= TOL
    print("criterion 4 PASS: constants, envelope, 1000 Jung checks, saturation")


def test_criterion_5_filling_radius_estimate(tmp_path):
    config = {"manifold": {"kind": "circle"},
              "sampler": {"kind": "equispaced"},
              "count": 60,
              "max_dim": 2,
              "scale_grid": {"start": 0.15, "stop": 2.49, "steps": 118}}
    cfg_path = tmp_path / "fillrad.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "fillrad_out.json"
    started = time.perf_counter()
    code = cli.main(["fillrad-estimate", "--config", str(cfg_path),
                     "--out", str(out_path)])
    elapsed = time.perf_counter() - started
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["censored"] is False
    estimate = payload["estimate"]
    assert math.pi / 3 - 0.03 <= estimate <= math.pi / 3 + 0.03
    assert elapsed < 120.0
    print(f"criterion 5 PASS: estimate {estimate:.4f} vs pi/3 "
          f"{math.pi / 3:.4f} in {elapsed:.1f}s")


def test_criterion_6_homology_oracle_equivalence():
    rng = np.random.default_rng(0xBE771)
    for trial in range(200):
        komplex = random_complex(rng)
        assert sum(len(v) for v in komplex.simplices.values()) <= 200
        up_to = komplex.max_dim - 1
        got = betti_numbers(komplex, up_to)
        want = tuple(naive_betti(komplex, up_to))
        assert got == want
    print("criterion 6 PASS: 200/200 random complexes match dense elimination")


def test_criterion_7_gh_oracle_equivalence():
    rng = np.random.default_rng(0x61AB)
    for trial in range(200):
        x = _random_space(rng)
        y = _random_space(rng)
        forward = gh_exact(x, y)
        assert forward.proven_optimal
        assert forward.value == gh_exhaustive(x.dist, y.dist)
        assert gh_exact(y, x).value == forward.value
        assert gh_exact(x, x).value == 0.0
        assert gh_exact(y, y).value == 0.0
    print("criterion 7 PASS: 200/200 pairs match exhaustive enumeration")


def _random_space(rng, max_points=4):
    m = int(rng.integers(1, max_points + 1))
    pts = rng.random((m, 2)) * 2.0
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = np.triu(d, 1)
    return FiniteMetricSpace(d + d.T)


def test_criterion_8_lemma_checks(tmp_path):
    out_path = tmp_path / "lemma.json"
    code = cli.main(["lemma-check", "--trials", "100", "--seed", "2026",
                     "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_passed"] is True
    assert payload["trials"] == 100
    assert all(v == 100 for v in payload["passes"].values())
    assert len(payload["passes"]) == 5
    print("criterion 8 PASS: lemma checks 100/100 on all five properties")


def test_criterion_9_no_bound_exceeds_hausdorff():
    ambient = circle(fill_rad=math.pi / 3)
    rho = ambient.rho
    violations = []

    def check(tag, lower, upper):
        if lower > upper + TOL:
            violations.append((tag, lower, upper))

    # the criterion-1 pair experiments, all pair bounds
    for i, (sub_x, sub_y) in enumerate(_sample_circle_pairs(50, seed=20260817)):
        dh_x = covering_radius_circle(sub_x)
        dh_y = covering_radius_circle(sub_y)
        dh_xy = hausdorff_subsets(sub_x, sub_y)
        check(f"pair{i}/convexity", convexity_bound_pair(dh_x, rho, dh_y).lower_bound, dh_xy)
        check(f"pair{i}/circle", circle_bound_pair(dh_x, dh_y).lower_bound, dh_xy)
        check(f"pair{i}/fillrad",
              fillrad_bound_pair(dh_x, rho, math.pi / 3, dh_y).lower_bound, dh_xy)
        check(f"pair{i}/jung",
              jung_bound_pair(dh_x, rho, 0.0, 1, dh_y).lower_bound, dh_xy)

    # single-subset bounds against the distance to the whole circle
    for n in list(range(2, 25)) + [48, 96]:
        sub = equispaced_circle(circle(), n)
        dh = covering_radius_circle(sub)
        check(f"equispaced{n}/convexity", convexity_bound(dh, rho).lower_bound, dh)
        check(f"equispaced{n}/circle", circle_bound(dh).lower_bound, dh)
        check(f"equispaced{n}/fillrad",
              fillrad_bound(dh, rho, math.pi / 3).lower_bound, dh)
        check(f"equispaced{n}/jung",
              jung_bound_pair(dh, rho, 0.0, 1, 0.0).lower_bound, dh)

    # ratio family: the isometry upper bound stays below the raw Hausdorff
    for n in (2, 3, 4, 9, 100):
        report = verify_instance(build_instance(n))
        check(f"ratio{n}", report.gh_upper, report.hausdorff)
        if n <= 4:
            sub, full = as_subsets(build_instance(n))
            gh = gh_exact(sub.to_metric_space(), full.to_metric_space())
            check(f"ratio{n}/exact", gh.value, hausdorff_subsets(sub, full))

    assert not violations, f"lower bound exceeded d_H upper bound: {violations[:5]}"
    print("criterion 9 PASS: no lower bound exceeded its Hausdorff upper bound")
