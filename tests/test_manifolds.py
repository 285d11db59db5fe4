"""Metric core: geodesics, metric-space validation, Hausdorff machinery.

Oracle notes
------------
* metric axioms: symmetry must be exact, triangle inequality within 1e-9,
  checked vectorized on 10^5 random triples per manifold kind.
* covering_radius_circle: cross-checked against a dense grid probe of
  sup_theta dist(theta, X) and against hausdorff_subsets with a fine sample.
* covering_radius_witness: one-sided, never above the exact value on the
  circle; exact for mid-cell witness grids on the torus.
* cross_distances: bit-identical to oracles.broadcast_cross_distances (one
  broadcast difference array, summed over its last axis) on random inputs,
  with row blocks small enough that the inputs span several.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghbound import (FiniteMetricSpace, FiniteSubset, circle,
                     covering_radius_circle, covering_radius_witness,
                     cross_distances, diameter, directed_hausdorff, euclidean,
                     flat_torus, geodesic_distance, grid_covering_radius,
                     grid_points, hausdorff_subsets, manifolds,
                     pairwise_distances)

from oracles import broadcast_cross_distances, circle_arc_dist


@pytest.fixture
def rng():
    return np.random.default_rng(0xD15C0)


def _random_points(rng, manifold, count):
    if manifold.kind == "euclidean":
        return rng.normal(size=(count, manifold.dim))
    return rng.random((count, manifold.dim)) * np.asarray(manifold.params) * 1.7


@pytest.mark.parametrize("manifold", [
    circle(), circle(5.0), flat_torus([math.tau, math.tau]),
    flat_torus([1.0, 2.0, 3.0]), euclidean(2), euclidean(5),
], ids=["circle", "circle5", "torus2", "torus3", "eucl2", "eucl5"])
def test_metric_axioms_bulk(rng, manifold):
    n = 100_000
    a = _random_points(rng, manifold, n)
    b = _random_points(rng, manifold, n)
    c = _random_points(rng, manifold, n)

    # vectorized: d(a_i, b_i) for all i at once through the per-axis formulas
    def dist_rows(p, q):
        delta = p - q
        if manifold.kind == "euclidean":
            return np.sqrt((delta ** 2).sum(axis=1))
        sides = np.asarray(manifold.params)
        p = np.mod(p, sides)
        q = np.mod(q, sides)
        d = np.abs(p - q)
        d = np.minimum(d, sides - d)
        if manifold.kind == "circle":
            return d[:, 0]
        return np.sqrt((d ** 2).sum(axis=1))

    ab, ba = dist_rows(a, b), dist_rows(b, a)
    bc, ac = dist_rows(b, c), dist_rows(a, c)
    assert np.array_equal(ab, ba)
    assert np.all(ab >= 0)
    assert np.all(ac <= ab + bc + 1e-9)
    # spot-check the vectorized helper against the scalar entry point
    for i in range(50):
        assert geodesic_distance(manifold, a[i], b[i]) == pytest.approx(ab[i], abs=1e-12)


def test_circle_geodesic_values():
    c = circle()
    assert geodesic_distance(c, [0.0], [math.pi]) == pytest.approx(math.pi)
    # wraps the short way around
    assert geodesic_distance(c, [0.1], [math.tau - 0.1]) == pytest.approx(0.2)
    # normalization folds multiples of the circumference
    assert geodesic_distance(c, [0.0], [math.tau + 0.5]) == pytest.approx(0.5)


def test_torus_geodesic_value():
    t = flat_torus([math.tau, math.tau])
    d = geodesic_distance(t, [0.0, 0.0], [math.tau - 0.3, 0.4])
    assert d == pytest.approx(math.hypot(0.3, 0.4), abs=1e-12)


def test_pairwise_symmetry_is_exact(rng):
    t = flat_torus([1.0, 3.0])
    pts = _random_points(rng, t, 40)
    d = pairwise_distances(t, pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


@st.composite
def kernel_inputs(draw):
    """A manifold plus two point arrays drawn from one pool, so points repeat.

    Circle and torus coordinates include 0 and the largest double below each
    side length; tori have unequal sides.
    """
    kind = draw(st.sampled_from(["circle", "flat_torus", "euclidean"]))
    dim = 1 if kind == "circle" else draw(st.integers(1, 4))
    if kind == "euclidean":
        manifold = euclidean(dim)
        axes = [st.floats(-50.0, 50.0)] * dim
    else:
        sides = draw(st.lists(st.floats(0.25, 20.0), min_size=dim, max_size=dim,
                              unique=True))
        manifold = circle(sides[0]) if kind == "circle" else flat_torus(sides)
        axes = [st.one_of(st.floats(0.0, side, exclude_max=True),
                          st.sampled_from([0.0, math.nextafter(side, 0.0)]))
                for side in sides]
    pool = draw(st.lists(st.tuples(*axes), min_size=1, max_size=12))
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=20)
    return manifold, np.array(draw(pick)), np.array(draw(pick))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.integers(1, 64))
def test_cross_distances_bit_identical_to_broadcast(inputs, block):
    manifold, a, b = inputs
    with mock.patch.object(manifolds, "BLOCK", block):
        cross = cross_distances(manifold, a, b)
        pair = pairwise_distances(manifold, a)
    assert np.array_equal(cross, broadcast_cross_distances(manifold, a, b))
    assert np.all(np.diag(pair) == 0.0)
    assert np.array_equal(pair, pair.T)
    expected = broadcast_cross_distances(manifold, a, a)
    upper = np.triu_indices(len(a), 1)
    assert np.array_equal(pair[upper], expected[upper])


def test_cross_distances_memory_stays_near_output(rng):
    # a (4096 x 300 x 2) broadcast peaks far above the 9.4 MiB result
    torus = flat_torus([1.0, 1.0])
    witnesses = grid_points(torus, 64).points
    pts = rng.uniform(0.0, 1.0, size=(300, 2))
    tracemalloc.start()
    try:
        cross = cross_distances(torus, witnesses, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cross.shape == (4096, 300)
    assert peak < 2 * cross.nbytes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("manifold", [circle(), flat_torus([1.0, 2.0]), euclidean(2)],
                         ids=["circle", "torus", "eucl"])
def test_non_finite_points_are_rejected(manifold, bad):
    pts = np.zeros((3, manifold.dim))
    pts[1, -1] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        FiniteSubset(manifold, pts)
    with pytest.raises(ValueError, match="points must be finite"):
        cross_distances(manifold, np.zeros((2, manifold.dim)), pts)


def test_metric_space_validation_errors():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    FiniteMetricSpace(("a", "b"), good)
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace(("a", "b"), np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.1, 0.0]]))
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(("a", "b", "c"), np.array([
            [0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="distinct"):
        FiniteMetricSpace(("a", "a"), good)
    with pytest.raises(ValueError, match="at least one"):
        FiniteMetricSpace((), np.zeros((0, 0)))
    # all pairs at infinity: inf - inf is nan, which never exceeds the tolerance
    far = np.full((3, 3), math.inf)
    np.fill_diagonal(far, 0.0)
    with pytest.raises(ValueError, match="distances must be finite"):
        FiniteMetricSpace(("a", "b", "c"), far)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="distances must be finite"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, bad], [bad, 0.0]]))


def test_triangle_tolerance_is_forgiving():
    # violation inside the 1e-9 budget must be accepted
    d = np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]])
    FiniteMetricSpace(("a", "b", "c"), d)


def test_triangle_check_memory_stays_quadratic(rng):
    # one m x m x m temporary would peak near 207 MiB at m = 300
    m = 300
    torus = flat_torus([1.0, 1.0])
    d = pairwise_distances(torus, rng.uniform(0.0, 1.0, size=(m, 2)))
    labels = tuple(str(i) for i in range(m))
    tracemalloc.start()
    try:
        FiniteMetricSpace(labels, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # a violation confined to the last rows is still caught
    d[m - 2, m - 1] = d[m - 1, m - 2] = 10.0
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(labels, d)


def test_triangle_check_temporaries_stay_small(rng):
    # row blocks of about BLOCK doubles: one 300 x 300 slice at a time
    m = 300
    torus = flat_torus([1.0, 1.0])
    d = pairwise_distances(torus, rng.uniform(0.0, 1.0, size=(m, 2)))
    labels = tuple(str(i) for i in range(m))
    tracemalloc.start()
    try:
        FiniteMetricSpace(labels, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_subset_normalization_and_labels():
    c = circle()
    s = FiniteSubset(c, [[-0.5], [math.tau + 0.25]])
    assert s.points[0, 0] == pytest.approx(math.tau - 0.5)
    assert s.points[1, 0] == pytest.approx(0.25)
    ms = s.to_metric_space()
    assert ms.labels == ("0", "1")
    assert diameter(ms) == pytest.approx(0.75)


def test_covering_radius_circle_known_values():
    c = circle()
    one = FiniteSubset(c, [[1.0]])
    assert covering_radius_circle(one) == pytest.approx(math.pi)
    n = 6
    eq = FiniteSubset(c, np.arange(n) * math.tau / n)
    assert covering_radius_circle(eq) == pytest.approx(math.pi / n, abs=1e-12)
    two = FiniteSubset(c, [[0.0], [math.pi / 2]])
    # largest gap is the long way around: 3pi/2, radius 3pi/4
    assert covering_radius_circle(two) == pytest.approx(3 * math.pi / 4)


def test_covering_radius_circle_matches_grid_probe(rng):
    c = circle()
    for _ in range(25):
        pts = rng.random(int(rng.integers(1, 9))) * math.tau
        sub = FiniteSubset(c, pts)
        probe = max(circle_arc_dist(t, sub.points[:, 0], math.tau)
                    for t in np.linspace(0, math.tau, 3000, endpoint=False))
        assert covering_radius_circle(sub) == pytest.approx(probe, abs=math.tau / 2000)


def test_covering_radius_monotone_under_refinement(rng):
    c = circle()
    pts = rng.random(5) * math.tau
    small = FiniteSubset(c, pts)
    big = FiniteSubset(c, np.concatenate([pts, rng.random(4) * math.tau]))
    assert covering_radius_circle(big) <= covering_radius_circle(small) + 1e-15


def test_hausdorff_zero_iff_equal_sets(rng):
    c = circle()
    pts = rng.random(6) * math.tau
    a = FiniteSubset(c, pts)
    b = FiniteSubset(c, pts[::-1])  # same set, permuted
    assert hausdorff_subsets(a, b) == 0.0
    shifted = FiniteSubset(c, pts + 0.05)
    assert hausdorff_subsets(a, shifted) > 0.0


def test_hausdorff_metric_properties(rng):
    t = flat_torus([2.0, 2.0])
    subs = [FiniteSubset(t, rng.random((int(rng.integers(2, 7)), 2)) * 2.0)
            for _ in range(3)]
    ab = hausdorff_subsets(subs[0], subs[1])
    ba = hausdorff_subsets(subs[1], subs[0])
    assert ab == ba
    bc = hausdorff_subsets(subs[1], subs[2])
    ac = hausdorff_subsets(subs[0], subs[2])
    assert ac <= ab + bc + 1e-12
    assert directed_hausdorff(subs[0], subs[1]) <= ab


def test_hausdorff_requires_shared_manifold():
    a = FiniteSubset(circle(), [[0.0]])
    b = FiniteSubset(circle(5.0), [[0.0]])
    with pytest.raises(ValueError, match="different ambient"):
        hausdorff_subsets(a, b)


def test_witness_radius_is_one_sided(rng):
    c = circle()
    for _ in range(10):
        sub = FiniteSubset(c, rng.random(int(rng.integers(1, 7))) * math.tau)
        witnesses = grid_points(c, 512)
        exact = covering_radius_circle(sub)
        approx = covering_radius_witness(sub, witnesses)
        assert approx <= exact + 1e-12
        assert approx >= exact - grid_covering_radius(c, 512) - 1e-12


def test_witness_radius_exact_on_midcell_torus_grid():
    t = flat_torus([math.tau, math.tau])
    sub = grid_points(t, 8)
    witnesses = grid_points(t, 32)  # multiple of 8, hits cell centers exactly
    est = covering_radius_witness(sub, witnesses)
    assert est == pytest.approx(grid_covering_radius(t, 8), abs=1e-12)


def test_manifold_defaults_and_validation():
    assert circle().rho == pytest.approx(math.pi / 2)
    assert flat_torus([math.tau, math.tau]).rho == pytest.approx(math.pi / 2)
    assert math.isinf(euclidean(3).rho)
    with pytest.raises(ValueError):
        circle(-1.0)
    with pytest.raises(ValueError):
        flat_torus([])
    with pytest.raises(ValueError, match="shape"):
        FiniteSubset(euclidean(2), [[0.0, 1.0, 2.0]])
