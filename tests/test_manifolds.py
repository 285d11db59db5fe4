"""Metric core: geodesics, metric-space validation, Hausdorff machinery.

Oracle notes
------------
* metric axioms: symmetry must be exact, triangle inequality within 1e-9,
  checked vectorized on 10^5 random triples per manifold kind.
* covering_radius_circle: cross-checked against a dense grid probe of
  sup_theta dist(theta, X) and against hausdorff_subsets with a fine sample.
* covering_radius_witness: one-sided, never above the exact value on the
  circle; exact for mid-cell witness grids on the torus.
* witness grids: covering_radius_witness, witness_hits and
  build_cech_witness equal, with ==, the dense oracles
  (oracles.witness_covering_radius, the entries of oracles.witness_table
  below the radius, and oracles.witness_cech: a materialized grid, its
  witness x point table, every subset of every star, sorted) on
  hypothesis-drawn circles and tori of dims 1-4 with unequal sides, 1-20
  witnesses per axis, repeated points with coordinates at 0 and just below
  each side, and radii often equal to a table entry or to a point's
  distance from its nearest witness, so ties meet the strict "<".
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

from ghbound import (FiniteMetricSpace, FiniteSubset, build_cech_witness, circle,
                     covering_radius_circle, covering_radius_witness,
                     cross_distances, euclidean, flat_torus,
                     grid_covering_radius, grid_points, hausdorff_subsets,
                     manifolds)
from ghbound.serialize import metric_space_from_dict

from oracles import (broadcast_cross_distances, circle_arc_dist, witness_cech,
                     witness_covering_radius, witness_table)


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
    # spot-check the matrix kernel against the row-wise distances
    for i in range(50):
        d = cross_distances(manifold, a[i:i + 1], b[i:i + 1])[0, 0]
        assert d == pytest.approx(ab[i], abs=1e-12)


def test_circle_geodesic_values():
    c = circle()
    assert cross_distances(c, [0.0], [math.pi])[0, 0] == pytest.approx(math.pi)
    # wraps the short way around
    assert cross_distances(c, [0.1], [math.tau - 0.1])[0, 0] == pytest.approx(0.2)
    # normalization folds multiples of the circumference
    assert cross_distances(c, [0.0], [math.tau + 0.5])[0, 0] == pytest.approx(0.5)


def test_torus_geodesic_value():
    t = flat_torus([math.tau, math.tau])
    d = cross_distances(t, [[0.0, 0.0]], [[math.tau - 0.3, 0.4]])[0, 0]
    assert d == pytest.approx(math.hypot(0.3, 0.4), abs=1e-12)


def test_pairwise_symmetry_is_exact(rng):
    t = flat_torus([1.0, 3.0])
    pts = _random_points(rng, t, 40)
    d = FiniteSubset(t, pts).to_metric_space().dist
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


@pytest.mark.parametrize("manifold", [circle(), flat_torus([1.0, 1.5]), euclidean(3)])
def test_subset_distances_skip_normalization(rng, monkeypatch, manifold):
    """Subsets hold normalized points, so their distances never normalize again."""
    x = FiniteSubset(manifold, _random_points(rng, manifold, 30))
    y = FiniteSubset(manifold, _random_points(rng, manifold, 20))
    original = manifolds.normalize_points
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(manifolds, "normalize_points", counting)
    metric = x.to_metric_space().dist
    dh = hausdorff_subsets(x, y)
    assert calls == []
    cross = cross_distances(manifold, x.points, y.points)
    again = FiniteSubset(manifold, x.points).to_metric_space().dist
    assert np.array_equal(metric, again)
    assert dh == max(cross.min(axis=1).max(), cross.min(axis=0).max())
    assert len(calls) == 3  # the public functions still normalize their input


@st.composite
def kernel_inputs(draw, scale=1.0, kinds=("circle", "flat_torus", "euclidean"),
                  most=20):
    """A manifold of one of kinds plus two arrays of 1 to most points drawn
    from one pool, so points repeat.

    Circle and torus coordinates include 0 and the largest double below each
    side length; tori have unequal sides. Sides are at most 20 * scale and
    Euclidean coordinates at most 50 * scale in absolute value.
    """
    kind = draw(st.sampled_from(kinds))
    dim = 1 if kind == "circle" else draw(st.integers(1, 4))
    if kind == "euclidean":
        manifold = euclidean(dim)
        axes = [st.floats(-50.0 * scale, 50.0 * scale)] * dim
    else:
        sides = draw(st.lists(st.floats(0.25, 20.0 * scale), min_size=dim,
                              max_size=dim, unique=True))
        manifold = circle(sides[0]) if kind == "circle" else flat_torus(sides)
        axes = [st.one_of(st.floats(0.0, side, exclude_max=True),
                          st.sampled_from([0.0, math.nextafter(side, 0.0)]))
                for side in sides]
    pool = draw(st.lists(st.tuples(*axes), min_size=1, max_size=12))
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=most)
    return manifold, np.array(draw(pick)), np.array(draw(pick))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.integers(1, 64))
def test_cross_distances_bit_identical_to_broadcast(inputs, block):
    manifold, a, b = inputs
    with mock.patch.object(manifolds, "BLOCK", block):
        cross = cross_distances(manifold, a, b)
        pair = FiniteSubset(manifold, a).to_metric_space().dist
    assert np.array_equal(cross, broadcast_cross_distances(manifold, a, b))
    assert np.all(np.diag(pair) == 0.0)
    assert np.array_equal(pair, pair.T)
    expected = broadcast_cross_distances(manifold, a, a)
    upper = np.triu_indices(len(a), 1)
    assert np.array_equal(pair[upper], expected[upper])


@settings(max_examples=200, deadline=None)
@given(kernel_inputs(), st.integers(1, 64))
def test_metric_space_equals_triu_mirror_bit_for_bit(inputs, block):
    # the table is symmetric as computed, so mirroring its upper triangle
    # (what to_metric_space once did) changes no bit
    manifold, a, _ = inputs
    with mock.patch.object(manifolds, "BLOCK", block):
        pair = FiniteSubset(manifold, a).to_metric_space().dist
        upper = np.triu(manifolds.cross_distances(manifold, a, a), 1)
    mirrored = upper + upper.T
    assert pair.tobytes() == mirrored.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.0, 2e5]).flatmap(kernel_inputs), st.data())
def test_builders_hand_over_what_the_public_check_accepts(inputs, data):
    # to_metric_space and submatrix skip the axiom check, so everything they
    # build, up to coordinates of 1e7, must pass it
    manifold, a, _ = inputs
    space = FiniteSubset(manifold, a).to_metric_space()
    FiniteMetricSpace(space.dist)
    idx = data.draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=24))
    sub = space.submatrix(idx)
    assert np.array_equal(sub.dist, space.dist[np.ix_(idx, idx)])
    FiniteMetricSpace(sub.dist)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs(kinds=("circle", "flat_torus"), most=40), st.integers(1, 20),
       st.integers(0, 4), st.data())
def test_witness_grid_equals_the_dense_oracles(inputs, per_axis, max_dim, data):
    manifold, points, _ = inputs
    subset = FiniteSubset(manifold, points)
    assert (covering_radius_witness(subset, per_axis)
            == witness_covering_radius(subset, per_axis))
    table = witness_table(subset, per_axis)
    # a table entry, or a point's distance to its nearest witness, where the
    # strict "<" leaves that point without a vertex; else any radius
    column = table[:, data.draw(st.integers(0, subset.size - 1))]
    tie = data.draw(st.sampled_from([column.min(), column[
        data.draw(st.integers(0, len(table) - 1))]]))
    radius = (tie if tie > 0 and data.draw(st.booleans())
              else data.draw(st.floats(1e-3, max(manifold.params))))
    witness, point = manifolds.witness_hits(subset, radius, per_axis)
    assert set(zip(witness.tolist(), point.tolist())) == set(
        zip(*np.nonzero(table < radius)))
    # keep the oracle's enumeration small: lower max_dim while the distinct
    # stars would give more than 20000 subsets
    sizes = np.count_nonzero(np.unique(table < radius, axis=0), axis=1)
    while max_dim and sum(math.comb(int(n), k + 1) for n in sizes
                          for k in range(max_dim + 1)) > 20_000:
        max_dim -= 1
    got = build_cech_witness(subset, radius, max_dim, per_axis).simplices
    want = witness_cech(subset, radius, max_dim, per_axis)
    assert [list(got[k]) for k in range(max_dim + 1)] == [
        want[k] for k in range(max_dim + 1)]


def test_witness_radius_memory_stays_near_the_axis_tables(rng):
    # a 2-torus grid of 1024 per axis has 1,048,576 witnesses, whose dense
    # table against 40 points alone would take 320 MiB
    sub = FiniteSubset(flat_torus([1.0, 1.0]), rng.uniform(0.0, 1.0, size=(40, 2)))
    tracemalloc.start()
    try:
        covering_radius_witness(sub, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    FiniteMetricSpace(good)
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace(np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace(np.array([[0.0, 1.0], [1.1, 0.0]]))
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(np.array([
            [0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        FiniteMetricSpace(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="at least one"):
        FiniteMetricSpace(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="at least one"):
        FiniteMetricSpace(good).submatrix([])
    with pytest.raises(ValueError, match="square"):
        FiniteMetricSpace(np.zeros((1, 2)))
    # labels live only in the JSON form, which checks them and drops them
    with pytest.raises(ValueError, match="distinct"):
        metric_space_from_dict({"labels": ["a", "a"], "dist": good.tolist()})
    with pytest.raises(ValueError, match="does not match labels"):
        metric_space_from_dict({"labels": ["a", "b", "c"], "dist": good.tolist()})
    # all pairs at infinity: inf - inf is nan, which never exceeds the tolerance
    far = np.full((3, 3), math.inf)
    np.fill_diagonal(far, 0.0)
    with pytest.raises(ValueError, match="distances must be finite"):
        FiniteMetricSpace(far)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="distances must be finite"):
            FiniteMetricSpace(np.array([[0.0, bad], [bad, 0.0]]))


def test_triangle_tolerance_is_forgiving():
    # violation inside the 1e-9 budget must be accepted
    d = np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]])
    FiniteMetricSpace(d)
    # the budget scales with the largest distance, rounding included ...
    FiniteMetricSpace(d * 1e7)
    # ... but a violation of one part in a million still fails at that scale
    d[0, 2] = d[2, 0] = 2.0 + 1e-6
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(d * 1e7)


def test_triangle_check_memory_stays_quadratic(rng):
    # one m x m x m temporary would peak near 207 MiB at m = 300
    m = 300
    torus = flat_torus([1.0, 1.0])
    d = FiniteSubset(torus, rng.uniform(0.0, 1.0, size=(m, 2))).to_metric_space().dist
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # a violation confined to the last rows is still caught
    d[m - 2, m - 1] = d[m - 1, m - 2] = 10.0
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(d)


def test_triangle_check_temporaries_stay_small(rng):
    # row blocks of about BLOCK doubles: one 300 x 300 slice at a time
    m = 300
    torus = flat_torus([1.0, 1.0])
    d = FiniteSubset(torus, rng.uniform(0.0, 1.0, size=(m, 2))).to_metric_space().dist
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
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
    assert ms.size == 2
    assert ms.dist.max() == pytest.approx(0.75)


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
    cross = cross_distances(t, subs[0].points, subs[1].points)
    assert cross.min(axis=1).max() <= ab


def test_hausdorff_requires_shared_manifold():
    a = FiniteSubset(circle(), [[0.0]])
    b = FiniteSubset(circle(5.0), [[0.0]])
    with pytest.raises(ValueError, match="different ambient"):
        hausdorff_subsets(a, b)


def test_witness_radius_is_one_sided(rng):
    c = circle()
    for _ in range(10):
        sub = FiniteSubset(c, rng.random(int(rng.integers(1, 7))) * math.tau)
        exact = covering_radius_circle(sub)
        approx = covering_radius_witness(sub, 512)
        assert approx <= exact + 1e-12
        assert approx >= exact - grid_covering_radius(c, 512) - 1e-12


def test_witness_radius_exact_on_midcell_torus_grid():
    t = flat_torus([math.tau, math.tau])
    sub = grid_points(t, 8)
    est = covering_radius_witness(sub, 32)  # multiple of 8, hits cell centers exactly
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


@pytest.mark.parametrize("make", [
    lambda: circle(math.inf),
    lambda: circle(math.nan),
    lambda: flat_torus([1.0, math.inf]),
], ids=["circle-inf", "circle-nan", "torus-inf"])
def test_size_parameters_must_be_finite(make):
    with pytest.raises(ValueError, match="size parameters must be finite and positive"):
        make()
