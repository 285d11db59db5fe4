"""Complex builders and simplicial-map machinery.

Oracle notes
------------
* build_vr: compared with a definitional subset scan (every vertex set of
  diameter < scale), as sets on random instances up to 8 points, and in order
  (each dimension equals the sorted scan) on hypothesis-drawn integer metrics
  of 1-13 points with the scale tied to a pairwise distance, and on a fixed
  70-point instance whose neighbour masks cross 64 bits.
* VR membership: has_simplex, a clique test on the neighbour masks, agrees
  with the enumerated simplices on hypothesis-drawn tuples (empty, unsorted,
  repeated, out of range, too long, numpy integers), with masks of up to 80
  bits, and never enumerates. An explicit copy of each complex, looked up in
  its coface index, answers every one of those tuples the same way, and so
  does a fixed explicit complex on each malformed tuple, in Python and numpy
  integers.
* witnessed Cech membership: has_simplex, the clique test and then the AND
  of the star masks, agrees with oracles.witness_cech on hypothesis-drawn
  circle and 2-torus subsets of up to 80 points (tuples as for VR, plus
  unwitnessed vertices), refuses every triangle whose edges no single
  witness covers on seeded torus subsets, and never enumerates.
* map checks: check_simplicial and check_contiguous agree with their
  by-enumeration oracles on pairs of sorted-line VR, explicit and witnessed
  Cech complexes, on both the edge path and the enumerated one.
* build_cech_circle, build_cech_witness: re-wrapping their output with the
  public, checking SimplicialComplex constructor gives it back unchanged, so
  the lists they hand over are sorted, duplicate-free and closed.
* build_cech_circle: compared against an ambient grid probe deciding whether
  the vertex balls share a point, away from decision boundaries.
* nesting: witnessed Cech at radius r always sits inside VR at 2r.
* build_cech_witness keeps only maximal stars: on a 300-point torus complex
  no kept star lies inside another.
* edge collapse: the edges left on VR of the 16 x 16 torus grid at 0.3, on
  VR of 200 equispaced circle points at 66.5 (2 pi / 200) (the cyclic graph
  power C_200^66, which collapses to its 200-edge cycle) and on the 300-point
  witnessed torus complex are pinned counts, and collapsing the result again
  removes nothing.
"""

from __future__ import annotations

import ast
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghbound import (FiniteMetricSpace, FiniteSubset, SimplicialComplex,
                     build_cech_circle, build_cech_witness, build_vr, check_contiguous,
                     check_simplicial, circle, compose_maps, equispaced_circle,
                     flat_torus, gh_exact, inclusion_map, induced_vr_map, subset_projection_map,
                     uniform_points, VertexMap)

from ghbound.complexes import _flag_pair
from ghbound.sampling import grid_points
from oracles import (contiguous_by_enumeration, random_complex,
                     simplicial_by_enumeration, vr_brute, witness_cech, witness_table)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def test_vr_matches_definitional_scan(rng):
    c = circle()
    for _ in range(30):
        sub = uniform_points(c, int(rng.integers(2, 9)), seed=int(rng.integers(1 << 32)))
        space = sub.to_metric_space()
        scale = float(rng.uniform(0.3, 3.5))
        max_dim = int(rng.integers(1, 4))
        k = build_vr(space, scale, max_dim)
        brute = vr_brute(space.dist, scale, max_dim)
        for d in range(max_dim + 1):
            assert set(k.simplices[d]) == brute[d]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_vr_is_the_sorted_definitional_scan(data):
    # arc lengths on a circle of 24 integer steps: an exact metric full of ties
    steps = data.draw(st.lists(st.integers(0, 23), min_size=1, max_size=13))
    m = len(steps)
    gap = np.abs(np.subtract.outer(steps, steps))
    dist = np.minimum(gap, 24 - gap).astype(np.float64)
    space = FiniteMetricSpace(dist)
    ties = sorted(set(dist[np.triu_indices(m, 1)].tolist()) - {0.0}) or [1.0]
    scale = data.draw(st.sampled_from(ties))
    max_dim = data.draw(st.integers(0, m + 1))
    k = build_vr(space, scale, max_dim)
    brute = vr_brute(dist, scale, max_dim)
    assert sorted(k.simplices) == list(range(max_dim + 1))
    for d in range(max_dim + 1):
        assert k.simplices[d] == tuple(sorted(brute[d]))


def test_vr_order_past_64_vertices():
    space = uniform_points(circle(), 70, seed=5).to_metric_space()
    k = build_vr(space, 0.45, 2)
    brute = vr_brute(space.dist, 0.45, 2)
    assert any(s[-1] >= 64 for s in k.simplices[2])
    for d in range(3):
        assert k.simplices[d] == tuple(sorted(brute[d]))


def _rewrapped(k):
    return SimplicialComplex(k.vertex_count, k.scale, k.max_dim, k.simplices)


def test_cech_builders_hand_over_canonical_lists(rng):
    c = circle()
    for _ in range(20):
        sub = uniform_points(c, int(rng.integers(1, 30)), seed=int(rng.integers(1 << 32)))
        space = sub.to_metric_space()
        max_dim = int(rng.integers(0, 4))
        radius = float(rng.uniform(0.05, math.tau / 6 - 0.05))
        for k in (build_cech_circle(space, radius, max_dim, math.tau),
                  build_cech_witness(sub, radius, max_dim, 97)):
            assert _rewrapped(k).simplices == k.simplices


def test_builders_keep_their_argument_checks():
    ring = equispaced_circle(circle(), 5)
    with pytest.raises(ValueError, match="radius"):
        build_cech_witness(ring, 0.0, 1, 4)
    with pytest.raises(ValueError, match="max_dim"):
        build_cech_witness(ring, 0.1, -1, 4)
    with pytest.raises(ValueError, match="per_axis"):
        build_cech_witness(ring, 0.1, 1, 0)
    space = ring.to_metric_space()
    with pytest.raises(ValueError, match="max_dim"):
        build_vr(space, 1.0, -1)


def test_vr_strict_inequality_excludes_ties():
    space = FiniteSubset(circle(), [[0.0], [1.0]]).to_metric_space()
    at_tie = build_vr(space, 1.0, 1)
    assert at_tie.simplices[1] == ()
    above = build_vr(space, 1.0 + 1e-12, 1)
    assert above.simplices[1] == ((0, 1),)


def test_vr_scale_monotone(rng):
    sub = uniform_points(circle(), 7, seed=2024)
    space = sub.to_metric_space()
    small = build_vr(space, 0.8, 2)
    big = build_vr(space, 1.6, 2)
    for d in range(3):
        assert set(small.simplices[d]) <= set(big.simplices[d])


def test_complex_validation():
    with pytest.raises(ValueError, match=r"face \(2,\) of \(1, 2\) is missing"):
        SimplicialComplex(3, 1.0, 1, {0: [(0,), (1,)], 1: [(1, 2)]})
    with pytest.raises(ValueError, match="strictly increasing"):
        SimplicialComplex(3, 1.0, 1, {0: [(0,), (1,)], 1: [(1, 1)]})
    with pytest.raises(ValueError, match="out of range"):
        SimplicialComplex(2, 1.0, 0, {0: [(5,)]})
    # full 2-skeleton on 40 vertices minus one edge that a strided sample of
    # the 10660 positive simplices (every 21st) would never look at
    edges = [e for e in combinations(range(40), 2) if e != (0, 22)]
    with pytest.raises(ValueError, match=r"face \(0, 22\) of .* is missing") as err:
        SimplicialComplex(40, 1.0, 2, {0: [(v,) for v in range(40)], 1: edges,
                                       2: list(combinations(range(40), 3))})
    # the coface named is a listed simplex that has the missing face
    coface = ast.literal_eval(re.search(r"of (.*) is missing", str(err.value))[1])
    assert coface in set(combinations(range(40), 3)) and {0, 22} <= set(coface)
    k = SimplicialComplex(3, 1.0, 2, {0: [(0,), (1,), (2,)], 1: [(0, 1)]})
    assert k.simplex_counts() == [3, 1, 0]
    assert k.max_dim == 2


def test_explicit_membership_refuses_malformed_tuples():
    # the 2-skeleton of the tetrahedron: (0, 1) is listed, and so is every
    # face of (0, 1, 2, 3), which is one vertex past max_dim + 1
    k = SimplicialComplex(4, 1.0, 2, {d: list(combinations(range(4), d + 1))
                                      for d in range(3)})
    answers = {(0, 1): True, (1, 2, 3): True, (1, 0): False, (0, 0): False,
               (0, 1, 1): False, (-1,): False, (4,): False, (): False,
               (0, 1, 2, 3): False}
    for t, held in answers.items():
        assert k.has_simplex(t) is held, t
        assert k.has_simplex(tuple(np.int64(v) for v in t)) is held, t
        assert k.has_simplex(np.array(t, dtype=np.int32)) is held, t


def test_vr_membership_never_enumerates():
    vr = build_vr(equispaced_circle(circle(), 6).to_metric_space(), 2.2, 3)
    assert vr.has_simplex((0, 1)) and not vr.has_simplex((0, 3))
    assert not vr.has_simplex((0, 1, 2, 3, 4))  # past max_dim
    assert "simplices" not in vars(vr)
    # the full simplex on 200 vertices has 2^200 - 1 faces: only a clique
    # test can answer for it
    whole = build_vr(FiniteMetricSpace(np.zeros((200, 200))), 1.0, 199)
    assert whole.has_simplex(tuple(range(200)))
    assert not whole.has_simplex((0, 0))
    assert not whole.has_simplex(tuple(range(201)))
    assert "simplices" not in vars(whole)


def _line_vr(data):
    """A VR complex of m random points in [0, 1), enumerable at any max_dim.

    m is small or past 64 (masks wider than one machine word). The scale
    keeps about half a point to four points per window, so graphs range from
    sparse to dense while cliques on many points stay small.
    """
    m = data.draw(st.one_of(st.integers(1, 12), st.integers(65, 80)), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    points = np.random.default_rng(seed).random(m)
    dist = np.abs(np.subtract.outer(points, points))
    scale = data.draw(st.floats(0.5, 4.0), label="per_window") / m
    max_dim = data.draw(st.integers(0, m + 1), label="max_dim")
    return FiniteMetricSpace(dist), scale, max_dim


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flag_membership_is_the_enumerated_sets(data):
    space, scale, max_dim = _line_vr(data)
    m = space.size
    members = build_vr(space, scale, max_dim).simplices
    sets = {d: set(found) for d, found in members.items()}
    lazy = build_vr(space, scale, max_dim)
    explicit = SimplicialComplex(m, scale, max_dim, members)
    known = st.sampled_from([s for d in members.values() for s in d])
    # vertices in and out of range, some of them past 64
    vertex = st.integers(-2, m + 2) | st.integers(max(0, m - 12), m - 1)
    arbitrary = st.lists(vertex, max_size=max_dim + 3).map(tuple)
    # a simplex plus one vertex: a coface, a face again, or too long
    grown = st.tuples(known, vertex).map(lambda p: tuple(sorted({*p[0], p[1]})))
    for _ in range(20):
        t = data.draw(st.one_of(arbitrary, known, grown), label="t")
        if data.draw(st.booleans(), label="numpy"):
            t = tuple(np.int64(v) for v in t)
        expected = 1 <= len(t) <= max_dim + 1 and t in sets[len(t) - 1]
        assert lazy.has_simplex(t) == expected
        assert explicit.has_simplex(t) == expected
    assert "simplices" not in vars(lazy)


def _witnessed(data):
    """A circle or unit 2-torus subset of m random points (small or past 64)
    with a coarse witness grid and a radius that may leave points
    unwitnessed, a max_dim up to m + 1, and the dense oracle's simplices.
    max_dim is lowered while the oracle would list more than 20000 subsets."""
    manifold = data.draw(st.sampled_from([circle(1.0), flat_torus([1.0, 1.0])]),
                         label="manifold")
    m = data.draw(st.one_of(st.integers(1, 12), st.integers(65, 80)), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    subset = FiniteSubset(manifold, np.random.default_rng(seed).random((m, manifold.dim)))
    per_axis = data.draw(st.integers(1, 12), label="per_axis")
    radius = data.draw(st.floats(0.02, 0.6), label="radius")
    max_dim = data.draw(st.integers(0, m + 1), label="max_dim")
    sizes = np.count_nonzero(np.unique(witness_table(subset, per_axis) < radius,
                                       axis=0), axis=1)
    while max_dim and sum(math.comb(int(n), k + 1) for n in sizes
                          for k in range(max_dim + 1)) > 20_000:
        max_dim -= 1
    return subset, radius, max_dim, per_axis, witness_cech(subset, radius, max_dim, per_axis)


def test_witnessed_membership_is_the_oracle_sets():
    seen = set()  # (answer, every vertex witnessed)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def agree(data):
        subset, radius, max_dim, per_axis, want = _witnessed(data)
        m = subset.size
        sets = {d: set(found) for d, found in want.items()}
        lazy = build_cech_witness(subset, radius, max_dim, per_axis)
        unwitnessed = [v for v in range(m) if (v,) not in sets[0]]
        vertex = (st.integers(-2, m + 2) | st.integers(max(0, m - 12), m - 1)
                  | st.sampled_from(unwitnessed or [m]))
        arbitrary = st.lists(vertex, max_size=max_dim + 3).map(tuple)
        # a simplex plus one vertex: a coface, a face again, or too long
        known = [s for d in want.values() for s in d]
        tuples = [arbitrary]
        if known:
            tuples += [st.sampled_from(known), st.tuples(st.sampled_from(known), vertex)
                       .map(lambda p: tuple(sorted({*p[0], p[1]})))]
        # triangles of the edge graph that are not simplices: a clique test
        # alone would take them
        hollow = [] if max_dim < 2 else [
            t for t in combinations(range(m), 3)
            if t not in sets[2] and all(e in sets[1] for e in combinations(t, 2))]
        if hollow:
            tuples.insert(0, st.sampled_from(hollow))
        for _ in range(20):
            t = data.draw(st.one_of(tuples), label="t")
            if data.draw(st.booleans(), label="numpy"):
                t = tuple(np.int64(v) for v in t)
            expected = 1 <= len(t) <= max_dim + 1 and t in sets[len(t) - 1]
            assert lazy.has_simplex(t) == expected
            if 1 <= len(t) <= max_dim + 1:
                seen.add((expected, all((v,) in sets[0] for v in t)))
        assert "simplices" not in vars(lazy)

    agree()
    assert seen == {(True, True), (False, True), (False, False)}


def test_witnessed_membership_refuses_hollow_triangles(rng):
    # triangles whose edges are simplices but whose three vertices no single
    # witness sees: a clique test alone would take them
    hollow = 0
    for _ in range(40):
        subset = FiniteSubset(flat_torus([1.0, 1.0]), rng.random((8, 2)))
        k = build_cech_witness(subset, 0.2, 2, 8)
        want = witness_cech(subset, 0.2, 2, 8)
        for t in combinations(range(8), 3):
            if t not in want[2] and all(e in want[1] for e in combinations(t, 2)):
                hollow += 1
                assert not k.has_simplex(t)
        assert all(k.has_simplex(t) for t in want[2])
        assert "simplices" not in vars(k)
    assert hollow


def test_cech_circle_equals_vr_at_doubled_scale():
    c = circle()
    sub = equispaced_circle(c, 10)
    space = sub.to_metric_space()
    cech = build_cech_circle(space, 0.45, 2, math.tau)
    vr = build_vr(space, 0.9, 2)
    assert cech.vertex_count == vr.vertex_count and cech.simplices == vr.simplices
    assert cech.scale == pytest.approx(0.45)


def test_cech_circle_scale_gate():
    space = equispaced_circle(circle(), 6).to_metric_space()
    with pytest.raises(ValueError, match="lemma scale bound"):
        build_cech_circle(space, math.tau / 6.0, 2, math.tau)
    # just below the gate is fine
    build_cech_circle(space, math.tau / 6.0 - 1e-6, 2, math.tau)


def test_cech_circle_matches_ambient_probe(rng):
    c = circle()
    grid = np.linspace(0, math.tau, 4000, endpoint=False)
    for _ in range(10):
        sub = uniform_points(c, int(rng.integers(3, 7)), seed=int(rng.integers(1 << 32)))
        space = sub.to_metric_space()
        radius = float(rng.uniform(0.15, math.tau / 6 - 0.05))
        cech = build_cech_circle(space, radius, 3, math.tau)
        # arc distance from every grid point to every vertex, shape (4000, size)
        arc = np.abs(grid[:, None] - sub.points[None, :, 0])
        arc = np.minimum(arc, math.tau - arc)
        for size in (2, 3):
            for s in combinations(range(sub.size), size):
                # deepest point any single center can reach into all balls
                depth = arc[:, list(s)].max(axis=1).min()
                if abs(depth - radius) < 5e-3:
                    continue  # too close to the decision boundary for the probe
                assert cech.has_simplex(s) == (depth < radius)


def test_cech_witness_nests_in_vr(rng):
    t = circle()
    sub = uniform_points(t, 8, seed=77)
    radius = 0.7
    cech = build_cech_witness(sub, radius, 2, 256)
    vr = build_vr(sub.to_metric_space(), 2 * radius, 2)
    for d in range(3):
        assert set(cech.simplices[d]) <= set(vr.simplices[d])


def test_cech_witness_is_not_a_flag_complex():
    # an equilateral triangle of side 0.3 at radius 0.16: a witness near each
    # edge's midpoint sees both ends, but no point of the torus is within 0.16
    # of all three vertices (the circumradius is 0.173), so the triangle is out
    t = flat_torus([1.0, 1.0])
    sub = FiniteSubset(t, [[0.2, 0.2], [0.5, 0.2], [0.35, 0.2 + 0.15 * math.sqrt(3)]])
    k = build_cech_witness(sub, 0.16, 2, 256)
    assert k.simplices[1] == ((0, 1), (0, 2), (1, 2))
    assert k.simplices[2] == ()


def test_cech_witness_vertex_requires_witness():
    # a one-point grid at 0: the point across the circle is never witnessed,
    # so it has no vertex
    sub = FiniteSubset(circle(1.0), [0.1, 0.9, 0.5])
    k = build_cech_witness(sub, 0.2, 1, 1)
    assert k.simplices[0] == ((0,), (1,))
    assert k.simplices[1] == ((0, 1),)


def _torus_300():
    """One uniform point per cell of a 20 x 15 grid on the unit flat torus."""
    torus = flat_torus([1.0, 1.0])
    cell = np.arange(300)
    u = uniform_points(torus, 300, 5).points
    return FiniteSubset(torus, np.stack([(cell % 20 + u[:, 0]) / 20,
                                         (cell // 20 + u[:, 1]) / 15], axis=1))


def test_cech_witness_keeps_only_maximal_stars():
    # the 300-point torus complex has 2,547 distinct witness stars, of which
    # 783 are maximal
    k = build_cech_witness(_torus_300(), 0.08, 3, 64)
    stars = {}  # star bit -> the bitmask of the points in it
    for j, bits in enumerate(k._member):
        while bits:
            low = bits & -bits
            bits ^= low
            stars[low] = stars.get(low, 0) | 1 << j
    spans = list(stars.values())
    assert len(spans) == 783
    assert not any(a != b and a & ~b == 0 for a in spans for b in spans)


@pytest.mark.parametrize("build, edges", [
    (lambda: build_vr(grid_points(flat_torus([1.0, 1.0]), 16).to_metric_space(),
                      0.3, 1), (8704, 324)),
    (lambda: build_vr(equispaced_circle(circle(), 200).to_metric_space(),
                      66.5 * 2 * math.pi / 200, 1), (13200, 200)),
    (lambda: build_cech_witness(_torus_300(), 0.08, 1, 64), (3224, 964)),
], ids=["vr-grid-16", "vr-cyclic-power-200-66", "cech-torus-300"])
def test_edge_collapse_leaves_pinned_edge_counts(build, edges):
    cx = build()
    collapsed = cx._collapsed()
    assert (cx.simplex_counts()[1], collapsed.simplex_counts()[1]) == edges
    assert collapsed.simplex_counts()[0] == cx.simplex_counts()[0]
    assert collapsed._collapsed()._nbr == collapsed._nbr


def _pair(rng, size_x=5, size_y=4):
    c = circle()
    sub_x = uniform_points(c, size_x, seed=int(rng.integers(1 << 32)))
    sub_y = uniform_points(c, size_y, seed=int(rng.integers(1 << 32)))
    return sub_x.to_metric_space(), sub_y.to_metric_space()


def test_induced_vr_map_is_simplicial(rng):
    for _ in range(15):
        space_x, space_y = _pair(rng)
        corr = gh_exact(space_x, space_y).correspondence
        from ghbound import distortion
        dis = distortion(corr, space_x, space_y)
        r = dis + 1e-6
        eps = float(rng.uniform(0.1, 1.5))
        source = build_vr(space_y, eps, space_y.size - 1)
        f = induced_vr_map(corr, space_x, space_y, source, r,
                           max_dim=space_x.size - 1, dis=dis)
        assert f.target.scale == pytest.approx(r + eps)
        assert check_simplicial(f)


def test_induced_vr_map_distortion_gate(rng):
    space_x, space_y = _pair(rng)
    corr = gh_exact(space_x, space_y).correspondence
    from ghbound import distortion
    dis = distortion(corr, space_x, space_y)
    source = build_vr(space_y, 0.5, 2)
    with pytest.raises(ValueError, match="distortion exceeds scale"):
        induced_vr_map(corr, space_x, space_y, source, dis, dis=dis)


def test_induced_vr_map_picks_first_partner():
    from ghbound import Correspondence
    space_x = FiniteSubset(circle(), [[0.0], [0.1]]).to_metric_space()
    space_y = FiniteSubset(circle(), [[0.0]]).to_metric_space()
    corr = Correspondence(((0, 0), (1, 0)))
    source = build_vr(space_y, 0.5, 0)
    f = induced_vr_map(corr, space_x, space_y, source, 0.2, dis=0.1)
    assert f.image == (0,)  # y0 goes to x0, the lexicographically first pair


def test_induced_vr_map_needs_every_y_related():
    from ghbound import Correspondence
    space_x = FiniteSubset(circle(), [[0.0], [0.1]]).to_metric_space()
    space_y = FiniteSubset(circle(), [[0.0], [0.1]]).to_metric_space()
    source = build_vr(space_y, 0.5, 1)
    with pytest.raises(ValueError, match="cover"):
        induced_vr_map(Correspondence(((0, 0), (1, 0))), space_x, space_y, source,
                       0.2, dis=0.1)


def test_subset_projection_map(rng):
    c = circle()
    for _ in range(10):
        big = uniform_points(c, 9, seed=int(rng.integers(1 << 32)))
        space = big.to_metric_space()
        idx = sorted(rng.choice(9, size=4, replace=False).tolist())
        gap = float(space.dist[:, idx].min(axis=1).max())
        r = 2 * gap + 0.05
        source = build_vr(space, 0.8, 3)
        f = subset_projection_map(space, idx, source, r, max_dim=8)
        assert check_simplicial(f)
        # subset points project to themselves
        for pos, z in enumerate(idx):
            assert f.image[z] == pos


def test_subset_projection_gate():
    space = FiniteSubset(circle(), [[0.0], [1.0], [2.0]]).to_metric_space()
    source = build_vr(space, 0.5, 2)
    with pytest.raises(ValueError, match="twice the directed Hausdorff"):
        subset_projection_map(space, [0], source, 1.0)


def test_contiguity_roundtrip(rng):
    # the correspondence roundtrip is contiguous to the inclusion
    for _ in range(10):
        space_x, space_y = _pair(rng, 5, 5)
        corr = gh_exact(space_x, space_y).correspondence
        from ghbound import distortion
        dis = distortion(corr, space_x, space_y)
        r = dis + 1e-6
        eps = 0.6
        source = build_vr(space_y, eps, space_y.size - 1)
        f = induced_vr_map(corr, space_x, space_y, source, r,
                           max_dim=space_x.size - 1, dis=dis)
        g = induced_vr_map(corr.transpose(), space_y, space_x, f.target, r,
                           max_dim=space_y.size - 1, dis=dis)
        roundtrip = compose_maps(g, f)
        include = inclusion_map(source, g.target)
        assert check_simplicial(roundtrip)
        assert check_contiguous(roundtrip, include)
        assert check_contiguous(include, roundtrip)  # symmetric relation


def test_check_contiguous_rejects_mismatched():
    space = equispaced_circle(circle(), 5).to_metric_space()
    a = build_vr(space, 1.0, 1)
    b = build_vr(space, 1.5, 1)
    f = inclusion_map(a, b)
    g = inclusion_map(b, b)
    with pytest.raises(ValueError, match="mismatched"):
        check_contiguous(f, g)


def _sorted_line(data, label):
    """A VR complex on sorted random points of [0, 1), small or past 64, with
    about half a point to four points per window; max_dim is often 0 or m - 1."""
    m = data.draw(st.one_of(st.integers(1, 12), st.integers(65, 80)), label=f"{label} m")
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
    points = np.sort(np.random.default_rng(seed).random(m))
    scale = data.draw(st.floats(0.5, 4.0), label=f"{label} per window") / m
    max_dim = data.draw(st.one_of(st.just(0), st.just(m - 1), st.integers(0, m + 1)),
                        label=f"{label} max_dim")
    return build_vr(FiniteMetricSpace(np.abs(np.subtract.outer(points, points))),
                    scale, max_dim)


def _torus_witnessed(data, label):
    """A witnessed Cech complex of 1-10 random points of the unit 2-torus on a
    coarse grid, so that some points may have no vertex; max_dim is often 0
    or m - 1."""
    m = data.draw(st.integers(1, 10), label=f"{label} m")
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
    subset = FiniteSubset(flat_torus([1.0, 1.0]),
                          np.random.default_rng(seed).random((m, 2)))
    per_axis = data.draw(st.integers(1, 8), label=f"{label} per_axis")
    radius = data.draw(st.floats(0.05, 0.6), label=f"{label} radius")
    max_dim = data.draw(st.one_of(st.just(0), st.just(m - 1), st.integers(0, m + 1)),
                        label=f"{label} max_dim")
    return build_cech_witness(subset, radius, max_dim, per_axis)


def _map_pair(data):
    """Two vertex maps between one source and one target, each complex a
    sorted-line VR complex, an explicit oracles.random_complex or a witnessed
    Cech complex on the 2-torus. Vertices go to the target vertex of about
    the same rank, some moved one step."""
    complexes = []
    for label in ("source", "target"):
        kind = data.draw(st.sampled_from(("line", "line", "explicit", "witnessed")),
                         label=f"{label} kind")
        if kind == "explicit":
            seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
            complexes.append(random_complex(np.random.default_rng(seed)))
        elif kind == "witnessed":
            complexes.append(_torus_witnessed(data, label))
        else:
            complexes.append(_sorted_line(data, label))
    source, target = complexes
    m, n = source.vertex_count, target.vertex_count
    maps = []
    for label in ("f", "g"):
        steps = data.draw(st.lists(st.sampled_from((0, 0, 0, -1, 1)),
                                   min_size=m, max_size=m), label=f"{label} steps")
        image = [min(max(a * n // m + step, 0), n - 1) for a, step in enumerate(steps)]
        maps.append(VertexMap(source, target, tuple(image)))
    return maps


def _fixed_map_pairs():
    """Map pairs on three points of a line, 1 apart, that reach all eight
    outcomes, so that the coverage assertion does not depend on the draws."""
    points = np.arange(3.0)
    line = FiniteMetricSpace(np.abs(np.subtract.outer(points, points)))
    path = build_vr(line, 1.5, 2)  # edges 01 and 12
    bare = build_vr(line, 0.5, 2)  # no edges
    full = build_vr(line, 2.5, 2)  # the triangle
    capped = build_vr(line, 2.5, 1)  # every edge, and a cap that binds
    same = (0, 1, 2)
    for source, target, g in ((path, path, same), (path, path, (1, 2, 2)),
                              (path, bare, same), (path, capped, same),
                              (full, capped, same), (path, capped, (1, 2, 0))):
        yield VertexMap(source, target, same), VertexMap(source, target, g)


def test_map_checks_agree_with_enumeration():
    outcomes = set()  # (check, decided by the edge test, result)

    def record(f, g):
        simplicial = check_simplicial(f)
        assert simplicial == simplicial_by_enumeration(f)
        outcomes.add(("simplicial", _flag_pair(f, 1), simplicial))
        contiguous = check_contiguous(f, g)
        assert contiguous == contiguous_by_enumeration(f, g)
        outcomes.add(("contiguous", _flag_pair(f, 2), contiguous))

    for f, g in _fixed_map_pairs():
        record(f, g)

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def agree(data):
        record(*_map_pair(data))

    agree()
    assert outcomes == {(check, masks, result) for check in ("simplicial", "contiguous")
                        for masks in (True, False) for result in (True, False)}


def test_vertex_map_validation():
    space = equispaced_circle(circle(), 4).to_metric_space()
    k = build_vr(space, 1.0, 1)
    with pytest.raises(ValueError, match="out of range"):
        VertexMap(k, k, (0, 1, 2, 9))
    with pytest.raises(ValueError, match="every source vertex"):
        VertexMap(k, k, (0, 1))
    for entry in (2.5, 2.0):
        with pytest.raises(ValueError, match="must be integers"):
            VertexMap(k, k, (0, 1, entry, 3))
    f = VertexMap(k, k, tuple(np.arange(4, dtype=np.int64)))
    assert f.image == (0, 1, 2, 3)
    assert all(type(v) is int for v in f.image)


def test_compose_requires_chainable():
    space = equispaced_circle(circle(), 4).to_metric_space()
    a = build_vr(space, 1.0, 1)
    b = build_vr(space, 2.0, 1)
    f = inclusion_map(a, b)
    with pytest.raises(ValueError, match="not composable"):
        compose_maps(f, f)
