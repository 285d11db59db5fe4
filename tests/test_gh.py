"""Exact GH search against exhaustive enumeration.

Oracle notes
------------
* gh_exhaustive (oracles.py) enumerates every function pair by tensor algebra
  and shares no code with the branch-and-bound; agreement must be exact (both
  compute max/min over the same finite set of float subtractions).
* Metric invariants: symmetry, zero self-distance, isometry invariance,
  domination by the Hausdorff distance for common-ambient subsets.
* Property tests (hypothesis) draw planar and integer-valued spaces; the
  integer ones make ties between candidate costs and floors common.
"""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghbound import (Correspondence, FiniteMetricSpace, FiniteSubset, SplitMix64,
                     circle, distortion, equispaced_circle, euclidean, gh_exact,
                     hausdorff_subsets, rigid_incumbent, uniform_points)
from ghbound import cli, gh
from ghbound.gh import _pair_floors

from oracles import gh_exhaustive


@pytest.fixture
def rng():
    return np.random.default_rng(0x6A0B)


def _random_space(rng, max_points=4) -> FiniteMetricSpace:
    m = int(rng.integers(1, max_points + 1))
    pts = rng.random((m, 2)) * 2.0
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = np.triu(d, 1)
    return FiniteMetricSpace(d + d.T)


def test_branch_and_bound_equals_exhaustive(rng):
    for _ in range(120):
        x = _random_space(rng)
        y = _random_space(rng)
        result = gh_exact(x, y)
        assert result.proven_optimal
        assert result.value == gh_exhaustive(x.dist, y.dist)


def test_symmetry_and_self_distance(rng):
    for _ in range(20):
        x = _random_space(rng)
        y = _random_space(rng)
        assert gh_exact(x, y).value == gh_exact(y, x).value
        assert gh_exact(x, x).value == 0.0


def test_singleton_against_pair():
    x = FiniteMetricSpace(np.zeros((1, 1)))
    y = FiniteMetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    # the only correspondence relates p to both, distortion = diam Y
    assert gh_exact(x, y).value == pytest.approx(1.5)


def test_isometry_invariance():
    c = circle()
    a = equispaced_circle(c, 7).to_metric_space()
    b = equispaced_circle(c, 7, phase=1.1).to_metric_space()
    assert gh_exact(a, b).value <= 1e-12


def test_dominated_by_hausdorff(rng):
    c = circle()
    for _ in range(25):
        sub_x = uniform_points(c, int(rng.integers(2, 7)), seed=int(rng.integers(1 << 32)))
        sub_y = uniform_points(c, int(rng.integers(2, 7)), seed=int(rng.integers(1 << 32)))
        gh = gh_exact(sub_x.to_metric_space(), sub_y.to_metric_space())
        assert gh.proven_optimal
        assert gh.value <= hausdorff_subsets(sub_x, sub_y) + 1e-9


def test_trivial_lower_bound_holds(rng):
    for _ in range(25):
        x = _random_space(rng)
        y = _random_space(rng)
        trivial = abs(x.dist.max() - y.dist.max()) / 2  # |diam X - diam Y| / 2
        assert trivial <= gh_exact(x, y).value + 1e-15


def test_budget_exhaustion_returns_upper_bound(rng):
    c = circle()
    x = uniform_points(c, 6, seed=12).to_metric_space()
    y = uniform_points(c, 6, seed=24).to_metric_space()
    full = gh_exact(x, y)  # 29 nodes
    clipped = gh_exact(x, y, node_budget=15)
    assert full.proven_optimal
    assert not clipped.proven_optimal
    assert clipped.value >= full.value - 1e-15
    # the clipped value is realized by an actual correspondence
    assert distortion(clipped.correspondence, x, y) == pytest.approx(2 * clipped.value)


def test_result_correspondence_is_optimal_witness(rng):
    for _ in range(15):
        x = _random_space(rng)
        y = _random_space(rng)
        result = gh_exact(x, y)
        result.correspondence.validate(x.size, y.size)
        assert distortion(result.correspondence, x, y) == pytest.approx(2 * result.value)


def test_correspondence_validation():
    with pytest.raises(ValueError, match="out of range"):
        Correspondence(((0, 5),)).validate(1, 1)
    with pytest.raises(ValueError, match="cover"):
        Correspondence(((0, 0),)).validate(2, 1)
    ident = Correspondence(((0, 0), (1, 1), (2, 2)))
    ident.validate(3, 3)
    assert ident.transpose().pairs == ident.pairs
    # float indices used to be truncated: ((0.9, 0.2), (1.5, 1.99)) became the
    # identity on two points, and gh_exact took it as an incumbent
    for pairs in (((0.9, 0.2), (1.5, 1.99)), ((0, 0), (1.0, 1)), ((0, "1"),)):
        with pytest.raises(ValueError, match="must be integers"):
            Correspondence(pairs)
    x = equispaced_circle(circle(), 2).to_metric_space()
    with pytest.raises(ValueError, match="must be integers"):
        gh_exact(x, x, incumbent=Correspondence(((0.9, 0.2), (1.5, 1.99))))
    wide = Correspondence(((np.int64(1), np.intp(0)), (np.int32(0), np.uint8(1))))
    assert wide.pairs == ((0, 1), (1, 0))
    assert all(type(i) is int for pair in wide.pairs for i in pair)


def test_distortion_known_value():
    x = FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    y = FiniteMetricSpace(np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert distortion(Correspondence(((0, 0), (1, 1))), x, y) == pytest.approx(3.0)
    assert gh_exact(x, y).value == pytest.approx(1.5)  # = |diam X - diam Y| / 2 too
    assert abs(x.dist.max() - y.dist.max()) / 2 == pytest.approx(1.5)


def test_node_budget_counts_and_determinism(rng):
    x = _random_space(rng, 4)
    y = _random_space(rng, 4)
    a = gh_exact(x, y)
    b = gh_exact(x, y)
    assert a.value == b.value
    assert a.nodes_explored == b.nodes_explored
    assert a.correspondence.pairs == b.correspondence.pairs


# --------------------------------------------------------- property tests


@st.composite
def metric_spaces(draw, max_points=4):
    """A planar point set, or the shortest-path metric of small integer weights."""
    m = draw(st.integers(1, max_points))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 3), min_size=m * m, max_size=m * m))
        d = np.triu(np.array(weights, dtype=np.float64).reshape(m, m), 1)
        d = d + d.T
        for k in range(m):
            d = np.minimum(d, d[:, [k]] + d[[k], :])
    else:
        coords = draw(st.lists(st.floats(0.0, 2.0), min_size=2 * m, max_size=2 * m))
        pts = np.array(coords).reshape(m, 2)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d = np.triu(d, 1)
        d = d + d.T
    return FiniteMetricSpace(d)


@settings(max_examples=150, deadline=None)
@given(metric_spaces(), metric_spaces())
def test_gh_exact_equals_exhaustive_property(x, y):
    result = gh_exact(x, y)
    assert result.proven_optimal
    assert result.value == gh_exhaustive(x.dist, y.dist)
    assert distortion(result.correspondence, x, y) == 2 * result.value


@settings(max_examples=100, deadline=None)
@given(metric_spaces(5), metric_spaces(5), st.randoms(use_true_random=False))
def test_pair_floor_below_distortion_of_correspondences_through_pair(x, y, rnd):
    floors, _ = _pair_floors(x.dist, y.dist)
    pairs = list(product(range(x.size), range(y.size)))
    for _ in range(10):
        # a random relation, completed to cover both sides
        chosen = {p for p in pairs if rnd.random() < 0.3}
        chosen |= {(a, rnd.randrange(y.size)) for a in range(x.size)}
        chosen |= {(rnd.randrange(x.size), b) for b in range(y.size)}
        dis = distortion(Correspondence(tuple(chosen)), x, y)
        for a, b in chosen:
            assert floors[a, b] <= dis


@pytest.mark.parametrize("nx, ny", [(16, 16), (16, 17)])
def test_pair_floors_broadcast_equals_sorted_search(rng, nx, ny):
    # nx * ny = 256 sits at the broadcast's BLOCK limit, 272 just past it
    steps = rng.integers(0, 24, size=nx + ny)
    gap = np.abs(np.subtract.outer(steps, steps))
    ties = np.minimum(gap, 24 - gap).astype(np.float64)  # many equal distances
    c = circle()
    pairs = [(ties[:nx, :nx], ties[nx:, nx:]),
             (uniform_points(c, nx, 3).to_metric_space().dist,
              uniform_points(c, ny, 4).to_metric_space().dist)]
    for dx, dy in pairs:
        found, _ = _pair_floors(dx, dy)
        for block in (0, (nx * ny) ** 2):  # force the sorted path, then the broadcast
            with mock.patch.object(gh, "BLOCK", block):
                floors, gaps = _pair_floors(dx, dy)
            assert np.array_equal(floors, found)
            assert (gaps is None) == (block == 0)
        # the kept tensor holds the node step's matrices bit for bit
        for x, y in [(0, 0), (nx - 1, ny - 1), (3, 11)]:
            assert np.array_equal(gaps[x, y], np.abs(np.subtract.outer(dx[x], dy[y])))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 9), st.integers(5, 9), st.integers(0, 2**32 - 1),
       st.integers(1, 12))
def test_budget_exhausted_result_is_realized(nx, ny, seed, budget):
    c = circle()
    x = uniform_points(c, nx, seed).to_metric_space()
    y = uniform_points(c, ny, seed + 1).to_metric_space()
    clipped = gh_exact(x, y, node_budget=budget)
    clipped.correspondence.validate(nx, ny)
    assert distortion(clipped.correspondence, x, y) == 2 * clipped.value
    if not clipped.proven_optimal:
        assert clipped.nodes_explored > budget
        assert clipped.value >= gh_exact(x, y).value


@st.composite
def circle_pairs(draw, min_points=2, max_points=11):
    """Two seeded uniform samples of the unit circle."""
    c = circle()
    nx, ny = (draw(st.integers(min_points, max_points)) for _ in "xy")
    seed = draw(st.integers(0, 2**32 - 1))
    return uniform_points(c, nx, seed), uniform_points(c, ny, seed + 1)


@settings(max_examples=200, deadline=None)
@given(circle_pairs(), st.integers(1, 10**7))
def test_rigid_seed_never_costs_value_or_nodes(pair, budget):
    sub_x, sub_y = pair
    x, y = sub_x.to_metric_space(), sub_y.to_metric_space()
    seed = rigid_incumbent(sub_x, sub_y)
    seeded = gh_exact(x, y, budget, incumbent=seed)
    assert seeded.value <= distortion(seed, x, y) / 2
    plain = gh_exact(x, y, budget)
    # without a seed the search may overrun its budget to land a first leaf;
    # with one it stops on time, so compare only searches that kept the budget
    if plain.nodes_explored <= budget:
        assert seeded.value <= plain.value
        if plain.proven_optimal:
            assert seeded.proven_optimal
            assert seeded.value == plain.value
            assert seeded.nodes_explored <= plain.nodes_explored


@settings(max_examples=100, deadline=None)
@given(circle_pairs(1, 4))
def test_rigid_seeded_search_equals_exhaustive(pair):
    sub_x, sub_y = pair
    x, y = sub_x.to_metric_space(), sub_y.to_metric_space()
    seeded = gh_exact(x, y, incumbent=rigid_incumbent(sub_x, sub_y))
    assert seeded.proven_optimal
    assert seeded.value == gh_exhaustive(x.dist, y.dist)


@settings(max_examples=100, deadline=None)
@given(circle_pairs(1, 8))
def test_rigid_incumbent_distorts_at_most_four_hausdorff(pair):
    # moving x_0 onto its nearest y costs at most d_H, so some tried motion g
    # has d_H(gX, Y) <= 2 d_H(X, Y), and nearest points distort by 2 d_H(gX, Y)
    sub_x, sub_y = pair
    seed = rigid_incumbent(sub_x, sub_y)
    seed.validate(sub_x.size, sub_y.size)
    dis = distortion(seed, sub_x.to_metric_space(), sub_y.to_metric_space())
    assert dis <= 4 * hausdorff_subsets(sub_x, sub_y) + 1e-9


def test_rigid_incumbent_needs_one_circle():
    c = circle()
    with pytest.raises(ValueError, match="one circle"):
        rigid_incumbent(uniform_points(c, 3, 1), uniform_points(circle(3.0), 3, 2))
    line = FiniteSubset(euclidean(1), [[0.0], [1.0]])
    with pytest.raises(ValueError, match="one circle"):
        rigid_incumbent(line, line)


def test_incumbent_is_validated():
    x = equispaced_circle(circle(), 3).to_metric_space()
    with pytest.raises(ValueError, match="out of range"):
        gh_exact(x, x, incumbent=Correspondence(((0, 0), (1, 1), (2, 3))))
    with pytest.raises(ValueError, match="cover"):
        gh_exact(x, x, incumbent=Correspondence(((0, 0), (1, 1))))


def test_incumbent_meeting_the_root_bound_prunes_the_root():
    x = uniform_points(circle(), 9, seed=4).to_metric_space()
    identity = Correspondence(tuple((i, i) for i in range(9)))
    result = gh_exact(x, x, incumbent=identity)
    assert result == gh_exact(x, x, 1, incumbent=identity)
    assert (result.value, result.nodes_explored, result.proven_optimal) == (0.0, 1, True)
    assert result.correspondence == identity


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([circle(), euclidean(1), euclidean(2), euclidean(3)]),
       st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.integers(1, 10**4))
def test_value_doubles_to_the_distortion_exactly(ambient, nx, ny, seed, budget):
    # halving and doubling are exact, so callers may read distortion as 2 * value
    rng = np.random.default_rng(seed)
    sub_x = FiniteSubset(ambient, rng.normal(size=(nx, ambient.dim)) * 3.0)
    sub_y = FiniteSubset(ambient, rng.normal(size=(ny, ambient.dim)) * 3.0)
    x, y = sub_x.to_metric_space(), sub_y.to_metric_space()
    results = [gh_exact(x, y, budget)]
    if ambient == circle():
        results.append(gh_exact(x, y, budget, incumbent=rigid_incumbent(sub_x, sub_y)))
    for result in results:
        assert 2.0 * result.value == distortion(result.correspondence, x, y)


# ------------------------------------------------ regressions and resources


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_large_input_does_not_recurse():
    c = circle()
    x = uniform_points(c, 120, seed=5).to_metric_space()
    y = uniform_points(c, 2, seed=6).to_metric_space()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        result = gh_exact(x, y, node_budget=1)
    finally:
        sys.setrecursionlimit(limit)
    assert not result.proven_optimal
    assert distortion(result.correspondence, x, y) == 2 * result.value


# gh-sweep's fixed draw (bench/workloads.py): sampler seed 2, row r draws X from
# child 2r and Y from child 2r + 1.
GH_SWEEP_SIZES = ([(n, n) for n in range(6, 13)] * 2
                  + [(8, 12), (12, 8), (10, 11), (11, 10)])


def _gh_sweep_row(row):
    c = circle()
    master = SplitMix64(2)
    nx, ny = GH_SWEEP_SIZES[row]
    x = uniform_points(c, nx, master.child(2 * row).next_u64()).to_metric_space()
    y = uniform_points(c, ny, master.child(2 * row + 1).next_u64()).to_metric_space()
    return x, y


# A diameter floor left these rows unproven after 100k nodes.
@pytest.mark.parametrize("row, nx, ny, value", [
    (5, 11, 11, 0.5363984775375299),
    (6, 12, 12, 0.4143115393212584),
    (16, 10, 11, 0.5973091832768553),
])
def test_gh_sweep_hard_rows_are_proven(row, nx, ny, value):
    x, y = _gh_sweep_row(row)
    assert (x.size, y.size) == (nx, ny)
    result = gh_exact(x, y, node_budget=100_000)
    assert result.proven_optimal
    assert result.value == value


# Symmetric pairs, where many partners tie: each partner whose subtree was
# searched to the end must be banned from its later siblings to fit the budget.
@pytest.mark.parametrize("x, y, value, nodes", [
    (equispaced_circle(circle(), 4), equispaced_circle(circle(), 40),
     0.7068583470577035, 1_000),
    (equispaced_circle(circle(), 5), equispaced_circle(circle(), 50),
     0.5654866776461628, 1_000),
    (uniform_points(circle(), 6, 13), equispaced_circle(circle(), 24),
     1.1863296864522188, 50_000),
], ids=["square-Y40", "pentagon-Y50", "U6-seed13-Y24"])
def test_symmetric_pairs_are_proven_fast(x, y, value, nodes):
    result = gh_exact(x.to_metric_space(), y.to_metric_space(), node_budget=nodes)
    assert result.proven_optimal
    assert result.value == value


# (value, nodes_explored, proven_optimal, first 16 hex digits of the SHA-256 of
# repr(correspondence.pairs)) per gh-sweep row: searched to the end at 100k,
# and cut at 50 nodes, where 10 of the 18 rows run out of budget. Any change to
# the branching point, the candidate order, the prunes or the budget accounting
# moves a node count or a correspondence here, even when values stay put.
GH_SWEEP_SEARCH = {
    100_000: [
        (0.3343299200161396, 25, True, "8e3e047bfb868ac4"),
        (0.5365072664932073, 25, True, "f8a2ca813ce305c6"),
        (0.3729031931264207, 125, True, "9a53d883b259d529"),
        (0.3978764547163551, 86, True, "3f89dc4306ba1d3b"),
        (0.36022579996236703, 21, True, "6e48472c609c97e5"),
        (0.5363984775375299, 99, True, "f07c91c1b93467ba"),
        (0.4143115393212584, 155, True, "977af10214bad675"),
        (0.45456041001988834, 50, True, "0bbd8ce1ff1b2949"),
        (0.35916710774400196, 25, True, "2905da6dcd39be2f"),
        (0.49852016824590506, 75, True, "41f9eee9faa89754"),
        (0.31465929797849856, 20, True, "6e8bdd9b598133dd"),
        (0.3916834257433188, 41, True, "791b36c568d195d9"),
        (0.28356661614766643, 61, True, "20d028c093d19f14"),
        (0.2880547766776893, 130, True, "c862d01511a0d727"),
        (0.49450356089560854, 105, True, "821445a66d074cbb"),
        (0.4522375313143957, 25, True, "41429d714335e574"),
        (0.5973091832768553, 1880, True, "38ef7eb4d37a5e4d"),
        (0.34786785085461425, 88, True, "138578c3d1a37a8b"),
    ],
    50: [
        (0.3343299200161396, 25, True, "8e3e047bfb868ac4"),
        (0.5365072664932073, 25, True, "f8a2ca813ce305c6"),
        (0.546582627325793, 51, False, "281fa75aa5f4d625"),
        (0.5837914341962169, 51, False, "43628225e86b8217"),
        (0.36022579996236703, 21, True, "6e48472c609c97e5"),
        (0.5363984775375299, 51, False, "f07c91c1b93467ba"),
        (0.8277268240053586, 51, False, "544f8b178208a2b4"),
        (0.45456041001988834, 50, True, "0bbd8ce1ff1b2949"),
        (0.35916710774400196, 25, True, "2905da6dcd39be2f"),
        (0.6056127689997535, 51, False, "eef8182265cace34"),
        (0.31465929797849856, 20, True, "6e8bdd9b598133dd"),
        (0.3916834257433188, 41, True, "791b36c568d195d9"),
        (0.356399629681988, 51, False, "3f7cd1522580bac0"),
        (0.42879301744251364, 51, False, "ca2ce7624a5e3e75"),
        (0.507477744140701, 51, False, "f296f3b0bb0bd9fb"),
        (0.4522375313143957, 25, True, "41429d714335e574"),
        (0.947325586624503, 51, False, "0829171315bba7cc"),
        (0.34993042420820875, 51, False, "d35c28a2fd2e3fd1"),
    ],
}


@pytest.mark.parametrize("budget", sorted(GH_SWEEP_SEARCH))
def test_gh_sweep_search_is_pinned(budget):
    got = []
    for row in range(len(GH_SWEEP_SIZES)):
        result = gh_exact(*_gh_sweep_row(row), node_budget=budget)
        digest = hashlib.sha256(repr(result.correspondence.pairs).encode()).hexdigest()
        got.append((result.value, result.nodes_explored, result.proven_optimal,
                    digest[:16]))
    assert got == GH_SWEEP_SEARCH[budget]
    if budget == 100_000:
        assert sum(nodes for _, nodes, _, _ in got) == 3036  # unseeded, unlike gh-sweep


@pytest.mark.parametrize("budget", sorted(GH_SWEEP_SEARCH))
def test_child_steps_agree_across_the_block_limit(budget):
    # BLOCK = 0 forces the sorted floors and the outer-product child step; the
    # default keeps the floor tensor and reads each child's matrix from it
    master = SplitMix64(1)
    spaces = ([_lemma_pair(master, trial) for trial in range(200)]
              + [_gh_sweep_row(row) for row in range(len(GH_SWEEP_SIZES))])
    for x, y in spaces:
        assert (x.size * y.size) ** 2 <= gh.BLOCK
        kept = gh_exact(x, y, budget)
        with mock.patch.object(gh, "BLOCK", 0):
            sorted_ = gh_exact(x, y, budget)
        assert ((kept.value, kept.nodes_explored, kept.proven_optimal,
                 kept.correspondence.pairs)
                == (sorted_.value, sorted_.nodes_explored, sorted_.proven_optimal,
                    sorted_.correspondence.pairs))


def _lemma_pair(master, trial):
    """The pair lemma-check's trial draws (cli._lemma_trial): 2-6 points a side."""
    rng = master.child(trial)
    nx, ny = 2 + rng.next_below(5), 2 + rng.next_below(5)
    rng.next_float()  # the trial's VR scale
    x = uniform_points(circle(), nx, rng.next_u64()).to_metric_space()
    y = uniform_points(circle(), ny, rng.next_u64()).to_metric_space()
    return x, y


# SHA-256 of repr of the (value, nodes_explored, proven_optimal, pairs) list over
# lemma-check's 1,000 seed-1 searches. Tiny spaces make ties common, so the
# branching point's tie rule and the candidate order show up here first.
LEMMA_SEARCH_DIGEST = (
    "303f734970bf535bd77772981c7fd5fcde24c68b01fe169fa6c19127629c62d5")


def test_lemma_check_searches_are_pinned():
    master = SplitMix64(1)
    got = []
    for trial in range(1000):
        result = gh_exact(*_lemma_pair(master, trial), 10_000_000)
        got.append((result.value, result.nodes_explored, result.proven_optimal,
                    result.correspondence.pairs))
    assert all(proven for _, _, proven, _ in got)
    assert sum(nodes for _, nodes, _, _ in got) == 11_328
    assert hashlib.sha256(repr(got).encode()).hexdigest() == LEMMA_SEARCH_DIGEST


def test_lemma_trial_tables_are_the_pinned_pairs():
    # the trial takes X's and Y's tables as blocks of Z's; they must be the
    # bytes _lemma_pair builds, which LEMMA_SEARCH_DIGEST pins
    seen = []

    def spy(space_x, space_y, *args, **kwargs):
        seen.append((space_x, space_y))
        return gh_exact(space_x, space_y, *args, **kwargs)

    with mock.patch.object(cli, "gh_exact", spy):
        for trial in range(100):
            cli._lemma_trial(trial, SplitMix64(1))
    master = SplitMix64(1)
    for trial, got in enumerate(seen):
        for space, want in zip(got, _lemma_pair(master, trial)):
            assert space.dist.dtype == want.dist.dtype
            assert space.dist.shape == want.dist.shape
            assert space.dist.tobytes() == want.dist.tobytes()
    assert len(seen) == 100


def test_search_memory_at_the_broadcast_limit():
    # T holds (16 * 16)^2 = BLOCK doubles (512 KiB) and is kept for the whole
    # search; the floors' reductions and the search may add one BLOCK more
    c = circle()
    x = uniform_points(c, 16, seed=31).to_metric_space()
    y = uniform_points(c, 16, seed=32).to_metric_space()
    assert (x.size * y.size) ** 2 == gh.BLOCK
    tracemalloc.start()
    try:
        result = gh_exact(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.proven_optimal
    assert peak < 2 * gh.BLOCK * 8


def test_search_memory_stays_quadratic():
    c = circle()
    x = uniform_points(c, 200, seed=31).to_metric_space()
    y = uniform_points(c, 200, seed=32).to_metric_space()
    tracemalloc.start()
    try:
        gh_exact(x, y, node_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
