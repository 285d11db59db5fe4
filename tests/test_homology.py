"""Z/2 homology: reduction, Betti numbers, induced maps.

Oracle notes
------------
* Betti numbers are checked against dense GF(2) Gaussian elimination
  (oracles.naive_betti) on random complexes, and against textbook values on
  closed-form complexes: cycles, spheres, the 7-vertex torus, the 6-vertex
  projective plane (whose beta_1 = beta_2 = 1 only over Z/2, a coefficient
  sensitivity check).
* induced maps (oracles.induced_map, the reference that tracks explicit
  representative cycles): identity gives the identity matrix, a collapse
  kills H_1, composition matches matrix product, contiguous maps agree.
* fundamental_class_survives reads survival off the pairs of the two-step
  filtration (union-find, then coboundaries off the big complex's joins); it
  must equal oracles.fundamental_class_survives, which builds the induced
  map, on random VR pairs of circle and torus samples and on shuffled
  subsets.
* betti_numbers stops at the first empty dimension: at cap 600 on a
  triangle, built or explicit, at most 10 reduction steps build cofaces.
  Its cost does not grow with vertex_count either: one edge at vertex_count
  10^6 peaks below 1 MiB under tracemalloc.
* Clearing: a reduction step reads the earliest coface of exactly the
  k-simplices that kill no class, n_k - rank d_k of them with the rank from
  dense elimination, on random explicit complexes and on VR filtrations.
* Adamaszek's theorem ("Clique complexes and graph powers", Israel J. Math.
  2013) is an external oracle for VR complexes of equispaced circles. VR(Y_N)
  at scale (2 pi / N)(k + 1/2) is the clique complex of the cyclic graph
  power C_N^k, which is S^{2l+1} when l/(2l+1) < k/N < (l+1)/(2l+3) and a
  wedge of N - 2k - 1 copies of S^{2l} when k/N = l/(2l+1).
* A mask complex never stores its top dimension for betti_numbers or
  simplex_counts: both must equal the results on an explicit
  SimplicialComplex with the same simplices, in any order of queries, also
  after a lower skeleton was enumerated in between; afterwards the complex
  holds its masks, vertex count, scale and cap, and nothing else. The explicit
  complex's _joins, read off the coface index it builds when constructed,
  must equal the masks' on every face, and its _skeleton, simplex_counts
  and simplices, read off the same index, the mask complex's at every cap
  from 0 to 3, from simplices listed in reverse with duplicates.
* Betti numbers of a mask complex come from its edge-collapsed complex; they
  must equal beta_0..beta_3 of an explicit copy of the uncollapsed
  simplices, for VR complexes of circle, 2-torus, 3-torus and R^3 samples
  and witnessed Cech complexes of 2-torus and 3-torus samples. A witnessed
  hollow triangle, whose edges a flag-only rule would collapse, keeps
  beta_1 = 1.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghbound import homology
from ghbound import (SimplicialComplex, betti_numbers, build_cech_witness, build_vr,
                     check_simplicial, circle, compose_maps, distortion,
                     equispaced_circle, euclidean, fundamental_class_survives,
                     gh_exact, flat_torus, inclusion_map, induced_vr_map,
                     uniform_points, vr_persistence_bars, VertexMap)
from ghbound.complexes import _MaskComplex

import oracles
from oracles import (HomologyBasis, gf2_rank_dense, induced_map, naive_betti,
                     naive_boundary_matrix, random_complex)


def closure_of(triangles, vertices, max_dim=2, scale=1.0):
    simplices = {0: {(v,) for v in range(vertices)}, 1: set(), 2: set()}
    for t in triangles:
        simplices[2].add(tuple(sorted(t)))
        for e in combinations(sorted(t), 2):
            simplices[1].add(e)
    return SimplicialComplex(vertices, scale, max_dim,
                             {k: tuple(v) for k, v in simplices.items()})


def test_cycle_graph():
    space = equispaced_circle(circle(), 6).to_metric_space()
    k = build_vr(space, 1.2, 2)
    assert betti_numbers(k, 1) == (1, 1)


def test_two_components():
    k = SimplicialComplex(4, 1.0, 1, {0: [(0,), (1,), (2,), (3,)],
                                      1: [(0, 1), (2, 3)]})
    assert betti_numbers(k, 0) == (2,)


def test_sphere_boundary_of_tetrahedron():
    full = {0: [(i,) for i in range(4)],
            1: list(combinations(range(4), 2)),
            2: list(combinations(range(4), 3))}
    k = SimplicialComplex(4, 1.0, 3, {**full, 3: []})
    assert betti_numbers(k, 2) == (1, 0, 1)


def test_solid_tetrahedron_is_contractible():
    full = {0: [(i,) for i in range(4)],
            1: list(combinations(range(4), 2)),
            2: list(combinations(range(4), 3)),
            3: [(0, 1, 2, 3)]}
    k = SimplicialComplex(4, 1.0, 3, full)
    assert betti_numbers(k, 2) == (1, 0, 0)


def test_seven_vertex_torus():
    triangles = [[(i) % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    triangles += [[(i) % 7, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
    k = closure_of(triangles, 7, max_dim=3)
    assert k.simplex_counts()[:3] == [7, 21, 14]
    assert betti_numbers(k, 2) == (1, 2, 1)


def test_six_vertex_projective_plane():
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    k = closure_of(triangles, 6, max_dim=3)
    assert k.simplex_counts()[:3] == [6, 15, 10]
    # over Z/2 the projective plane has beta = (1, 1, 1)
    assert betti_numbers(k, 2) == (1, 1, 1)


def test_betti_against_dense_elimination():
    rng = np.random.default_rng(0xBE771)
    for _ in range(60):
        k = random_complex(rng)
        up_to = k.max_dim - 1
        assert list(betti_numbers(k, up_to)) == naive_betti(k, up_to)


def test_empty_dimensions_cost_no_coface_search(monkeypatch):
    # a cap far above the simplices: a reduction step that built its cofaces
    # in every dimension up to cap 600 took 105 s on a point of R^5000 under
    # `homology --subset`; the first empty dimension ends the reduction
    calls = []
    mask_cofaces = homology._mask_cofaces

    def counted(faces, *args):
        calls.append(len(faces))
        return mask_cofaces(faces, *args)

    monkeypatch.setattr(homology, "_mask_cofaces", counted)
    triangle = equispaced_circle(circle(), 3).to_metric_space()
    for k in (build_vr(triangle, 4.0, 600),
              SimplicialComplex(3, 4.0, 600, build_vr(triangle, 4.0, 2).simplices)):
        calls.clear()
        assert betti_numbers(k, 599) == (1,) + (0,) * 599
        assert len(calls) <= 10


def test_vertex_count_past_the_listed_vertices_costs_nothing():
    # union-find was sized by vertex_count, which a complex file may set at
    # will: one edge at vertex_count 10^6 peaked at tens of MiB
    edge = SimplicialComplex(10**6, 1.0, 1, {0: [(0,), (1,)], 1: [(0, 1)]})
    tracemalloc.start()
    try:
        betti = betti_numbers(edge, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == (1,)
    assert peak < 2**20


def _count_columns_read(monkeypatch) -> list[int]:
    """Per reduction step, the columns whose earliest coface was read."""
    reads: list[int] = []
    pair_columns = homology._pair_columns

    def counted(cleared, keys, earliest, *rest):
        reads.append(0)

        def counting(j):
            reads[-1] += 1
            return earliest(j)

        return pair_columns(cleared, keys, counting, *rest)

    monkeypatch.setattr(homology, "_pair_columns", counted)
    return reads


def _unkilled(cx, k):
    """The k-simplices that kill no class: all but rank d_k of them."""
    return len(cx.simplices[k]) - gf2_rank_dense(naive_boundary_matrix(cx, k))


def test_cleared_columns_are_never_read(monkeypatch):
    # a k-simplex that kills a (k-1)-class is skipped by its key: dimension 1
    # skips the edges union-find merged with, masks and distance rows alike
    reads = _count_columns_read(monkeypatch)
    rng = np.random.default_rng(0xC1EA2)
    for _ in range(30):
        cx = random_complex(rng)
        reads.clear()
        betti_numbers(cx, cx.max_dim - 1)
        assert reads == [_unkilled(cx, k) for k in range(1, len(reads) + 1)]
    for seed in range(5):
        space = uniform_points(flat_torus([1.0, 1.0]), 12, seed).to_metric_space()
        reads.clear()
        vr_persistence_bars(space, 0.45, 2)
        assert reads == [_unkilled(build_vr(space, 0.45, 2), k) for k in (1, 2)]


def _cyclic_power_betti(n, k):
    """b_0..b_3 of the clique complex of C_n^k, 1 <= k < n/2, by Adamaszek."""
    betti = [1, 0, 0, 0]
    ratio, l = Fraction(k, n), 0
    while ratio > Fraction(l, 2 * l + 1):
        if ratio < Fraction(l + 1, 2 * l + 3):  # S^{2l+1}
            if 2 * l + 1 <= 3:
                betti[2 * l + 1] = 1
            return betti
        l += 1
    if 2 * l <= 3:  # a wedge of n - 2k - 1 copies of S^{2l}, l >= 1
        betti[2 * l] = n - 2 * k - 1
    return betti


@pytest.mark.parametrize("n, k", [(n, k) for n in range(5, 19)
                                  for k in range(1, (n + 1) // 2)])
def test_betti_of_cyclic_graph_powers_match_adamaszek(n, k):
    space = equispaced_circle(circle(), n).to_metric_space()
    cx = build_vr(space, 2 * np.pi / n * (k + 0.5), 4)  # fresh: nothing enumerated
    assert list(betti_numbers(cx, 3)) == _cyclic_power_betti(n, k)


@settings(max_examples=60, deadline=None)
@given(on_torus=st.booleans(), witnessed=st.booleans(), size=st.integers(3, 14),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 0.7),
       max_dim=st.integers(1, 4), per_axis=st.integers(4, 24), data=st.data())
def test_mask_complexes_never_store_the_top_dimension(on_torus, witnessed, size, seed,
                                                      scale, max_dim, per_axis, data):
    manifold = flat_torus([1.0, 1.0]) if on_torus else circle()
    subset = uniform_points(manifold, size, seed)
    far = float(subset.to_metric_space().dist.max())

    def fresh():
        if witnessed:
            return build_cech_witness(subset, scale * far, max_dim, per_axis)
        return build_vr(subset.to_metric_space(), scale * far, max_dim)

    stored = fresh()
    explicit = SimplicialComplex(stored.vertex_count, stored.scale, max_dim,
                                 stored.simplices)
    cx = fresh()
    kept = data.draw(st.integers(0, max_dim - 1), label="kept")
    queries = data.draw(st.permutations([None, None, "kept", *range(max_dim)]),
                        label="queries")
    for up_to in queries:
        if up_to is None:
            assert cx.simplex_counts() == explicit.simplex_counts()
        elif up_to == "kept":  # enumerated in between; later walks start afresh
            assert cx._skeleton(kept) == [explicit.simplices[k] for k in range(kept + 1)]
        else:
            assert betti_numbers(cx, up_to) == betti_numbers(explicit, up_to)
    assert "simplices" not in vars(cx)
    # no query leaves anything enumerated behind
    assert set(vars(cx)) == {"vertex_count", "scale", "max_dim", "_nbr", "_member"}


@settings(max_examples=40, deadline=None)
@given(witnessed=st.booleans(), size=st.integers(3, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.1, 0.8), max_dim=st.integers(0, 3), up_to=st.integers(0, 2))
def test_explicit_joins_match_the_masks_up_to_the_top(witnessed, size, seed, scale,
                                                      max_dim, up_to):
    subset = uniform_points(flat_torus([1.0, 1.0]), size, seed)
    cx = (build_cech_witness(subset, scale, max_dim, 16) if witnessed
          else build_vr(subset.to_metric_space(), scale, max_dim))
    # listed in reverse with each first simplex twice: the explicit complex
    # keeps only its index, and reads every dimension back in order
    explicit = SimplicialComplex(cx.vertex_count, cx.scale, max_dim,
                                 {d: found[::-1] + found[:1]
                                  for d, found in cx.simplices.items()})
    assert explicit.simplex_counts() == cx.simplex_counts()
    for k in range(max_dim + 1):
        assert explicit._skeleton(k) == cx._skeleton(k)
    if up_to < max_dim:
        assert betti_numbers(explicit, up_to) == betti_numbers(cx, up_to)
    for d in range(max_dim):
        for s in cx.simplices[d]:
            assert explicit._joins(s) == cx._joins(s)
            assert explicit._joins(s, True) == cx._joins(s, True)
    assert explicit.simplices == cx.simplices


def test_witnessed_hollow_triangle_keeps_its_cycle():
    # kept stars {0, 1}, {1, 2} and {0, 2}: every edge is dominated in the
    # graph, but no star holds a triangle, so no edge's link is a cone
    cx = _MaskComplex(3, 1.0, 2, [0b111] * 3, [0b101, 0b011, 0b110])
    assert cx._collapsed()._nbr == cx._nbr
    assert betti_numbers(cx, 1) == (1, 1)


_AMBIENTS = {"circle": circle(), "torus2": flat_torus([1.0, 1.0]),
             "torus3": flat_torus([1.0, 1.0, 1.0]), "r3": euclidean(3)}


def _farthest(subset) -> float:
    return float(subset.to_metric_space().dist.max())


@settings(max_examples=60, deadline=None)
@given(ambient=st.sampled_from(list(_AMBIENTS)), size=st.integers(4, 14),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 0.9),
       per_axis=st.integers(4, 24), per_axis_3=st.integers(2, 6))
def test_collapsed_betti_numbers_match_the_stored_path(ambient, size, seed, scale,
                                                       per_axis, per_axis_3):
    # VR of a sample of the drawn ambient, and witnessed Cech of a 2-torus
    # sample and of a 3-torus sample on a coarse witness grid, each at a
    # scale relative to its sample's largest distance
    sample = uniform_points(_AMBIENTS[ambient], size, seed)
    torus2 = uniform_points(_AMBIENTS["torus2"], size, seed)
    torus3 = uniform_points(_AMBIENTS["torus3"], size, seed)
    for cx in (build_vr(sample.to_metric_space(), scale * _farthest(sample), 4),
               build_cech_witness(torus2, scale * _farthest(torus2), 4, per_axis),
               build_cech_witness(torus3, scale * _farthest(torus3), 4, per_axis_3)):
        explicit = SimplicialComplex(cx.vertex_count, cx.scale, 4, cx.simplices)
        assert betti_numbers(cx, 3) == betti_numbers(explicit, 3)


def test_insufficient_skeleton_error():
    space = equispaced_circle(circle(), 5).to_metric_space()
    k = build_vr(space, 1.4, 1)
    with pytest.raises(ValueError, match="insufficient skeleton"):
        betti_numbers(k, 1)
    betti_numbers(k, 0)


def test_homology_basis_coordinates():
    space = equispaced_circle(circle(), 6).to_metric_space()
    k = build_vr(space, 1.2, 2)
    basis = HomologyBasis(k, 1)
    assert basis.betti == 1
    rep = basis.representatives[0]
    assert basis.coordinates(rep) == 1
    with pytest.raises(ValueError, match="not a cycle"):
        basis.coordinates(1)  # a single edge is not a cycle here


def test_induced_identity_is_identity():
    space = equispaced_circle(circle(), 8).to_metric_space()
    k = build_vr(space, 1.0, 2)
    hm = induced_map(inclusion_map(k, k), 1)
    assert hm.source_betti == hm.target_betti == 1
    assert hm.matrix == (1,)
    assert hm.is_isomorphism()


def test_collapse_kills_the_cycle():
    space = equispaced_circle(circle(), 6).to_metric_space()
    k = build_vr(space, 1.2, 2)
    target = build_vr(space, 7.0, 2)  # the full simplex on six vertices
    collapse = VertexMap(k, target, (0,) * 6)
    assert check_simplicial(collapse)
    hm = induced_map(collapse, 1)
    assert hm.source_betti == 1 and hm.target_betti == 0
    assert hm.matrix == (0,)
    assert not hm.is_injective()


def test_induced_requires_simplicial():
    space = equispaced_circle(circle(), 6).to_metric_space()
    k = build_vr(space, 1.2, 2)
    small = build_vr(space, 0.4, 2)  # no edges at all
    shrink = VertexMap(k, small, tuple(range(6)))
    with pytest.raises(ValueError, match="not simplicial"):
        induced_map(shrink, 1)


def _roundtrip_maps(phase=0.25, eps=0.9):
    c = circle()
    space_x = equispaced_circle(c, 8).to_metric_space()
    space_y = equispaced_circle(c, 8, phase=phase).to_metric_space()
    corr = gh_exact(space_x, space_y).correspondence
    dis = distortion(corr, space_x, space_y)
    r = dis + 1e-6
    source = build_vr(space_y, eps, 3)
    f = induced_vr_map(corr, space_x, space_y, source, r, max_dim=3, dis=dis)
    g = induced_vr_map(corr.transpose(), space_y, space_x, f.target, r, max_dim=3,
                       dis=dis)
    return f, g, source


def test_functoriality_matches_matrix_product():
    f, g, _source = _roundtrip_maps()
    composed = compose_maps(g, f)
    direct = induced_map(composed, 1)
    factored = induced_map(g, 1).after(induced_map(f, 1))
    assert direct.matrix == factored.matrix
    assert direct.source_betti == factored.source_betti


def test_contiguous_maps_induce_equal_homology():
    f, g, source = _roundtrip_maps()
    roundtrip = compose_maps(g, f)
    include = inclusion_map(source, g.target)
    hm_round = induced_map(roundtrip, 1)
    hm_inc = induced_map(include, 1)
    assert hm_round.matrix == hm_inc.matrix
    assert hm_inc.is_isomorphism()


def test_fundamental_class_survives_below_death():
    space = equispaced_circle(circle(), 12).to_metric_space()
    base = build_vr(space, 0.6, 2)
    mid = build_vr(space, 1.8, 2)
    assert fundamental_class_survives(base, mid, 1)


def test_fundamental_class_dies_past_one_third():
    space = equispaced_circle(circle(), 12).to_metric_space()
    base = build_vr(space, 0.6, 2)
    # 4 of 12 neighbor steps per side: edge fraction 1/3, the cycle fills in
    late = build_vr(space, 2.2, 2)
    assert betti_numbers(late, 1)[1] == 0
    assert not fundamental_class_survives(base, late, 1)


def test_survives_with_explicit_vertex_image():
    c = circle()
    sub_y = equispaced_circle(c, 6)
    extra = uniform_points(c, 3, seed=5)
    merged = np.vstack([sub_y.points, extra.points])
    from ghbound import FiniteSubset
    space_z = FiniteSubset(c, merged).to_metric_space()
    space_y = sub_y.to_metric_space()
    small = build_vr(space_y, 1.2, 2)
    big = build_vr(space_z, 1.2, 2)
    # Y sits at indices 0..5 inside Z; distances agree, so inclusion is simplicial
    assert fundamental_class_survives(small, big, 0, vertex_image=range(6))


def test_inclusion_must_be_simplicial():
    space = equispaced_circle(circle(), 6).to_metric_space()
    big = build_vr(space, 1.2, 2)
    small = build_vr(space, 0.4, 2)
    with pytest.raises(ValueError, match="must contain"):
        fundamental_class_survives(big, small, 0)


def test_survival_needs_an_injective_vertex_image():
    space = equispaced_circle(circle(), 6).to_metric_space()
    small = build_vr(space, 1.2, 2)
    big = build_vr(space, 7.0, 2)
    with pytest.raises(ValueError, match="injective"):
        fundamental_class_survives(small, big, 1, vertex_image=(0, 0, 1, 2, 3, 4))


def test_survival_needs_the_skeleton_above():
    space = equispaced_circle(circle(), 6).to_metric_space()
    thin = build_vr(space, 1.2, 1)
    full = build_vr(space, 1.2, 2)  # no triangles at this scale
    for small, big in ((thin, full), (full, thin)):
        with pytest.raises(ValueError, match="insufficient skeleton"):
            fundamental_class_survives(small, big, 1)


@settings(max_examples=150, deadline=None)
@given(on_torus=st.booleans(), size=st.integers(5, 13), seed=st.integers(0, 2**32 - 1),
       low=st.floats(0.05, 0.9), grow=st.floats(0.0, 1.0), data=st.data())
def test_survival_matches_the_induced_map_oracle(on_torus, size, seed, low, grow, data):
    manifold = flat_torus([1.0, 1.0]) if on_torus else circle()
    space = uniform_points(manifold, size, seed).to_metric_space()
    far = float(space.dist.max())
    small_scale = low * far
    big_scale = small_scale + grow * (1.0 - low) * far + 1e-9
    dim = data.draw(st.integers(0, manifold.dim), label="dim")
    big = build_vr(space, big_scale, dim + 1)
    if data.draw(st.booleans(), label="embed a shuffled subset"):
        order = data.draw(st.permutations(range(size)), label="order")
        image = order[:data.draw(st.integers(1, size), label="subset size")]
        small = build_vr(space.submatrix(image), small_scale, dim + 1)
    else:
        image = None
        small = build_vr(space, small_scale, dim + 1)
    assert (fundamental_class_survives(small, big, dim, vertex_image=image)
            == oracles.fundamental_class_survives(small, big, dim, vertex_image=image))
