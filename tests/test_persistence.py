"""The one-pass persistence path against the per-scale snapshot path.

Oracle notes
------------
* fillrad-estimate reads its betti and survives rows off one reduction of the
  VR filtration at the top of the grid. The reference rebuilds VR at every
  grid scale and takes Betti numbers from oracles.HomologyBasis and survival
  from the inclusion-induced map (oracles.fundamental_class_survives), so its
  homology shares no code with the persistence pass; both must agree on
  random circle and small torus samples with random grids, and a sample the
  command rejects as too sparse must have beta_n != 1 at the grid start.
* betti_numbers (the coboundary reduction) must equal
  oracles.HomologyBasis and dense elimination (oracles.naive_betti) on random
  VR and witnessed Cech complexes of torus samples.
* vr_persistence_bars must reproduce betti_numbers of every sublevel complex.
* betti_numbers on a 300-point witnessed Cech complex (tetrahedra as the top
  dimension) must peak below 10 MiB under tracemalloc, which also counts
  numpy's buffers. The homology reduction it replaced peaked at 16.6 MiB.
  On a fresh copy, simplex_counts and betti_numbers together must peak below
  7 MiB: neither stores the tetrahedra (storing them read 8.61 MiB).
* vr_persistence_bars (union-find for dimension 0, then a coboundary
  reduction with clearing and emergent pairs off the distance rows) must
  equal oracles.standard_barcode row for row: the textbook reduction of the
  whole filtered boundary matrix, with no clearing and none of the library's
  homology code. Inputs are VR filtrations of jittered circles and tori,
  equispaced circles (whose diameters tie), and the stored filtration
  (oracles.vr_values on the enumerated complex) of uniform and equispaced
  circle and 2-torus samples of up to 30 points, and of 1,700 torus points
  where its row keys pass int64; _row_keys must give exact keys that order
  like (rank, row) past int64. The oracle's columns are integer bitsets, so
  30 uniform points at full reach (27,027 tetrahedra) fit.
* On 60 and 120 equispaced circle points at 2.49, where one cocycle is XORed
  with hundreds of columns and the oracle's matrix does not fit, the bars
  must keep their SHA-256 digests, and H_1 must have exactly one bar of
  positive length, [2 pi / N, 2 pi / 3) to 1e-12: VR(Y_N) is a circle from
  the first edge until its edges reach a third of the circle (Adamaszek and
  Adams, "The Vietoris-Rips complexes of a circle", Pacific J. Math. 2017).
  200 of them must peak below 10 MiB under tracemalloc (8.6 MiB measured).
* A VR column, built off one row maximum, must hold exactly the _row_keys of
  its cofaces listed one by one, in int64 and past it.
* _HeapColumn must agree with a set of keys under chains of ^= with built
  columns and with reduced heaps: its truth value, its pivot (the least key
  left) and its compacted keys, on int64 keys and on keys past int64.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghbound import (FiniteSubset, betti_numbers, build_cech_witness, build_vr,
                     circle, cli, equispaced_circle, flat_torus, grid_points,
                     uniform_points, vr_persistence_bars)
from ghbound.homology import _diameters, _HeapColumn, _row_keys, _vr_cofaces
from ghbound.serialize import subset_to_dict, write_json

from oracles import (HomologyBasis, fundamental_class_survives, naive_betti,
                     standard_barcode, vr_values)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _snapshot_rows(space, grid, n):
    """Per-scale rows the way the sweep computed them before the one pass."""
    base = build_vr(space, float(grid[0]), n + 1)
    betti, survives = [], []
    for s in grid:
        cx = build_vr(space, float(s), n + 1)
        betti.append([HomologyBasis(cx, k).betti for k in range(n + 1)])
        survives.append(fundamental_class_survives(base, cx, n))
    return betti, survives


def _check_fillrad_against_snapshots(tmp_path, subset, start, stop, steps):
    n = subset.manifold.dim
    x = tmp_path / "x.json"
    write_json(subset_to_dict(subset), str(x))
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": subset.manifold.kind,
                     "params": list(subset.manifold.params)},
        "sampler": {"kind": "file", "x": [str(x)]}, "count": subset.size,
        "scale_grid": {"start": start, "stop": stop, "steps": steps}}))
    out = tmp_path / "out.json"
    code = cli.main(["fillrad-estimate", "--config", str(cfg), "--out", str(out)])
    grid = np.linspace(start, stop, steps)
    betti, survives = _snapshot_rows(subset.to_metric_space(), grid, n)
    if code == 1:  # rejected: the base complex does not carry one n-class
        assert betti[0][n] != 1
        return
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["scales"] == grid.tolist()
    assert payload["betti"] == betti
    assert payload["survives"] == survives
    death = payload["death_scale"]
    if payload["censored"]:
        assert death is None
    else:
        assert grid[0] <= death < grid[-1]
        assert all(not ok for s, ok in zip(grid, survives) if s > death)


def _jittered(points, per_cell, jitter, seed):
    """Points moved by up to jitter/2 of a grid cell in each coordinate."""
    shift = np.random.default_rng(seed).uniform(-0.5, 0.5, points.shape)
    return points + jitter * shift * per_cell


@SETTINGS
@given(size=st.integers(6, 16), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.0, 0.8), start=st.floats(0.5, 2.0),
       width=st.floats(0.05, 2.5), steps=st.integers(2, 9))
def test_fillrad_rows_match_snapshots_on_the_circle(tmp_path, size, seed, jitter,
                                                    start, width, steps):
    ring = circle()
    points = _jittered(equispaced_circle(ring, size).points, ring.params[0] / size,
                       jitter, seed)
    subset = FiniteSubset(ring, points % ring.params[0])
    _check_fillrad_against_snapshots(tmp_path, subset, start, start + width, steps)


@SETTINGS
@given(per_axis=st.integers(4, 5), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.0, 0.15), start=st.floats(0.3, 0.5),
       width=st.floats(0.02, 0.3), steps=st.integers(2, 6))
def test_fillrad_rows_match_snapshots_on_the_torus(tmp_path, per_axis, seed, jitter,
                                                   start, width, steps):
    torus = flat_torus([1.0, 1.0])
    points = _jittered(grid_points(torus, per_axis).points, 1.0 / per_axis,
                       jitter, seed)
    subset = FiniteSubset(torus, points % 1.0)
    _check_fillrad_against_snapshots(tmp_path, subset, start, start + width, steps)


def _torus_sample(size, seed):
    return uniform_points(flat_torus([1.0, 1.0]), size, seed)


def _assert_betti_agree(cx):
    got = list(betti_numbers(cx, 2))
    assert got == naive_betti(cx, 2)
    assert got == [HomologyBasis(cx, k).betti for k in range(3)]


@settings(max_examples=40, deadline=None)
@given(size=st.integers(4, 11), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.1, 0.8))
def test_betti_matches_dense_elimination_on_torus_vr(size, seed, scale):
    _assert_betti_agree(build_vr(_torus_sample(size, seed).to_metric_space(), scale, 3))


@settings(max_examples=40, deadline=None)
@given(size=st.integers(4, 11), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.1, 0.5))
def test_betti_matches_dense_elimination_on_torus_witness_cech(size, seed, radius):
    _assert_betti_agree(build_cech_witness(_torus_sample(size, seed), radius, 3, 8))


@settings(max_examples=30, deadline=None)
@given(size=st.integers(4, 11), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.2, 0.8))
def test_bars_give_betti_numbers_of_every_sublevel_complex(size, seed, scale):
    space = _torus_sample(size, seed).to_metric_space()
    bars = vr_persistence_bars(space, scale, 2)
    edges = space.dist[np.triu_indices(size, 1)]
    for s in np.unique(np.concatenate([edges[edges < scale], [scale]])):
        alive = [int(((b[:, 0] < s) & (s <= b[:, 1])).sum()) for b in bars.values()]
        assert alive == list(betti_numbers(build_vr(space, float(s), 3), 2))


def test_betti_of_a_300_point_witnessed_cech_complex_peaks_below_10_mib():
    torus = flat_torus([1.0, 1.0])
    cell = np.arange(300)  # one uniform point per cell of a 20 x 15 grid
    u = uniform_points(torus, 300, 5).points
    points = np.stack([(cell % 20 + u[:, 0]) / 20, (cell // 20 + u[:, 1]) / 15],
                      axis=1)
    cx = build_cech_witness(FiniteSubset(torus, points), 0.08, 3, 64)
    assert cx.simplex_counts() == [300, 3224, 11012, 18614]
    tracemalloc.start()
    try:
        betti = betti_numbers(cx, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == (1, 2, 1)
    assert peak < 10 * 2**20


def test_counts_and_betti_of_a_fresh_300_point_witnessed_cech_complex_peak_below_7_mib():
    # the same complex, with nothing enumerated before tracing starts: the
    # tetrahedra are only counted, never stored (the stored path read 8.61 MiB)
    torus = flat_torus([1.0, 1.0])
    cell = np.arange(300)
    u = uniform_points(torus, 300, 5).points
    points = np.stack([(cell % 20 + u[:, 0]) / 20, (cell // 20 + u[:, 1]) / 15],
                      axis=1)
    cx = build_cech_witness(FiniteSubset(torus, points), 0.08, 3, 64)
    tracemalloc.start()
    try:
        counts = cx.simplex_counts()
        betti = betti_numbers(cx, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [300, 3224, 11012, 18614]
    assert betti == (1, 2, 1)
    assert peak < 7 * 2**20


def _assert_same_bars(got, want):
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def _assert_vr_bars_match_the_oracle(space, scale, up_to):
    top = build_vr(space, scale, up_to + 1)
    _assert_same_bars(vr_persistence_bars(space, scale, up_to),
                      standard_barcode(top, vr_values(top, space.dist), up_to))


@SETTINGS
@given(size=st.integers(3, 9), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.0, 0.8), scale=st.floats(0.5, 7.0),
       up_to=st.integers(0, 1))
def test_bars_match_the_oracle_on_jittered_circles(size, seed, jitter, scale, up_to):
    ring = circle()
    points = _jittered(equispaced_circle(ring, size).points, ring.params[0] / size,
                       jitter, seed)
    space = FiniteSubset(ring, points % ring.params[0]).to_metric_space()
    _assert_vr_bars_match_the_oracle(space, scale, up_to)


@SETTINGS
@given(size=st.integers(3, 10), scale=st.floats(0.5, 7.0), up_to=st.integers(0, 1))
def test_bars_match_the_oracle_on_equispaced_circles(size, scale, up_to):
    space = equispaced_circle(circle(), size).to_metric_space()
    _assert_vr_bars_match_the_oracle(space, scale, up_to)


@SETTINGS
@given(per_axis=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.0, 0.8), scale=st.floats(0.2, 0.9))
def test_bars_match_the_oracle_on_jittered_tori(per_axis, seed, jitter, scale):
    torus = flat_torus([1.0, 1.0])
    points = _jittered(grid_points(torus, per_axis).points, 1.0 / per_axis,
                       jitter, seed)
    space = FiniteSubset(torus, points % 1.0).to_metric_space()
    _assert_vr_bars_match_the_oracle(space, scale, 2)


@SETTINGS
@given(size=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
       torus=st.booleans(), equispaced=st.booleans(), reach=st.floats(0.02, 1.0),
       up_to=st.integers(0, 2))
def test_vr_bars_match_the_stored_filtration(size, seed, torus, equispaced, reach,
                                             up_to):
    # equispaced samples tie in their diameters, so (diameter, lex) decides
    if torus:
        m = flat_torus([1.0, 1.0])
        subset = (grid_points(m, min(5, round(size ** 0.5))) if equispaced
                  else uniform_points(m, size, seed))
    else:
        m = circle()
        subset = (equispaced_circle(m, size) if equispaced
                  else uniform_points(m, size, seed))
    space = subset.to_metric_space()
    _assert_vr_bars_match_the_oracle(space, reach * float(space.dist.max()), up_to)


def test_vr_bars_match_the_stored_filtration_past_int64_keys():
    # 1,700 points have so many distinct distances that tetrahedron keys pass
    # int64, so the last step keys its rows by Python integers
    space = uniform_points(flat_torus([1.0, 1.0]), 1700, 3).to_metric_space()
    assert len(np.unique(space.dist)) * 1700 ** 4 > 2 ** 63
    _assert_vr_bars_match_the_oracle(space, 0.035, 2)


def test_row_keys_stay_exact_and_ordered_past_int64():
    # triangles of 7,200 circle points with all C(7200, 2) + 1 distance levels
    n, levels = 7200, 7200 * 7199 // 2 + 1
    rng = np.random.default_rng(0)
    rows = np.sort(rng.choice(n, (200, 3)), axis=1)
    rows[:40] = rows[40:80]  # equal rows under different ranks
    rows[0] = (n - 3, n - 2, n - 1)
    rank = rng.integers(levels - 3, levels, 200)
    rank[80:120] = rank[120:160]  # equal ranks over different rows
    keys = _row_keys(rank, rows, n, levels)
    want = [int(r) * n ** 3 + int(a) * n ** 2 + int(b) * n + int(c)
            for r, (a, b, c) in zip(rank, rows)]
    assert keys.dtype == object
    assert keys.tolist() == want
    assert max(want) >= 2 ** 63  # int64 would have wrapped
    by_key = sorted(range(200), key=want.__getitem__)
    assert by_key == sorted(range(200), key=lambda i: (rank[i], tuple(rows[i])))
    # at the boundary the largest key is 2**63 - 1, and int64 holds it
    top = _row_keys(np.array([2 ** 32 - 1]), np.array([[2 ** 31 - 1]]), 2 ** 31, 2 ** 32)
    assert top.dtype == np.int64 and top.tolist() == [2 ** 63 - 1]


# SHA-256 of the bars' little-endian doubles, dimension by dimension
LONG_COCYCLE_BARS = {
    60: "867bf5da8afaf82e765e1ef633a65e7c92db385fca8741aa1d831ec6cbe1e393",
    120: "c7e3ca6c725431a9de267f2b7ddb85bee2e4bd30c3a753f998388a07bebc6107",
}


def test_vr_bars_on_long_cocycles_keep_their_digests_and_the_circle_class():
    # the circle's H_1 cocycle is XORed with hundreds of columns
    for size, want in LONG_COCYCLE_BARS.items():
        space = equispaced_circle(circle(), size).to_metric_space()
        bars = vr_persistence_bars(space, 2.49, 1)
        digest = hashlib.sha256()
        for k in sorted(bars):
            digest.update(np.ascontiguousarray(bars[k], dtype="<f8").tobytes())
        assert digest.hexdigest() == want, size
        lasting = bars[1][bars[1][:, 0] < bars[1][:, 1]]
        assert lasting.shape == (1, 2)
        assert lasting[0] == pytest.approx([2 * np.pi / size, 2 * np.pi / 3], abs=1e-12)


def test_vr_bars_of_200_circle_points_peak_below_10_mib():
    space = equispaced_circle(circle(), 200).to_metric_space()
    tracemalloc.start()
    try:
        bars = vr_persistence_bars(space, 2.49, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lasting = bars[1][bars[1][:, 0] < bars[1][:, 1]]
    # the circle's class dies at the first distance past 2 pi / 3
    assert lasting[:, 1].tolist() == pytest.approx([2 * np.pi * 67 / 200])
    assert peak < 10 * 2**20


def test_vr_columns_hold_the_row_keys_of_their_cofaces():
    # faces of 2 vertices key their cofaces in int64, faces of 8 past it
    ring = circle()
    points = uniform_points(ring, 100, 11).points
    space = FiniteSubset(ring, points).to_metric_space()
    dist, levels, n = space.dist, np.unique(space.dist), 100
    by_angle = np.argsort(points[:, 0])
    rng = np.random.default_rng(1)
    for size in (2, 8):
        # each face lies in a window of 12 consecutive points, so it is a simplex
        faces = np.sort([rng.choice(np.roll(by_angle, -start)[:12], size, replace=False)
                         for start in rng.integers(0, n, 30)], axis=1)
        diam = _diameters(faces, dist)
        scale = 2.5
        assert diam.max() < scale
        column = _vr_cofaces(faces, diam, dist, scale, levels)[0][2]
        for j, f in enumerate(faces):
            u = np.array([v for v in range(n)
                          if v not in f and dist[f, v].max() < scale])
            rows = np.sort(np.column_stack((np.broadcast_to(f, (len(u), size)), u)),
                           axis=1)
            at = np.maximum(dist[np.ix_(f, u)].max(axis=0), diam[j])
            want = np.sort(_row_keys(np.searchsorted(levels, at), rows, n, len(levels)))
            got = column(j).sorted_keys()
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert (got.dtype == object) == (size == 8)


@pytest.mark.parametrize("offset", [0, 2 ** 64])
def test_heap_columns_reduce_like_sets_of_keys(offset):
    rng = np.random.default_rng(offset % 7)
    dtype = np.int64 if offset == 0 else object

    def built(keys):
        return _HeapColumn(np.array(sorted(k + offset for k in keys), dtype=dtype))

    for _ in range(200):
        sets = [set(rng.choice(40, rng.integers(0, 12), replace=False).tolist())
                for _ in range(6)]
        reduced = built(sets[0])  # a reduced heap that is later XORed in
        want_reduced = set(sets[0])
        for keys in sets[1:3]:
            reduced ^= built(keys)
            want_reduced ^= keys
        assert bool(reduced) == bool(want_reduced)
        col, want = built(sets[3]), set(sets[3])
        for other, keys in ((built(sets[4]), sets[4]), (reduced, want_reduced),
                            (built(sets[5]), sets[5]), (built(sets[3]), sets[3])):
            col ^= other
            want ^= keys
            assert bool(col) == bool(want)
            if want:
                assert col.pivot() == min(want) + offset
            assert bool(col) == bool(want)  # the truth test changes nothing
        assert col.sorted_keys().tolist() == sorted(k + offset for k in want)
