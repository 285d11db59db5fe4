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
* persistence_bars must reproduce betti_numbers of every sublevel complex.
* betti_numbers on a 300-point witnessed Cech complex (tetrahedra as the top
  dimension) must peak below 10 MiB under tracemalloc, which also counts
  numpy's buffers. The homology reduction it replaced peaked at 16.6 MiB.
* persistence_bars (a coboundary reduction with clearing and emergent pairs)
  must equal oracles.standard_barcode row for row: the textbook reduction of
  the dense boundary matrix, with no clearing and none of the library's
  homology code. Inputs are VR filtrations of jittered circles and tori,
  equispaced circles (whose diameters tie), and random complexes
  with random face-monotone values drawn from a few levels (ties again).
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghbound import (FiniteSubset, betti_numbers, build_cech_witness, build_vr,
                     circle, cli, equispaced_circle, flat_torus, grid_points,
                     persistence_bars, simplex_diameters, uniform_points)
from ghbound.serialize import subset_to_dict, write_json

from oracles import (HomologyBasis, fundamental_class_survives, naive_betti,
                     random_complex, standard_barcode)

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
    top = build_vr(space, scale, 3)
    values = simplex_diameters(top, space.dist)
    bars = persistence_bars(top, values, 2)
    for s in np.unique(np.concatenate([values[1], [scale]])):
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


def _assert_bars_match_the_oracle(cx, values, up_to):
    got = persistence_bars(cx, values, up_to)
    want = standard_barcode(cx, values, up_to)
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def _assert_vr_bars_match_the_oracle(space, scale, up_to):
    top = build_vr(space, scale, up_to + 1)
    _assert_bars_match_the_oracle(top, simplex_diameters(top, space.dist), up_to)


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
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 5))
def test_bars_match_the_oracle_on_random_complexes(seed, levels):
    rng = np.random.default_rng(seed)
    cx = random_complex(rng, cap=120)
    values = {}
    for k in range(cx.max_dim + 1):  # each simplex enters no earlier than its faces
        own = rng.integers(0, levels, len(cx.simplices[k])).astype(np.float64)
        if k:
            index = {s: i for i, s in enumerate(cx.simplices[k - 1])}
            for i, s in enumerate(cx.simplices[k]):
                own[i] = max(own[i], *(values[k - 1][index[s[:d] + s[d + 1:]]]
                                       for d in range(k + 1)))
        values[k] = own
    _assert_bars_match_the_oracle(cx, values, cx.max_dim - 1)
