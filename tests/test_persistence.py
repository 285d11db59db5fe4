"""The one-pass persistence path against the per-scale snapshot path.

Oracle notes
------------
* fillrad-estimate reads its betti and survives rows off one reduction of the
  VR filtration at the top of the grid. The reference rebuilds VR at every
  grid scale and takes Betti numbers from HomologyBasis and survival from the
  inclusion-induced map (fundamental_class_survives); both must agree on
  random circle and small torus samples with random grids, and a sample the
  command rejects as too sparse must have beta_n != 1 at the grid start.
* betti_numbers (pivot-only reduction with clearing) must equal
  HomologyBasis and dense elimination (oracles.naive_betti) on random VR and
  witnessed Cech complexes of torus samples.
* persistence_bars must reproduce betti_numbers of every sublevel complex.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghbound import (FiniteSubset, betti_numbers, build_cech_witness, build_vr,
                     circle, cli, cross_distances, equispaced_circle, flat_torus,
                     fundamental_class_survives, grid_points, persistence_bars,
                     simplex_diameters, uniform_points)
from ghbound.homology import HomologyBasis
from ghbound.serialize import subset_to_dict, write_json

from oracles import naive_betti

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
    got = list(betti_numbers(cx, 2).values)
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
    torus = flat_torus([1.0, 1.0])
    sample = _torus_sample(size, seed)
    cross = cross_distances(torus, grid_points(torus, 8).points, sample.points)
    _assert_betti_agree(build_cech_witness(cross, radius, 3))


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
        assert alive == list(betti_numbers(build_vr(space, float(s), 3), 2).values)
