"""Readers and round trips for the JSON file formats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ghbound import (FiniteMetricSpace, FiniteSubset, build_vr, circle,
                     euclidean, flat_torus, uniform_points)
from ghbound.serialize import (complex_from_dict, load_space, manifold_from_dict,
                               manifold_to_dict, metric_space_from_dict, read_json,
                               subset_from_dict, subset_to_dict, write_json)


@pytest.mark.parametrize("m", [
    circle(),
    circle(5.0, rho=0.7),
    flat_torus([1.0, 2.0, 3.0], kappa=0.0),
    euclidean(4),
    euclidean(2, rho=9.0, kappa=-1.0, fill_rad=0.25),
])
def test_manifold_round_trip(m):
    d = json.loads(json.dumps(manifold_to_dict(m)))
    back = manifold_from_dict(d)
    assert back == m


def test_manifold_defaults_fill_in():
    m = manifold_from_dict({"kind": "circle"})
    assert m.params[0] == pytest.approx(math.tau)
    assert m.rho == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError, match="flat_torus manifold needs 'params'"):
        manifold_from_dict({"kind": "flat_torus"})
    with pytest.raises(ValueError, match="dim"):
        manifold_from_dict({"kind": "euclidean"})
    # a null rho or fill_rad is unknown, so the model's default applies
    flat = manifold_from_dict({"kind": "euclidean", "dim": 2, "rho": None})
    assert flat.rho == math.inf
    assert manifold_from_dict({"kind": "circle", "rho": None, "fill_rad": None}) == m
    with pytest.raises(ValueError, match="unknown manifold"):
        manifold_from_dict({"kind": "sphere"})


@pytest.mark.parametrize("d", [
    {"kind": "circle", "params": 0},
    {"kind": "circle", "params": None},
    {"kind": "circle", "params": []},
    {"kind": "circle", "params": "6.28"},
    {"kind": "circle", "params": [1.0, 2.0]},
    {"kind": "flat_torus", "params": 5},
    {"kind": "flat_torus", "params": "ab"},
    {"kind": "flat_torus", "params": [1.0, True]},
])
def test_manifold_params_must_be_a_list_of_numbers(d):
    # only a missing circle 'params' means the default circumference 2*pi
    with pytest.raises(ValueError, match="'params' must be a list of"):
        manifold_from_dict(d)


def test_subset_round_trip(tmp_path):
    sub = uniform_points(flat_torus([2.0, 3.0]), 7, seed=5)
    path = tmp_path / "sub.json"
    write_json(subset_to_dict(sub), str(path))
    back = subset_from_dict(read_json(str(path)))
    assert back.manifold == sub.manifold
    assert np.array_equal(back.points, sub.points)
    with pytest.raises(ValueError, match="subset JSON"):
        subset_from_dict({"points": [[0.0]]})


def test_metric_space_round_trip_and_default_labels():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    space = FiniteMetricSpace(dist)
    back = metric_space_from_dict({"dist": dist.tolist()})
    assert np.array_equal(back.dist, space.dist)
    # labels are checked, then dropped: a labeled file loads the same space
    labeled = metric_space_from_dict({"labels": ["a", "b", "c"], "dist": dist.tolist()})
    assert np.array_equal(labeled.dist, space.dist)
    with pytest.raises(ValueError, match="dist"):
        metric_space_from_dict({"labels": ["a"]})


def test_load_space_dispatch():
    sub = uniform_points(circle(), 5, seed=1)
    from_subset = load_space(subset_to_dict(sub))
    assert from_subset.dist.shape == (5, 5)
    direct = load_space({"dist": sub.to_metric_space().dist.tolist()})
    assert np.array_equal(direct.dist, from_subset.dist)


def test_complex_round_trip_preserves_empty_top_dimension():
    sub = FiniteSubset(circle(), [[0.0], [0.1], [3.0]])
    komplex = build_vr(sub.to_metric_space(), 0.5, max_dim=2)
    assert not komplex.simplices[2]  # the far point blocks any triangle
    d = {"scale": 0.5, "vertex_count": 3,
         "simplices": {"0": [[0], [1], [2]], "1": [[0, 1]], "2": []}}
    back = complex_from_dict(d)
    assert back.max_dim == 2
    assert back.vertex_count == 3
    assert back.scale == komplex.scale
    assert back.simplices == komplex.simplices


def test_complex_vertex_count_inferred():
    back = complex_from_dict({"scale": 1.0,
                              "simplices": {"0": [[0], [1], [4]], "1": [[0, 1]]}})
    assert back.vertex_count == 5
    with pytest.raises(ValueError, match="complex JSON"):
        complex_from_dict({"scale": 1.0})


def test_write_json_returns_text(tmp_path):
    text = write_json({"b": 1, "a": 2}, None)
    assert text.index('"a"') < text.index('"b"')
    path = tmp_path / "out.json"
    write_json({"x": [1, 2]}, str(path))
    assert read_json(str(path)) == {"x": [1, 2]}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad):
    # NaN and Infinity are not JSON; a run that produced one exits 1 instead
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json({"x": [1.0, bad]}, str(path))
    assert not path.exists()
