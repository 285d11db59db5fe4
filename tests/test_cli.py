"""End-to-end command-line runs through cli.main."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import ghbound
from ghbound import (FiniteSubset, SplitMix64, build_cech_witness, circle, cli,
                     equispaced_circle, euclidean, flat_torus, grid_points,
                     uniform_points)
from ghbound.serialize import read_json, subset_from_dict, subset_to_dict, write_json

from oracles import random_complex


def _subset_file(tmp_path, name, subset):
    path = tmp_path / name
    write_json(subset_to_dict(subset), str(path))
    return str(path)


def _complex_file(tmp_path, name, cx):
    """cx as a complex file that lists every simplex, for `homology --complex`."""
    path = tmp_path / name
    path.write_text(json.dumps({"scale": cx.scale, "vertex_count": cx.vertex_count,
                                "simplices": {str(k): [list(s) for s in found]
                                              for k, found in cx.simplices.items()}}))
    return str(path)


def _run(argv):
    return cli.main(argv)


# ------------------------------------------------------------------- bounds


def test_bounds_pair_circle(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 12))
    y = _subset_file(tmp_path, "y.json", equispaced_circle(circle(), 24))
    assert _run(["bounds", "--x", x, "--y", y]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["dh_xm"] == pytest.approx(math.pi / 12)
    assert payload["inputs"]["dh_ym"] == pytest.approx(math.pi / 24)
    (report,) = [r for r in payload["reports"] if r["bound"] == "circle-pair"]
    assert report["terms"]["hausdorff_term"] == pytest.approx(math.pi / 12 - math.pi / 24)


def test_bounds_single_subset_defaults(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 10))
    assert _run(["bounds", "--x", x]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [r["bound"] for r in payload["reports"]]
    # circle manifold, no fill_rad constant: convexity + circle + jung variants
    assert names == ["convexity", "circle", "jung-pair"]
    assert "dh_ym" not in payload["inputs"]
    circle_report = payload["reports"][1]
    assert circle_report["lower_bound"] == pytest.approx(math.pi / 10)
    assert circle_report["flags"]["certified_equality"] is True


def test_bounds_raw_inputs(tmp_path, capsys):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"dh_xm": 0.2, "dh_ym": 0.05, "rho": 1.5,
                                  "kappa": 0.0, "n": 2, "fill_rad": 0.5}))
    assert _run(["bounds", "--inputs", str(inputs)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["bound"] for r in payload["reports"]] == [
        "convexity-pair", "fillrad-pair", "jung-pair"]
    conv = payload["reports"][0]
    assert conv["terms"]["hausdorff_term"] == pytest.approx(0.2 / 2 - 0.05)


def test_bounds_inputs_default_to_every_applicable_bound(tmp_path, capsys):
    # the rule --x uses: every bound whose constants are present and not null;
    # jung needs n and kappa, which the first two rows do not carry
    inputs = tmp_path / "inputs.json"
    raw = {"dh_xm": 0.2, "rho": 1.5, "circumference": 6.0}
    for extra, names in (({"fill_rad": 0.9}, ["convexity", "circle", "fillrad"]),
                         ({"fill_rad": None}, ["convexity", "circle"]),
                         ({"fill_rad": 0.9, "kappa": 0.0, "n": 1},
                          ["convexity", "circle", "fillrad", "jung-pair"])):
        inputs.write_text(json.dumps({**raw, **extra}))
        assert _run(["bounds", "--inputs", str(inputs)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["bound"] for r in payload["reports"]] == names


def test_bounds_torus_witness_hausdorff(tmp_path, capsys):
    m = flat_torus([1.0, 1.0])
    x = _subset_file(tmp_path, "x.json", uniform_points(m, 9, seed=3))
    assert _run(["bounds", "--x", x, "--witness-grid", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["dh_xm"] > 0
    assert [r["bound"] for r in payload["reports"]] == ["convexity", "jung-pair"]


def test_bounds_torus_pair_over_estimates_dh_ym(tmp_path, capsys):
    # the 64-per-axis witness grid puts d_H(Y, M) at 0.3480 < sqrt(2)/4; fed
    # into the subtracted Y side that made convexity-pair non-vacuous (0.0011)
    m = flat_torus([1.0, 1.0], rho=10.0)
    off = 0.25 + 1 / 256
    x = _subset_file(tmp_path, "x.json", FiniteSubset(m, [[0.1, 0.1]]))
    y = _subset_file(tmp_path, "y.json", FiniteSubset(
        m, [[off, off], [off + 0.5, off], [off, off + 0.5], [off + 0.5, off + 0.5]]))
    assert _run(["bounds", "--x", x, "--y", y]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["dh_ym"] >= math.sqrt(2) / 4
    conv = payload["reports"][0]
    assert conv["bound"] == "convexity-pair"
    assert conv["vacuous"] is True
    assert conv["inputs"]["dh_ym"] == payload["inputs"]["dh_ym"]


def test_bounds_errors(tmp_path, capsys):
    assert _run(["bounds"]) == 1
    assert "needs --x" in capsys.readouterr().err
    assert _run(["bounds", "--x", str(tmp_path / "missing.json")]) == 1


_CONSTANTS = {"rho": 1.5, "circumference": 6.0, "fill_rad": 0.9, "kappa": 1.0, "n": 3}


@pytest.mark.parametrize("keys, names", [
    ((), None),
    (("kappa", "n"), None),
    (("fill_rad",), None),
    (("rho",), ["convexity"]),
    (("circumference",), ["circle"]),
    (("rho", "fill_rad"), ["convexity", "fillrad"]),
    (("rho", "kappa"), ["convexity"]),
    (("rho", "n"), ["convexity"]),
    (("rho", "kappa", "n"), ["convexity", "jung"]),
    (("circumference", "fill_rad", "kappa", "n"), ["circle"]),
    (tuple(_CONSTANTS), ["convexity", "circle", "fillrad", "jung"]),
])
def test_bounds_inputs_run_exactly_the_bounds_their_constants_allow(
        tmp_path, capsys, keys, names):
    # a missing rho, kappa or n is not filled in: no bound may guess the
    # manifold, and when none applies the command says which constants each needs
    inputs = tmp_path / "inputs.json"
    for dh in ({}, {"dh_ym": 0.05}):
        inputs.write_text(json.dumps({"dh_xm": 0.2, **dh,
                                      **{k: _CONSTANTS[k] for k in keys}}))
        code = _run(["bounds", "--inputs", str(inputs)])
        out = capsys.readouterr()
        if names is None:
            assert code == 1 and out.out == ""
            assert out.err.startswith("error: no bound applies")
            for name, (_, _, constants) in cli.BOUNDS.items():
                assert f"{name} needs {', '.join(constants)}" in out.err
            continue
        assert code == 0
        suffix = "-pair" if dh else ""
        assert [r["bound"] for r in json.loads(out.out)["reports"]] == [
            "jung-pair" if n == "jung" else n + suffix for n in names]


@pytest.mark.parametrize("name", list(cli.BOUNDS))
def test_bound_forms_read_only_their_declared_constants(name):
    # each form gets a dict of the distances and its declared constants alone,
    # so a formula reading an undeclared constant raises KeyError here; in the
    # command it would run without that constant, or fail with a bare KeyError
    single, pair, constants = cli.BOUNDS[name]
    declared = {k: _CONSTANTS[k] for k in constants}
    assert single({"dh_xm": 0.2, **declared}).lower_bound > 0
    assert pair({"dh_xm": 0.2, "dh_ym": 0.05, **declared}).lower_bound > 0


def _nan_torus_subset(tmp_path):
    points = uniform_points(flat_torus([1.0, 1.0]), 6, seed=4).points.tolist()
    points[2][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"manifold": {"kind": "flat_torus", "dim": 2,
                                             "params": [1.0, 1.0]},
                                "points": points}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["bounds", "--x", "{nan}"],
    ["homology", "--subset", "{nan}", "--scale", "0.2", "--cech"],
    ["gh-exact", "--x", "{nan}", "--y", "{good}"],
], ids=["bounds", "homology-cech", "gh-exact"])
def test_non_finite_subset_coordinates_exit_one(tmp_path, capsys, argv):
    # past the reader, a NaN coordinate makes d_H(X, M) NaN, and bounds would
    # report "lower_bound": NaN with "vacuous": false
    nan = _nan_torus_subset(tmp_path)
    good = _subset_file(tmp_path, "good.json", grid_points(flat_torus([1.0, 1.0]), 3))
    assert _run([a.format(nan=nan, good=good) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "points must be finite" in out.err


# ------------------------------------------------------------------- sweeps


def _sweep_config(tmp_path, seed=7):
    cfg = {"manifold": {"kind": "circle"},
           "sampler": {"kind": "uniform", "seed": seed},
           "pairs": [[3, 4], [5, 2], [4, 4]]}
    path = tmp_path / f"sweep_{seed}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_circle_sweep_csv_and_determinism(tmp_path):
    cfg = _sweep_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert _run(["circle-sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert _run(["circle-sweep", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    assert lines[0].split(",") == ["index", "n_x", "n_y", "dh_x_circle",
                                   "dh_y_circle", "pair_bound", "gh_exact",
                                   "dh_xy", "nodes", "proven_optimal"]
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        bound, gh, dh_xy = float(cells[5]), float(cells[6]), float(cells[7])
        assert bound <= gh + 1e-9 <= dh_xy + 2e-9
        assert cells[9] == "True"


def test_circle_sweep_seed_changes_output(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert _run(["circle-sweep", "--config", _sweep_config(tmp_path, 7),
                 "--out", str(out_a)]) == 0
    assert _run(["circle-sweep", "--config", _sweep_config(tmp_path, 8),
                 "--out", str(out_b)]) == 0
    assert out_a.read_text() != out_b.read_text()


def _file_sweep(tmp_path, pairs, sampler):
    cfg = tmp_path / "file_sweep.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "file", **sampler},
                               "pairs": pairs}))
    return str(cfg)


def test_circle_sweep_file_sampler_reads_files(tmp_path):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    y = _subset_file(tmp_path, "y.json", equispaced_circle(circle(), 3))
    out = tmp_path / "out.csv"
    assert _run(["circle-sweep", "--config", _file_sweep(tmp_path, [[4, 3]],
                                                         {"x": [x], "y": [y]}),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[:3] == ["0", "4", "3"]


def test_circle_sweep_file_sampler_missing_key(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    cfg = _file_sweep(tmp_path, [[4, 4]], {"x": [x]})
    assert _run(["circle-sweep", "--config", cfg]) == 1
    assert "file sampler needs 'y'" in capsys.readouterr().err


def test_circle_sweep_file_sampler_too_few_paths(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    cfg = _file_sweep(tmp_path, [[4, 4], [4, 4]], {"x": [x, x], "y": [x]})
    assert _run(["circle-sweep", "--config", cfg]) == 1
    assert "lists 1 'y' paths, but the config has 2 rows" in capsys.readouterr().err


def test_circle_sweep_file_sampler_size_mismatch(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    cfg = _file_sweep(tmp_path, [[9, 4]], {"x": [x], "y": [x]})
    assert _run(["circle-sweep", "--config", cfg]) == 1
    assert "row 0:" in (err := capsys.readouterr().err)
    assert "holds 4 points, the config asks for n_x = 9" in err


def test_circle_sweep_file_sampler_manifold_mismatch(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    t = _subset_file(tmp_path, "t.json", grid_points(flat_torus([1.0, 1.0]), 2))
    assert _run(["circle-sweep", "--config",
                 _file_sweep(tmp_path, [[4, 4]], {"x": [x], "y": [t]})]) == 1
    assert f"row 0: {t} lies on a flat_torus of dim 2" in capsys.readouterr().err
    # same kind and dim, another circumference
    c = _subset_file(tmp_path, "c.json", equispaced_circle(circle(1.0), 4))
    assert _run(["circle-sweep", "--config",
                 _file_sweep(tmp_path, [[4, 4]], {"x": [c], "y": [x]})]) == 1
    assert f"row 0: {c} lies on a circle of dim 1 with params [1.0]" in (
        capsys.readouterr().err)


def test_circle_sweep_file_rows_take_the_config_constants(tmp_path, capsys):
    # rows pass the kind/dim/params check whatever geometry constants their
    # files carry; an X file with fill_rad beside a Y file without one used to
    # exit 1 with "rigid_incumbent needs two subsets of one circle"
    y = _subset_file(tmp_path, "y.json", uniform_points(circle(), 6, 2))
    points = uniform_points(circle(), 6, 1).points
    runs = []
    for name, manifold in (("x.json", circle()), ("xc.json", circle(fill_rad=1.0, rho=0.5))):
        x = _subset_file(tmp_path, name, FiniteSubset(manifold, points))
        cfg = _file_sweep(tmp_path, [[6, 6]], {"x": [x], "y": [y]})
        assert _run(["circle-sweep", "--config", cfg]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_circle_sweep_rejects_torus(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"manifold": {"kind": "flat_torus", "params": [1, 1]},
                               "pairs": [[3, 3]]}))
    assert _run(["circle-sweep", "--config", str(cfg)]) == 1
    assert "circle manifold" in capsys.readouterr().err


# -------------------------------------------------------------------- ratio


def test_ratio_command(capsys):
    assert _run(["ratio", "--n", "2,3,9", "--crosscheck-max", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_n = {e["n"]: e for e in payload["instances"]}
    assert by_n[9]["hausdorff"] == 9.0
    assert by_n[9]["ratio_upper"] == pytest.approx(1 / 3)
    assert "gh_exact" not in by_n[9]
    assert by_n[3]["gh_exact_proven"] is True
    assert by_n[3]["gh_exact"] <= by_n[3]["gh_upper"] + 1e-9


def test_ratio_rejects_bad_size(capsys):
    assert _run(["ratio", "--n", "1"]) == 1


# ----------------------------------------------------------------- homology


def test_homology_from_subset(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 12))
    assert _run(["homology", "--subset", x, "--scale", "1.2", "--max-dim", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == [1, 1]
    assert payload["simplex_counts"][0] == 12


def test_homology_cech_circle(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 12))
    assert _run(["homology", "--subset", x, "--scale", "0.55", "--cech",
                 "--max-dim", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == [1, 1]


def test_witnessed_cech_builds_no_metric(tmp_path, capsys, monkeypatch):
    # the torus Cech nerve reads only witness distances, and the Euclidean
    # refusal comes before any work
    def refuse(self):
        raise AssertionError("metric space built")

    monkeypatch.setattr(FiniteSubset, "to_metric_space", refuse)
    x = _subset_file(tmp_path, "x.json", uniform_points(flat_torus([1.0, 1.0]), 20, seed=1))
    assert _run(["homology", "--subset", x, "--scale", "0.2", "--cech"]) == 0
    assert json.loads(capsys.readouterr().out)["simplex_counts"][0] >= 1
    e = _subset_file(tmp_path, "e.json", FiniteSubset(euclidean(2), [[0.0, 0.0], [1.0, 0.0]]))
    assert _run(["homology", "--subset", e, "--scale", "0.2", "--cech"]) == 1
    assert "compact manifold" in capsys.readouterr().err


def test_homology_complex_file_round_trip(tmp_path, capsys):
    hollow = {"scale": 1.0, "vertex_count": 4,
              "simplices": {"0": [[0], [1], [2], [3]],
                            "1": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                            "2": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}}
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(hollow))
    assert _run(["homology", "--complex", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 0]
    # beta_2 needs dimension 3 recorded, even when it is empty
    hollow["simplices"]["3"] = []
    path.write_text(json.dumps(hollow))
    assert _run(["homology", "--complex", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 0, 1]


def test_homology_complex_file_missing_face(tmp_path, capsys):
    # full 2-skeleton on 40 vertices minus the edge (0, 22), which every
    # triangle (0, 22, k) still names as a face
    skeleton = {"scale": 1.0, "vertex_count": 40, "simplices": {
        "0": [[v] for v in range(40)],
        "1": [list(e) for e in combinations(range(40), 2) if e != (0, 22)],
        "2": [list(t) for t in combinations(range(40), 3)]}}
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(skeleton))
    assert _run(["homology", "--complex", str(path)]) == 1
    err = capsys.readouterr().err
    assert "missing" in err and "(0, 22)" in err


def test_homology_complex_file_vertex_count_sets_no_cost(tmp_path, capsys):
    # union-find was sized by vertex_count: 10^30 ended in an OverflowError
    # traceback, 10^12 in a MemoryError and 3 * 10^7 took 1.2 GB
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"scale": 1.0, "vertex_count": 10**30,
                                "simplices": {"0": [[0], [1]], "1": [[0, 1]]}}))
    assert _run(["homology", "--complex", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1]
    assert out["simplex_counts"] == [2, 1]


def test_homology_needs_scale(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 6))
    assert _run(["homology", "--subset", x]) == 1
    assert "--scale" in capsys.readouterr().err


def test_homology_needs_max_dim_one(tmp_path, capsys):
    # --max-dim 0 used to fail with "up_to must be >= 0", an option never passed
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 6))
    assert _run(["homology", "--subset", x, "--scale", "1", "--max-dim", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: Betti numbers need --max-dim >= 1; the complex caps "
                       "at dimension 0\n")
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"scale": 1.0, "simplices": {"0": [[0], [1]]}}))
    assert _run(["homology", "--complex", str(path)]) == 1
    assert "a complex file that records dimension 1" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_homology_refuses_a_non_finite_scale(tmp_path, capsys, scale):
    # these printed "scale": NaN or Infinity, which is not JSON
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 6))
    assert _run(["homology", "--subset", x, "--scale", scale]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "finite --scale" in out.err


def _run_child(args):
    """python with args in a child that imports the same ghbound as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(ghbound.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def _run_module(argv):
    """python -m ghbound in a child, so an uncaught exception shows as a traceback."""
    return _run_child(["-m", "ghbound", *argv])


_FILLRAD = {"count": 4, "scale_grid": {"start": 1.6, "stop": 3.2, "steps": 3}}


@pytest.mark.parametrize("command, payload, key", [
    ("homology --complex", {"scale": 1.0, "simplices": {"0": [1, 2]}}, "'0'"),
    ("homology --complex", {"scale": 1.0, "simplices": {}}, "'simplices'"),
    ("homology --complex", {"scale": 1.0, "simplices": {"x": [[0]]}}, "'x'"),
    ("bounds --x", {"manifold": "circle", "points": [[0.0], [1.0]]}, "'manifold'"),
    ("homology --complex", 5, "must be an object"),
    ("bounds --x", [[0.0], [1.0]], "must be an object"),
    ("bounds --x {good} --y", "circle", "must be an object"),
    ("gh-exact --y {good} --x", 5, "must be an object"),
    # a falsy circle 'params' must not stand for the default 2*pi
    ("bounds --x", {"manifold": {"kind": "circle", "params": 0},
                    "points": [[0.0]]}, "'params'"),
    ("bounds --x", {"manifold": {"kind": "circle", "params": "6.28"},
                    "points": [[0.0]]}, "'params'"),
    ("bounds --x", {"manifold": {"kind": "flat_torus", "params": 5},
                    "points": [[0.0]]}, "'params'"),
    ("bounds --x", {"manifold": {"kind": "flat_torus", "params": [math.inf, 1.0]},
                    "points": [[0.1, 0.2]]}, "size parameters must be finite"),
    ("gh-exact --y {good} --x", {"dist": 5}, "'dist'"),
    ("gh-exact --y {good} --x", {"dist": {}}, "'dist'"),
    ("gh-exact --y {good} --x", {"dist": [[0.0, 1.0], [1.0, 0.0]], "labels": 5},
     "'labels'"),
    ("bounds --x", {"manifold": {"kind": "circle", "rho": "x"},
                    "points": [[0.0]]}, "'rho'"),
    ("bounds --x", {"manifold": {"kind": "circle", "kappa": "x"},
                    "points": [[0.0]]}, "'kappa'"),
    ("bounds --x", {"manifold": {"kind": "circle", "fill_rad": "x"},
                    "points": [[0.0]]}, "'fill_rad'"),
    ("circle-sweep --config", {"pairs": 5}, "'pairs'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "sampler": 5}, "'sampler'"),
    ("fillrad-estimate --config", {"count": 8, "scale_grid": 5}, "'scale_grid'"),
    ("homology --complex", {"scale": [1], "simplices": {"0": [[0]]}}, "'scale'"),
    ("homology --complex", {"scale": 1.0, "vertex_count": [3],
                            "simplices": {"0": [[0]]}}, "'vertex_count'"),
    ("bounds --x", {"manifold": {"kind": "circle"}, "points": {}}, "'points'"),
    ("gh-exact --y {good} --x", {"manifold": {"kind": "euclidean", "dim": [2]},
                                 "points": [[0.0, 0.0]]}, "'dim'"),
    ("fillrad-estimate --config", {**_FILLRAD, "count": [60]}, "'count'"),
    ("fillrad-estimate --config", {**_FILLRAD, "count": "60"}, "'count'"),
    ("fillrad-estimate --config", {**_FILLRAD, "sampler": {"kind": "sphere"}},
     "sampler kind must be"),
    # the sampler is the only source of a seed
    ("fillrad-estimate --config", {**_FILLRAD, "sampler": {"kind": "uniform"}},
     "uniform sampler needs 'seed'"),
    ("circle-sweep --config", {"pairs": [[4, 3]],
                               "sampler": {"kind": "uniform", "seed": [1]}}, "'seed'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "sampler": {"phase_x": [0],
                                                              "kind": "equispaced"}},
     "'phase_x'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "node_budget": [5]}, "'node_budget'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "sampler": "uniform"},
     "uniform sampler needs 'seed'"),
    ("bounds --inputs", {"dh_xm": [1]}, "'dh_xm'"),
    ("bounds --inputs", {"dh_xm": 0.1, "rho": "x"}, "'rho'"),
    ("bounds --inputs", {"rho": 1.0}, "inputs needs 'dh_xm'"),
    ("gh-exact --y {good} --x", {"dist": [[0, 10 ** 400], [10 ** 400, 0]]}, "'dist'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "node_budget": -5}, "'node_budget'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "node_budget": 0}, "'node_budget'"),
    # a lone number must be finite; these printed NaN or Infinity, or ran on them
    ("bounds --inputs", {"dh_xm": 0.3, "dh_ym": math.nan, "rho": 1.0}, "'dh_ym'"),
    ("bounds --inputs", {"dh_xm": math.inf}, "'dh_xm'"),
    ("homology --complex", {"scale": math.nan, "simplices": {"0": [[0]]}}, "'scale'"),
    ("fillrad-estimate --config", {**_FILLRAD, "scale_grid": {
        "start": 1.6, "stop": math.inf, "steps": 3}}, "'stop'"),
    ("bounds --x", {"manifold": {"kind": "circle", "fill_rad": math.nan},
                    "points": [[0.0]]}, "'fill_rad'"),
    ("circle-sweep --config", {"pairs": [[4, 3]], "sampler": {"phase_x": math.nan,
                                                              "kind": "equispaced"}},
     "'phase_x'"),
    # fillrad-estimate reads the equispaced phase too
    ("fillrad-estimate --config", {**_FILLRAD, "sampler": {"kind": "equispaced",
                                                           "phase_x": "x"}}, "'phase_x'"),
    # only canonical decimals name a dimension: int() read all but "None" as
    # one, and a second spelling silently replaced the first ("01" dropped
    # every edge)
    *(("homology --complex", {"scale": 1.0, "simplices": {
        "0": [[0], [1]], "1": [[0, 1]], key: []}}, repr(key))
      for key in ("01", " 1", "+1", "\u0661", "1_0", "-0", "1 ", "None")),
    # a subset file's circle refuses this circumference; the bare inputs ran on it
    ("bounds --inputs", {"dh_xm": 0.2, "circumference": -1},
     "circumference must be finite and positive"),
])
def test_malformed_json_exits_one_without_traceback(tmp_path, command, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    good = _subset_file(tmp_path, "good.json", equispaced_circle(circle(), 4))
    proc = _run_module([a.format(good=good) for a in command.split()] + [str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and key in proc.stderr
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------- gh-exact


def test_gh_exact_command(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    y = _subset_file(tmp_path, "y.json", equispaced_circle(circle(), 4, phase=0.3))
    assert _run(["gh-exact", "--x", x, "--y", y]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.0, abs=1e-12)
    assert payload["proven_optimal"] is True
    assert sorted(a for a, _ in payload["correspondence"]) == [0, 1, 2, 3]


def test_gh_exact_accepts_raw_metric_space(tmp_path, capsys):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"dist": [[0.0, 2.0], [2.0, 0.0]]}))
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"dist": [[0.0, 5.0], [5.0, 0.0]]}))
    assert _run(["gh-exact", "--x", str(x), "--y", str(y)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gh_exact_accepts_large_collinear_subsets(tmp_path, capsys, dim):
    # distances up to 1e7 round by more than an absolute 1e-9 on the triangle
    # inequality; this used to exit 1 with "triangle inequality violated"
    t = np.random.default_rng(dim).uniform(0.0, 1e7, size=40)
    x = _subset_file(tmp_path, "x.json", FiniteSubset(
        euclidean(dim), t[:, None] * np.full(dim, 1 / math.sqrt(dim))))
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    assert _run(["gh-exact", "--x", x, "--y", str(y), "--budget", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0


def test_gh_exact_rejects_subsets_whose_distances_overflow(tmp_path, capsys):
    # finite coordinates whose squared differences overflow to inf; the suite
    # turns RuntimeWarning into an error, so a warning would escape cli.main
    x = _subset_file(tmp_path, "x.json",
                     FiniteSubset(euclidean(1), [[1e200], [-1e200], [0.0]]))
    good = _subset_file(tmp_path, "good.json", equispaced_circle(circle(), 4))
    assert _run(["gh-exact", "--x", x, "--y", good]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: distances must be finite\n"
    assert "RuntimeWarning" not in err


def test_gh_exact_rejects_infinite_distances(tmp_path, capsys):
    # inf - inf is nan, so the triangle check alone let these through
    x = tmp_path / "x.json"
    x.write_text('{"dist": [[0.0, Infinity, Infinity], [Infinity, 0.0, Infinity], '
                 '[Infinity, Infinity, 0.0]]}')
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    assert _run(["gh-exact", "--x", str(x), "--y", str(y)]) == 1
    assert "distances must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------- fillrad


def test_fillrad_estimate_coarse(tmp_path, capsys):
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": "circle"},
        "sampler": {"kind": "equispaced"},
        "count": 18,
        "max_dim": 2,
        "scale_grid": {"start": 0.4, "stop": 2.4, "steps": 11}}))
    assert _run(["fillrad-estimate", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["censored"] is False
    assert payload["death_scale"] is not None
    # death happens just below circumference/3
    assert payload["death_scale"] <= math.tau / 3 + 1e-9
    assert payload["estimate"] == pytest.approx(payload["death_scale"] / 2)
    assert payload["betti"][0] == [1, 1]
    assert payload["betti"][-1] == [1, 0]


def test_fillrad_estimate_reads_no_max_dim(tmp_path, capsys):
    # the complex always goes to dimension n + 1; a max_dim key is not read
    config = {"manifold": {"kind": "circle"}, "count": 18,
              "scale_grid": {"start": 0.4, "stop": 2.4, "steps": 11}}
    cfg = tmp_path / "fr.json"
    outputs = []
    for extra in ({}, {"max_dim": 1}):
        cfg.write_text(json.dumps({**config, **extra}))
        assert _run(["fillrad-estimate", "--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_fillrad_estimate_sparse_sample_rejected(tmp_path, capsys):
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": "circle"},
        "count": 3, "max_dim": 2,
        "scale_grid": {"start": 0.05, "stop": 1.0, "steps": 3}}))
    assert _run(["fillrad-estimate", "--config", str(cfg)]) == 1
    assert "sample too sparse" in capsys.readouterr().err


def _fillrad(tmp_path, capsys, config):
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps(config))
    assert _run(["fillrad-estimate", "--config", str(cfg)]) == 0
    return json.loads(capsys.readouterr().out)


def test_fillrad_estimate_exact_death_on_the_circle(tmp_path, capsys):
    # the criterion-5 config: the fundamental class of 60 equispaced points
    # dies at a third of the circumference, so the estimate is pi/3
    payload = _fillrad(tmp_path, capsys, {
        "manifold": {"kind": "circle"}, "sampler": {"kind": "equispaced"},
        "count": 60, "max_dim": 2,
        "scale_grid": {"start": 0.15, "stop": 2.49, "steps": 118}})
    assert payload["censored"] is False
    assert payload["death_scale"] == pytest.approx(math.tau / 3, abs=1e-12)
    assert payload["estimate"] == pytest.approx(math.pi / 3, abs=1e-12)


# rows of the 6 x 6 torus config below, as the per-scale snapshot sweep
# (VR rebuilt and homology maps computed at every scale) reported them
TORUS6_BETTI = ([[1, 2, 1]] * 4 + [[1, 0, 23]] * 2 + [[1, 0, 2]] * 5
                + [[1, 0, 0]] * 12)
TORUS6_SURVIVES = [True] * 4 + [False] * 19


def test_fillrad_estimate_exact_death_on_the_torus(tmp_path, capsys):
    # the 2-class of the 6 x 6 grid dies at sqrt(5)/6, between grid scales;
    # beta_2 jumps to 23 there, so the last surviving scale is well below it
    payload = _fillrad(tmp_path, capsys, {
        "manifold": {"kind": "flat_torus", "params": [1.0, 1.0]},
        "sampler": {"kind": "equispaced"}, "count": 6, "max_dim": 3,
        "scale_grid": {"start": 0.25, "stop": 0.75, "steps": 23}})
    assert payload["sample_size"] == 36
    assert payload["betti"] == TORUS6_BETTI
    assert payload["survives"] == TORUS6_SURVIVES
    assert payload["censored"] is False
    assert payload["death_scale"] == pytest.approx(math.sqrt(5) / 6, abs=1e-12)


# the 8 x 8 grid of the unit flat torus up to 0.6, where the VR complex has
# 380,864 tetrahedra
_TORUS8 = {"manifold": {"kind": "flat_torus", "params": [1.0, 1.0]},
           "sampler": {"kind": "equispaced"}, "count": 8,
           "scale_grid": {"start": 0.19, "stop": 0.6, "steps": 16}}


def test_fillrad_estimate_on_the_8x8_torus_peaks_below_32_mib(tmp_path):
    # the tetrahedra are never stored; storing them peaked at 214 MiB
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps(_TORUS8))
    proc = _run_child(["-c", _TRACED_MAIN, "fillrad-estimate", "--config", str(cfg),
                       "--out", str(tmp_path / "out.json")])
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 32 * 2 ** 20


def test_fillrad_estimate_strict_tie_at_the_death(tmp_path, capsys):
    dist = equispaced_circle(circle(), 18).to_metric_space().dist
    # the class dies when the triangle (0, 6, 12) enters, at its diameter; the
    # three arcs of a third of the circle differ in their last bits
    death = max(dist[0, 6], dist[6, 12], dist[0, 12])
    config = {"manifold": {"kind": "circle"}, "count": 18, "max_dim": 2,
              "scale_grid": {"start": 0.4, "steps": 5}}
    for stop in (dist[0, 6], death):
        config["scale_grid"]["stop"] = float(stop)
        payload = _fillrad(tmp_path, capsys, config)
        assert payload["censored"] is True and payload["death_scale"] is None
        assert payload["survives"][-1] is True
    config["scale_grid"]["stop"] = math.nextafter(float(death), math.inf)
    payload = _fillrad(tmp_path, capsys, config)
    assert payload["censored"] is False
    assert payload["death_scale"] == death
    assert payload["survives"] == [True] * 4 + [False]


def _fillrad_file(tmp_path, sampler, count=4):
    cfg = tmp_path / "fr.json"
    cfg.write_text(json.dumps({
        "sampler": {"kind": "file", **sampler}, "count": count,
        "scale_grid": {"start": 1.6, "stop": 3.2, "steps": 3}}))
    return str(cfg)


def test_fillrad_estimate_file_sampler(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 4))
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"x": [x]})]) == 0
    assert json.loads(capsys.readouterr().out)["sample_size"] == 4
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"y": [x]})]) == 1
    assert "file sampler needs 'x'" in capsys.readouterr().err
    # open() would take a number for a file descriptor
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"x": [5]})]) == 1
    assert "file sampler 'x' must be a list of strings" in capsys.readouterr().err
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"x": []})]) == 1
    assert "lists 0 'x' paths, but the config has 1 rows" in capsys.readouterr().err
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"x": [x]}, count=9)]) == 1
    assert "holds 4 points, the config asks for n_x = 9" in capsys.readouterr().err


def test_fillrad_estimate_file_sampler_manifold_mismatch(tmp_path, capsys):
    # a 5x5 flat-torus grid under a config with no manifold key (a circle)
    t = _subset_file(tmp_path, "t.json", grid_points(flat_torus([1.0, 1.0]), 5))
    assert _run(["fillrad-estimate", "--config",
                 _fillrad_file(tmp_path, {"x": [t]}, count=25)]) == 1
    err = capsys.readouterr().err
    assert f"row 0: {t} lies on a flat_torus of dim 2" in err
    assert "the config's manifold is a circle of dim 1" in err


# ------------------------------------------------------------- lemma-check


def test_lemma_check_small(capsys):
    assert _run(["lemma-check", "--trials", "4", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert set(payload["passes"]) == {
        "induced_simplicial_out", "induced_simplicial_back",
        "roundtrip_contiguous", "projection_simplicial",
        "projection_contiguous"}
    assert all(v == 4 for v in payload["passes"].values())


def test_lemma_trial_enumerates_no_complex(monkeypatch):
    # a trial builds six VR complexes: source_y, h_map.target, g_map.target,
    # source_z, f_map.target, big_z; every check joins two of them with a
    # target cap that cannot bind, so each is decided on the neighbour masks
    # and none is ever enumerated
    from ghbound import complexes

    build_vr = complexes.build_vr
    built = []

    def recording_build_vr(*args):
        built.append(build_vr(*args))
        return built[-1]

    monkeypatch.setattr(complexes, "build_vr", recording_build_vr)
    monkeypatch.setattr(cli, "build_vr", recording_build_vr)
    master = SplitMix64(1)
    for trial in range(20):
        built.clear()
        assert all(cli._lemma_trial(trial, master).values())
        assert ["simplices" in vars(k) for k in built] == [False] * 6


@pytest.mark.parametrize("argv", [
    ["lemma-check", "--trials", "0"],
    ["lemma-check", "--trials", "-3"],
    ["gh-exact", "--x", "{x}", "--y", "{x}", "--budget", "0"],
    ["ratio", "--n", "2", "--budget", "-1"],
    ["bounds", "--x", "{x}", "--witness-grid", "0"],
])
def test_counts_below_one_are_rejected(tmp_path, capsys, argv):
    # --trials 0 used to report a vacuous "all_passed", and 0 for --budget
    # or --witness-grid silently meant the default
    x = _subset_file(tmp_path, "x.json", uniform_points(flat_torus([1.0, 1.0]), 4, seed=0))
    assert _run([a.format(x=x) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be an integer >= 1" in out.err


@pytest.mark.parametrize("argv, points", [
    (["bounds", "--x", "{cube}"], 2 ** 30),
    (["bounds", "--x", "{square}", "--witness-grid", "100000"], 10 ** 10),
    (["homology", "--cech", "--subset", "{cube}", "--scale", "0.3"], 2 ** 30),
    (["homology", "--cech", "--subset", "{square}", "--scale", "0.3",
      "--witness-grid", "100000"], 10 ** 10),
])
def test_oversized_witness_grids_exit_one(tmp_path, argv, points):
    # the default grid of a 30-dimensional torus (2 per axis) and 100000 per
    # axis on a 2-torus died with a traceback allocating the dense witness
    # table (8 GiB and 74.5 GiB); grids above 2**24 points are now refused
    cube = _subset_file(tmp_path, "cube.json",
                        uniform_points(flat_torus([1.0] * 30), 3, seed=0))
    square = _subset_file(tmp_path, "square.json",
                          uniform_points(flat_torus([1.0, 1.0]), 3, seed=0))
    proc = _run_module([a.format(cube=cube, square=square) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert f"has {points} points" in proc.stderr


# cli.main in a child, under tracemalloc and a 2 GiB address-space limit, so
# a refusal that came too late fails the test instead of filling the machine
_TRACED_MAIN = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from ghbound import cli
tracemalloc.start()
code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


# cli.main in a child under the same limit, timed
_TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from ghbound import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def test_complex_file_past_the_index_cap_is_one_error_line(tmp_path):
    # vertex 2**34 gave the empty face a 2 GiB coface mask: a MemoryError
    # traceback under a 1.5 GB address-space limit
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"scale": 1.0, "simplices": {"0": [[0], [2 ** 34]]}}))
    proc = _run_child(["-c", _TIMED_MAIN, "homology", "--complex", str(path)])
    assert proc.returncode == 0, proc.stderr
    code, seconds = proc.stdout.split()
    assert int(code) == 1
    assert float(seconds) < 1.0
    assert proc.stderr == ("error: simplex (17179869184,) needs a coface index "
                           "over 2 GiB\n")


@pytest.mark.parametrize("argv", [
    ["bounds", "--x", "{line}", "--witness-grid", "16777216"],
    ["homology", "--cech", "--subset", "{line}", "--scale", "0.1",
     "--witness-grid", "16777216"],
])
def test_oversized_witness_tables_exit_one_allocating_nothing(tmp_path, argv):
    # on a 1-torus the grid cap let per_axis reach 2**24, and 300 points
    # needed two 40 GB tables; per-axis tables are now refused before any work
    line = _subset_file(tmp_path, "line.json",
                        uniform_points(flat_torus([1.0]), 300, seed=0))
    proc = _run_child(["-c", _TRACED_MAIN, *[a.format(line=line) for a in argv]])
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 1
    assert peak < 2 ** 20
    assert proc.stderr.startswith("error: ")
    assert "needs tables of 5033164800 entries" in proc.stderr


@pytest.mark.parametrize("argv, message, peak", [
    # 3 points printed 1,000 Betti numbers in 5.9 s
    (["homology", "--subset", "{three}", "--scale", "1", "--max-dim", "1000"],
     "--max-dim 1000 exceeds the 3 points of the subset", 2 ** 20),
    (["homology", "--complex", "{hollow}", "--max-dim", "2"],
     "a complex file records its own cap", 2 ** 20),
    # 582 MiB and 3.7 s of empty dimensions
    (["homology", "--complex", "{far}"],
     "keys run from 0 to 1000000, not within 0 to 1", 2 ** 20),
    # was silently dropped, exit 0
    (["homology", "--complex", "{below}"], "keys run from -1 to 1, not within 0 to 3",
     2 ** 20),
    # a RecursionError traceback
    (["bounds", "--x", "{nested}"], "JSON nested too deeply", 2 ** 20),
    # a 65.5 TiB table; sampling the 3,000,000 points (23 MiB each copy)
    # alone peaks near 72 MiB
    (["fillrad-estimate", "--config", "{huge}"],
     "a distance table of 3000000 x 3000000 points has 9000000000000 entries",
     2 ** 27),
    # 9.31 GiB for the staircase mask
    (["ratio", "--n", "100000"], "n = 100000 needs tables of 10000000000 entries",
     2 ** 20),
    # the sampler's 7.45 GiB died with a MemoryError traceback
    (["fillrad-estimate", "--config", "{billion}"],
     "a distance table of 1000000000 x 1000000000 points", 2 ** 20),
    # np.linspace's 745 GiB, the same way
    (["fillrad-estimate", "--config", "{steps}"],
     "in 2 to 65536 steps, not 100000000000", 2 ** 20),
    (["circle-sweep", "--config", "{sweep}"],
     "a distance table of 1000000000 x 1000000000 points", 2 ** 20),
    # a torus grid has count points per axis: 200 make 40,000 points
    (["fillrad-estimate", "--config", "{grid}"],
     "a distance table of 40000 x 40000 points", 2 ** 20),
], ids=["max-dim-past-size", "max-dim-with-complex", "key-past-vertices",
        "key-below-zero", "nested-json", "fillrad-table", "ratio-table",
        "fillrad-count", "fillrad-steps", "sweep-size", "fillrad-grid"])
def test_oversized_inputs_exit_one_before_allocating(tmp_path, argv, message, peak):
    three = _subset_file(tmp_path, "three.json", equispaced_circle(circle(), 3))
    files = {"three": three,
             "hollow": {"scale": 1.0, "simplices": {"0": [[0], [1]], "1": []}},
             "far": {"scale": 1.0, "simplices": {"0": [[0]], "1000000": []}},
             "below": {"scale": 1.0, "simplices": {"0": [[0], [1], [2]], "1": [],
                                                    "-1": [[0, 1, 2]]}},
             "huge": {"count": 3_000_000,
                      "scale_grid": {"start": 1.6, "stop": 3.2, "steps": 3}},
             "billion": {**_FILLRAD, "count": 1_000_000_000},
             "steps": {**_FILLRAD, "scale_grid": {"start": 0.15, "stop": 2.49,
                                                  "steps": 100_000_000_000}},
             "sweep": {"pairs": [[1_000_000_000, 3]]},
             "grid": {**_FILLRAD, "count": 200,
                      "manifold": {"kind": "flat_torus", "params": [1.0, 1.0]}}}
    for name, payload in files.items():
        if isinstance(payload, dict):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(payload))
    files["nested"] = tmp_path / "nested.json"
    files["nested"].write_text('{"manifold": {"kind": "circle"}, "points": '
                               + "[" * 100_000 + "]" * 100_000 + "}")
    proc = _run_child(["-c", _TRACED_MAIN, *[a.format(**files) for a in argv]])
    assert proc.returncode == 0, proc.stderr
    code, traced = map(int, proc.stdout.split())
    assert code == 1
    assert traced < peak
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("argv, flags", [
    (["homology", "--complex", "{missing}", "--scale", "0"], "--scale"),
    (["homology", "--complex", "{missing}", "--subset", "{missing}"], "--subset"),
    (["homology", "--complex", "{missing}", "--cech"], "--cech"),
    (["homology", "--complex", "{missing}", "--witness-grid", "8", "--scale", "1"],
     "--scale, --witness-grid"),
    (["homology", "--subset", "{missing}", "--scale", "0.2", "--witness-grid", "8"],
     "--witness-grid needs --cech"),
    (["bounds", "--inputs", "{missing}", "--x", "{missing}"], "--x"),
    (["bounds", "--inputs", "{missing}", "--y", "{missing}"], "--y"),
    (["bounds", "--inputs", "{missing}", "--witness-grid", "8"], "--witness-grid"),
])
def test_ignored_options_exit_one_before_any_file_is_read(tmp_path, capsys, argv,
                                                          flags):
    # each of these ran and dropped the option; the file named does not
    # exist, so reading it first would have failed on that instead
    missing = str(tmp_path / "missing.json")
    assert _run([a.format(missing=missing) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and flags in out.err
    assert "missing.json" not in out.err


@pytest.mark.parametrize("argv", [
    ["homology", "--subset", "{ring}", "--cech", "--scale", "0.5",
     "--witness-grid", "8"],
    ["bounds", "--x", "{ring}", "--witness-grid", "8"],
    ["bounds", "--x", "{ring}", "--y", "{ring}", "--witness-grid", "8"],
])
def test_witness_grids_off_a_torus_exit_one(tmp_path, capsys, argv):
    # the circle's Cech complex and its d_H are exact, and read no grid
    ring = _subset_file(tmp_path, "ring.json", equispaced_circle(circle(), 6))
    assert _run([a.format(ring=ring) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --witness-grid samples a torus")


@pytest.mark.parametrize("argv", [
    ["circle-sweep", "--config", "{sweep}", "--seed", "3"],
    ["circle-sweep", "--config", "{sweep}", "--budget", "5"],
    ["fillrad-estimate", "--config", "{fillrad}", "--seed", "3"],
    ["lemma-check", "--trials", "1", "--budget", "5"],
    ["homology", "--complex", "{fillrad}", "--up-to", "1"],
    ["bounds", "--inputs", "{fillrad}", "--theorems", "circle"],
])
def test_dropped_options_exit_one(tmp_path, capsys, argv):
    # a config run's seed and node budget come from the config alone; a
    # lemma-check trial checks whatever correspondence its search returns, so
    # a budget there changed nothing; homology reports every Betti number its
    # complex holds, and a shorter list is a prefix of that one; bounds runs
    # every bound its constants allow, and a named subset of them is a
    # reordered sub-list of that output
    fillrad = tmp_path / "fr.json"
    fillrad.write_text(json.dumps(_FILLRAD))
    paths = {"sweep": _sweep_config(tmp_path), "fillrad": str(fillrad)}
    assert _run([a.format(**paths) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err


def test_check_failed_maps_to_exit_two(monkeypatch, capsys):
    def boom(args):
        raise cli.CheckFailed("synthetic")
    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_ratio", boom)
    # patching the module global function the parser default points at
    assert cli.main(["ratio", "--n", "2"]) == 2
    assert "synthetic" in capsys.readouterr().err


# ------------------------------------------------------ byte-identical stdout

# SHA-256 of each run's stdout. Results are meant to stay byte-identical, so a
# digest changes only with a documented fix or exactness gain.
PINNED_STDOUT = {
    "lemma-check": "9970c46a84be67626188e1d49e2ae7752c1d173a945585e56d9c5f64b6b46a6d",
    "homology-vr-circle":
        "5d027f047a516053f8a62c88812ea9df55c097b1d56278974220701495527176",
    "homology-cech-circle":
        "179720a2e15faf9d2cf2f8e47455d549df718cd29fe6e40d528a2bc7c40d49bf",
    "homology-vr-torus":
        "73ec159e1c3e0830c8ee4cf5c240ba8c4a57109a00408b4c033dda74e53c5849",
    "homology-vr-torus-300":
        "721e447591734e384668b394ecc71c2a835e86e44080a423f47974976b2d8abc",
    "homology-vr-grid-16":
        "96320938974578f6b85f3edbda219db3c6bc01e884a2633830df7d0a17882a59",
    "homology-cech-torus":
        "7effa6904d373106e6da828dec0b7ec480d3a795e127c785f80f297559c308fd",
    "homology-cech-torus-300":
        "2120a7bbe3e9f783bbf204255bb2baca3035a865c9a3f3b0e23eb35691fc1197",
    "homology-cech-torus3":
        "94932a95dd2bb056d9c1efc238696e5d5dd0586ff384b23e63ab02a54adf4fc0",
    "homology-complex-cech-torus":
        "7effa6904d373106e6da828dec0b7ec480d3a795e127c785f80f297559c308fd",
    "homology-complex-random":
        "7b5bf962958ca1f0194aa51a2d9120eabb446c76fc3a83213eaab0437bb989e7",
    "homology-complex-shuffled":
        "96b649cea20c5b33778938d8652447ebc5030cced5e3e23ca1a8964387eafec7",
    "homology-complex-sparse-ids":
        "54744a02d5ad3323c8d07453391c762e41b1a27261865bb7ce804c99c81c8d25",
    "homology-complex-capped-rp2":
        "34a12961959cd5ee687febce6640eb1b56533b14ea7efa0287ada1590fe86857",
    "fillrad-estimate":
        "7748cb88b474d4d9c4bca1b030294416facf77664f28f07d1da7160937a0cad0",
    "fillrad-estimate-torus":
        "125bf8a59da020f4bd5ceb2977d73e9bc679cdd26db86f0834ee0d80d99095c2",
    "fillrad-estimate-torus8":
        "200246689404c333127ce91f307c076417d3c6ed7173ee9f0820090a982f644a",
    "circle-sweep": "41ec85ba22e80f7daf196dd52a0cd3dd272a3c8b048c48d8a359933c51d66982",
    "gh-exact": "adb0d65e853346dab69e5440858d2f0cc07d2403b4a0791f6ab9cbedff8d8830",
    "bounds-pair": "9e7e616e68c30ea6019e9306a8ea5e148ecd832e4aa56e4c0304a8b25626a819",
    "bounds-pair-grid":
        "5007e20dbc2762a3ad258b28d38af76fd556ba5690b33645b450b20714c21027",
    "bounds-inputs":
        "cb2b29e936c9432109319fe5c5df941a6199aef7f46da239fa53d5cb649b2890",
    "ratio": "cab2fd030c8742d0d8ed98bfb0fa992b3c12765232a6db435c6039dca0fab959",
}


def _stratified_torus(size, grid, seed):
    """One uniform point per cell of a cols x rows grid on the unit flat torus."""
    cols, rows = grid
    torus = flat_torus([1.0, 1.0])
    u = uniform_points(torus, size, seed).points
    cell = np.arange(size)
    return FiniteSubset(torus, np.stack([(cell % cols + u[:, 0]) / cols,
                                         (cell // cols + u[:, 1]) / rows], axis=1))


def _shuffled_complex_file(tmp_path, name, cx):
    """cx as a complex file with no vertex_count key, each dimension's list
    shuffled and its first top simplex listed twice: the reader infers the
    vertex count and puts the simplices in canonical order."""
    rng = np.random.default_rng(0)
    simplices = {}
    for k, found in cx.simplices.items():
        entries = [list(s) for s in found]
        if k == cx.max_dim:
            entries.append(entries[0])
        rng.shuffle(entries)
        simplices[str(k)] = entries
    path = tmp_path / name
    path.write_text(json.dumps({"scale": cx.scale, "simplices": simplices}))
    return str(path)


def _sparse_complex_file(tmp_path, name, cx):
    """cx as a complex file with vertex v listed as 3v + 1, so the listed ids
    skip, and a vertex_count far above them: ids the file does not list are
    not vertices, and nothing may cost in proportion to them."""
    path = tmp_path / name
    path.write_text(json.dumps({
        "scale": cx.scale, "vertex_count": 1000 + 3 * cx.vertex_count,
        "simplices": {str(k): [[3 * v + 1 for v in s] for s in found]
                      for k, found in cx.simplices.items()}}))
    return str(path)


def _capped_rp2_file(tmp_path):
    """The 6-vertex projective plane as a complex file capped at dimension 4,
    two above its triangles, with the triangles shuffled and one listed twice."""
    triangles = [[1, 3, 5], [0, 4, 5], [2, 4, 5], [0, 1, 2], [1, 3, 4],
                 [0, 3, 4], [2, 3, 5], [1, 3, 5], [0, 1, 5], [0, 2, 3], [1, 2, 4]]
    edges = sorted({tuple(e) for t in triangles for e in combinations(t, 2)})
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"scale": 1.0, "simplices": {
        "0": [[v] for v in range(6)], "1": [list(e) for e in edges],
        "2": triangles, "3": [], "4": []}}))
    return str(path)


def _pinned_runs(tmp_path) -> dict[str, list[str]]:
    ring = _subset_file(tmp_path, "ring.json", uniform_points(circle(), 40, seed=2))
    torus = _subset_file(tmp_path, "torus.json",
                         uniform_points(flat_torus([1.0, 1.0]), 120, seed=3))
    dense = _subset_file(tmp_path, "dense.json", _stratified_torus(300, (20, 15), 5))
    grid = _subset_file(tmp_path, "grid.json", grid_points(flat_torus([1.0, 1.0]), 16))
    box = _subset_file(tmp_path, "box.json",
                       uniform_points(flat_torus([0.7, 1.3, 2.0]), 60, seed=11))
    wide = flat_torus([1.0, 1.5])
    wide_x = _subset_file(tmp_path, "wide_x.json", uniform_points(wide, 50, seed=13))
    wide_y = _subset_file(tmp_path, "wide_y.json", uniform_points(wide, 30, seed=17))
    # explicit copies: the 120-point witnessed Cech complex on the default
    # grid, and a random complex that is not a flag complex
    cech = build_cech_witness(subset_from_dict(read_json(torus)), 0.08, 3, 64)
    explicit_cech = _complex_file(tmp_path, "cech.json", cech)
    explicit_random = _complex_file(tmp_path, "random.json",
                                    random_complex(np.random.default_rng(105)))
    shuffled = _shuffled_complex_file(tmp_path, "shuffled.json",
                                      random_complex(np.random.default_rng(112)))
    sparse = _sparse_complex_file(tmp_path, "sparse.json",
                                  random_complex(np.random.default_rng(188)))
    rp2 = _capped_rp2_file(tmp_path)
    fillrad = tmp_path / "fillrad.json"
    fillrad.write_text(json.dumps({  # the criterion-5 config
        "manifold": {"kind": "circle"}, "sampler": {"kind": "equispaced"},
        "count": 60, "max_dim": 2,
        "scale_grid": {"start": 0.15, "stop": 2.49, "steps": 118}}))
    fillrad_torus = tmp_path / "fillrad_torus.json"
    fillrad_torus.write_text(json.dumps({  # the 6 x 6 grid, with 2-dim coboundaries
        "manifold": {"kind": "flat_torus", "params": [1.0, 1.0]},
        "sampler": {"kind": "equispaced"}, "count": 6, "max_dim": 3,
        "scale_grid": {"start": 0.25, "stop": 0.75, "steps": 23}}))
    fillrad_torus8 = tmp_path / "fillrad_torus8.json"
    fillrad_torus8.write_text(json.dumps(_TORUS8))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({  # gh-sweep's fixed draw; only row 16 runs out
        "manifold": {"kind": "circle"}, "sampler": {"kind": "uniform", "seed": 2},
        "pairs": ([[n, n] for n in range(6, 13)] * 2
                  + [[8, 12], [12, 8], [10, 11], [11, 10]]),
        "node_budget": 200}))
    draw = SplitMix64(2)  # row 16 of that draw, searched to the end
    hard_x = _subset_file(tmp_path, "hard_x.json",
                          uniform_points(circle(), 10, draw.child(32).next_u64()))
    hard_y = _subset_file(tmp_path, "hard_y.json",
                          uniform_points(circle(), 11, draw.child(33).next_u64()))
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"dh_xm": 0.2, "dh_ym": 0.05, "rho": 1.5,
                                  "kappa": 0.0, "n": 2, "fill_rad": 0.9,
                                  "circumference": 6.0}))
    return {
        "lemma-check": ["lemma-check", "--trials", "200", "--seed", "1"],
        "homology-vr-circle": ["homology", "--subset", ring, "--scale", "1.1",
                               "--max-dim", "3"],
        "homology-cech-circle": ["homology", "--subset", ring, "--scale", "0.55",
                                 "--max-dim", "3", "--cech"],
        "homology-vr-torus": ["homology", "--subset", torus, "--scale", "0.12",
                              "--max-dim", "3"],
        "homology-vr-torus-300": ["homology", "--subset", dense, "--scale", "0.12",
                                  "--max-dim", "3"],
        "homology-vr-grid-16": ["homology", "--subset", grid, "--scale", "0.3",
                                "--max-dim", "3"],
        "homology-cech-torus": ["homology", "--subset", torus, "--scale", "0.08",
                                "--max-dim", "3", "--cech"],
        "homology-cech-torus-300": ["homology", "--subset", dense, "--scale", "0.08",
                                    "--max-dim", "3", "--cech"],
        "homology-cech-torus3": ["homology", "--cech", "--subset", box, "--scale", "0.35",
                                 "--witness-grid", "6", "--max-dim", "3"],
        "homology-complex-cech-torus": ["homology", "--complex", explicit_cech],
        "homology-complex-random": ["homology", "--complex", explicit_random],
        "homology-complex-shuffled": ["homology", "--complex", shuffled],
        "homology-complex-sparse-ids": ["homology", "--complex", sparse],
        "homology-complex-capped-rp2": ["homology", "--complex", rp2],
        "fillrad-estimate": ["fillrad-estimate", "--config", str(fillrad)],
        "fillrad-estimate-torus": ["fillrad-estimate", "--config",
                                   str(fillrad_torus)],
        "fillrad-estimate-torus8": ["fillrad-estimate", "--config",
                                    str(fillrad_torus8)],
        "circle-sweep": ["circle-sweep", "--config", str(sweep)],
        "gh-exact": ["gh-exact", "--x", hard_x, "--y", hard_y],
        "bounds-pair": ["bounds", "--x", torus, "--y", dense],
        "bounds-pair-grid": ["bounds", "--x", wide_x, "--y", wide_y,
                             "--witness-grid", "20"],
        "bounds-inputs": ["bounds", "--inputs", str(inputs)],
        "ratio": ["ratio"],
    }


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_stdout_is_byte_identical_to_the_pinned_runs(tmp_path, capsys):
    digests = {}
    for name, argv in _pinned_runs(tmp_path).items():
        assert _run(argv) == 0, name
        out = capsys.readouterr().out
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
        if name != "circle-sweep":  # CSV; the rest is strict JSON
            json.loads(out, parse_constant=_refuse_constant)
    assert digests == PINNED_STDOUT


# ------------------------------------------------------------------ general


# every option of every subcommand; a new one is added here on purpose
CLI_OPTIONS = {
    "bounds": ["--inputs", "--out", "--witness-grid", "--x", "--y"],
    "circle-sweep": ["--config", "--out"],
    "ratio": ["--budget", "--crosscheck-max", "--n", "--out"],
    "homology": ["--cech", "--complex", "--max-dim", "--out", "--scale", "--subset",
                 "--witness-grid"],
    "gh-exact": ["--budget", "--out", "--x", "--y"],
    "fillrad-estimate": ["--config", "--out"],
    "lemma-check": ["--out", "--seed", "--trials"],
}


def test_each_subcommand_has_its_pinned_options():
    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(s for action in p._actions for s in action.option_strings
                            if s not in ("-h", "--help"))
               for name, p in commands.choices.items()}
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 27


def test_bad_subcommand_exits_one():
    assert cli.main(["no-such-command"]) == 1


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_module_entry_point(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    proc = _run_module(["gh-exact", "--x", str(x), "--y", str(x)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.0
