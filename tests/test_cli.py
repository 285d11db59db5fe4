"""End-to-end command-line runs through cli.main."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import combinations

import pytest

import ghbound
from ghbound import (FiniteSubset, circle, cli, equispaced_circle, euclidean,
                     flat_torus, grid_points, uniform_points)
from ghbound.serialize import subset_to_dict, write_json


def _subset_file(tmp_path, name, subset):
    path = tmp_path / name
    write_json(subset_to_dict(subset), str(path))
    return str(path)


def _run(argv):
    return cli.main(argv)


# ------------------------------------------------------------------- bounds


def test_bounds_pair_circle(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 12))
    y = _subset_file(tmp_path, "y.json", equispaced_circle(circle(), 24))
    assert _run(["bounds", "--x", x, "--y", y, "--theorems", "circle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["dh_xm"] == pytest.approx(math.pi / 12)
    assert payload["inputs"]["dh_ym"] == pytest.approx(math.pi / 24)
    (report,) = payload["reports"]
    assert report["bound"] == "circle-pair"
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
    assert _run(["bounds", "--inputs", str(inputs),
                 "--theorems", "convexity,fillrad,jung"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["bound"] for r in payload["reports"]] == [
        "convexity-pair", "fillrad-pair", "jung-pair"]
    conv = payload["reports"][0]
    assert conv["terms"]["hausdorff_term"] == pytest.approx(0.2 / 2 - 0.05)


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
    x = _subset_file(tmp_path, "e.json", uniform_points(flat_torus([1.0, 1.0]), 4, seed=0))
    assert _run(["bounds", "--x", x, "--theorems", "circle"]) == 1
    assert "circle bound needs" in capsys.readouterr().err
    assert _run(["bounds", "--x", str(tmp_path / "missing.json")]) == 1


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
    def refuse(self, labels=None):
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
    assert _run(["homology", "--complex", str(path), "--up-to", "2"]) == 1
    assert "insufficient skeleton" in capsys.readouterr().err
    hollow["simplices"]["3"] = []
    path.write_text(json.dumps(hollow))
    assert _run(["homology", "--complex", str(path), "--up-to", "2"]) == 0
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


def test_homology_needs_scale(tmp_path, capsys):
    x = _subset_file(tmp_path, "x.json", equispaced_circle(circle(), 6))
    assert _run(["homology", "--subset", x]) == 1
    assert "--scale" in capsys.readouterr().err


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
    assert "file sampler needs 'x'" in capsys.readouterr().err
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


def test_check_failed_maps_to_exit_two(monkeypatch, capsys):
    def boom(args):
        raise cli.CheckFailed("synthetic")
    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_ratio", boom)
    # patching the module global function the parser default points at
    assert cli.main(["ratio", "--n", "2"]) == 2
    assert "synthetic" in capsys.readouterr().err


# ------------------------------------------------------------------ general


def test_bad_subcommand_exits_one():
    assert cli.main(["no-such-command"]) == 1


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_module_entry_point(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    # the child imports the same ghbound as this test, installed or not
    src = os.path.dirname(os.path.dirname(ghbound.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "ghbound", "gh-exact",
         "--x", str(x), "--y", str(x)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.0
