"""JSON forms for the file formats the CLI reads and writes.

Subsets: {"manifold": {"kind": "circle"|"flat_torus"|"euclidean", "dim": n,
          "params": [...]}, "points": [[...], ...]} with optional "rho",
          "kappa", "fill_rad" keys on the manifold.
Metric spaces: {"dist": [[...], ...], "labels": [...]} (labels checked, not kept).
Complexes: {"scale": r, "vertex_count": m, "simplices": {"0": [[0], ...], ...}}
          with every dimension up to max_dim present (possibly empty), so the
          file records the construction cap. Dimension keys are canonical
          decimals ("1", not "01") from 0 to the number of listed vertices.
"""

from __future__ import annotations

import json
import math
import re
import sys

import numpy as np

from .bounds import BoundReport
from .complexes import SimplicialComplex
from .gh import GHResult
from .manifolds import (AmbientManifold, FiniteMetricSpace, FiniteSubset,
                        circle, euclidean, flat_torus)
from .ratio import RatioReport


def manifold_to_dict(m: AmbientManifold) -> dict:
    out = {"kind": m.kind, "dim": m.dim, "params": list(m.params)}
    if not math.isinf(m.rho):
        out["rho"] = m.rho
    if m.kappa != 0.0:
        out["kappa"] = m.kappa
    if m.fill_rad is not None:
        out["fill_rad"] = m.fill_rad
    return out


def _number(v) -> bool:
    """A JSON number a double can hold: not a bool, not an integer past 1e308."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


def _finite(v) -> bool:
    return _number(v) and math.isfinite(v)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


_numbers = _list_of(_number)


def _matrix(v) -> bool:
    return _list_of(_numbers)(v) and len({len(row) for row in v}) <= 1


_KINDS = {
    "a number": _finite,
    "a number or null": lambda v: v is None or _finite(v),
    "an integer": lambda v: _finite(v) and (isinstance(v, int) or v.is_integer()),
    "an object": lambda v: isinstance(v, dict),
    "a kind name or an object": lambda v: isinstance(v, (str, dict)),
    "a list of numbers": _numbers,
    "a list of strings": _list_of(lambda x: isinstance(x, str)),
    "a list of names": _list_of(lambda x: isinstance(x, (str, int, float))),
    "a list of vertex lists": _list_of(_list_of(lambda x: type(x) is int)),
    "a matrix of numbers": _matrix,
    "a list of points": lambda v: _numbers(v) or _matrix(v),
}
REQUIRED = object()


def read_key(d: dict, key, kind: str, where: str, default=REQUIRED):
    """d[key] from outside input, checked to be of the given kind (a _KINDS key).

    Returns the JSON value unchanged; an integer may be an integral float, a
    string never stands for a number, and a lone number must be finite (lists
    of numbers are checked for finiteness where they are used). A missing key
    gives the default, or a ValueError naming the key when there is none.
    """
    if key not in d:
        if default is REQUIRED:
            raise ValueError(f"{where} needs {key!r}")
        return default
    value = d[key]
    if not _KINDS[kind](value):
        raise ValueError(f"{where} {key!r} must be {kind}, not {json.dumps(value)}")
    return value


def manifold_from_dict(d: dict) -> AmbientManifold:
    kind = d.get("kind")
    where = f"{kind} manifold"
    extra = {}  # a null rho or fill_rad is unknown: the model's default applies
    for key, key_kind in (("rho", "a number or null"), ("kappa", "a number"),
                          ("fill_rad", "a number or null")):
        value = read_key(d, key, key_kind, "manifold", None)
        if value is not None:
            extra[key] = value
    if kind == "circle":
        params = read_key(d, "params", "a list of numbers", where, [math.tau])
        if len(params) != 1:
            raise ValueError(f"circle manifold 'params' must be a list of 1 number, "
                             f"not {json.dumps(params)}")
        return circle(*params, **extra)
    if kind == "flat_torus":
        return flat_torus(read_key(d, "params", "a list of numbers", where), **extra)
    if kind == "euclidean":
        return euclidean(int(read_key(d, "dim", "an integer", where)), **extra)
    raise ValueError(f"unknown manifold kind {kind!r}")


def subset_to_dict(s: FiniteSubset) -> dict:
    return {"manifold": manifold_to_dict(s.manifold), "points": s.points.tolist()}


def subset_from_dict(d: dict) -> FiniteSubset:
    manifold = manifold_from_dict(read_key(d, "manifold", "an object", "subset JSON"))
    points = read_key(d, "points", "a list of points", "subset JSON")
    return FiniteSubset(manifold, np.asarray(points, dtype=np.float64))


def metric_space_from_dict(d: dict) -> FiniteMetricSpace:
    dist = read_key(d, "dist", "a matrix of numbers", "metric space JSON")
    labels = read_key(d, "labels", "a list of names", "metric space JSON", [])
    if labels and len(labels) != len(dist):
        raise ValueError("distance matrix shape does not match labels")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    return FiniteMetricSpace(np.asarray(dist, dtype=np.float64))


def load_space(d: dict) -> FiniteMetricSpace:
    """Accept either a metric-space JSON dict or a subset JSON dict."""
    if "manifold" in d:
        return subset_from_dict(d).to_metric_space()
    return metric_space_from_dict(d)


def complex_from_dict(d: dict) -> SimplicialComplex:
    scale = read_key(d, "scale", "a number", "complex JSON")
    raw = read_key(d, "simplices", "an object", "complex JSON")
    if not raw:
        raise ValueError("complex JSON 'simplices' must map at least one "
                         "dimension to its simplices")
    simplices = {}
    for dim in raw:  # one spelling per dimension: int() reads "01" and "1_0" too
        if not re.fullmatch(r"0|-?[1-9][0-9]*", dim):
            raise ValueError(f"complex JSON 'simplices' key {dim!r} is not a "
                             "dimension in canonical decimal")
        entries = read_key(raw, dim, "a list of vertex lists",
                           "complex JSON 'simplices' entry")
        simplices[int(dim)] = entries
    max_dim = max(simplices)
    listed = len(set(map(tuple, simplices.get(0, ()))))  # no simplex has more vertices
    if min(simplices) < 0 or max_dim > listed:
        raise ValueError(f"complex JSON 'simplices' keys run from {min(simplices)} to "
                         f"{max_dim}, not within 0 to {listed}, the listed vertices")
    vertex_count = read_key(d, "vertex_count", "an integer", "complex JSON", None)
    if vertex_count is None:
        vertex_count = 1 + max((v for entries in simplices.values()
                                for s in entries for v in s), default=0)
    return SimplicialComplex(int(vertex_count), float(scale), max_dim, simplices)


def bound_report_to_dict(r: BoundReport) -> dict:
    return {"bound": r.bound_id, "terms": {name: value for name, value in r.terms},
            "lower_bound": r.lower_bound, "vacuous": r.vacuous,
            "flags": dict(r.flags), "inputs": dict(r.inputs)}


def gh_result_to_dict(r: GHResult) -> dict:
    return {"value": r.value, "correspondence": [list(p) for p in r.correspondence.pairs],
            "nodes_explored": r.nodes_explored, "proven_optimal": r.proven_optimal}


def ratio_report_to_dict(r: RatioReport) -> dict:
    return {"n": r.n, "hausdorff": r.hausdorff,
            "hausdorff_after_isometry": r.gh_upper,
            "gh_upper": r.gh_upper, "ratio_upper": r.ratio_upper}


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top-level JSON value must be an object, "
                         f"not {type(obj).__name__}")
    return obj


def write_json(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
