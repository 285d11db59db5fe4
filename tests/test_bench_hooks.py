"""The benchmark's tracer patches ghbound names from outside the package.

bench/spans.py looks every function it times up by name (cli's imports, the
homology module's check_simplicial and inclusion_map, FiniteSubset's
to_metric_space, ...). A name deleted or renamed in src/ would otherwise break
only a traced benchmark run, so this installs the tracer, checks that it
patched something, and checks that uninstall puts every original object back.
"""

from __future__ import annotations

import os

from ghbound import cli, complexes, gh, homology, manifolds, sampling, serialize

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def _namespaces():
    return {"cli": cli, "complexes": complexes, "gh": gh, "homology": homology,
            "manifolds": manifolds, "sampling": sampling, "serialize": serialize,
            "FiniteSubset": manifolds.FiniteSubset}


def _snapshot():
    return {name: dict(vars(owner)) for name, owner in _namespaces().items()}


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))  # bench/ is not a package
    from spans import Tracer

    before = _snapshot()
    tracer = Tracer()
    try:
        tracer.install()
        during = _snapshot()
    finally:
        tracer.uninstall()
    after = _snapshot()

    patched = {(name, attr) for name, attrs in before.items()
               for attr, value in attrs.items() if during[name].get(attr) is not value}
    assert ("homology", "check_simplicial") in patched
    assert ("homology", "inclusion_map") in patched
    assert ("cli", "fundamental_class_survives") in patched
    assert ("FiniteSubset", "to_metric_space") in patched
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
