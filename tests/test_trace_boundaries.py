"""The benchmark's traced run must still find every boundary it wraps.

``bench/tracing.py`` replaces the module attributes listed in its
``BOUNDARIES`` with timing wrappers, so renaming or removing one of them,
or changing how it is called, breaks ``bench/run.py --trace 1``.  This
loads that file by path, resolves every listed attribute on the imported
planarloc modules and compares its signature with the one the traced run
was written against.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from planarloc import chebyshev, cli, documents, fermat, geom
from planarloc.fermat import ARRAY_MIN, WeightedConfiguration, solve_ft_n

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = {
    "geom": geom,
    "fermat": fermat,
    "chebyshev": chebyshev,
    "documents": documents,
    "cli": cli,
}
# each boundary's parameters as the traced run calls them, annotations aside
SIGNATURES = {
    "chebyshev.cheby_certificate": "(points, weights, w)",
    "chebyshev.solve_chebyshev": "(points)",
    "chebyshev.solve_chebyshev_weighted": "(points, weights)",
    "cli.main": "(argv=None)",
    "documents.ResultDocument.to_json": "(self)",
    "documents.cheby_result_document": "(result)",
    "documents.fermat_result_document": "(result, tol_used)",
    "documents.load_problem": "(path, kind_flag=None)",
    "fermat.WeightedConfiguration.__post_init__": "(self)",
    "fermat.build_l1_certificate": "(x, y, zero_mask, tol)",
    "fermat.ft_certificate": "(config, w, tol=None)",
    "fermat.solve_ft3_weighted": "(z1, z2, z3, weights)",
    "fermat.solve_ft4": "(z1, z2, z3, z4)",
    "fermat.solve_ft_n": "(config, tol=1e-10, max_iter=10000)",
    "geom.apollonius_locus": "(zi, zj, wi, wj)",
    "geom.circumcenter3": "(a, b, c)",
    "geom.convex_hull_membership": "(p, pts)",
    "geom.ensure_distinct": "(points, scale=None)",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _boundaries():
    return _tracing().BOUNDARIES


def test_every_boundary_has_a_frozen_signature():
    assert {path for _, path, _ in _boundaries()} == set(SIGNATURES)


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_boundary_resolves_to_a_callable(path):
    head, *rest = path.split(".")
    owner = MODULES[head]
    for part in rest:
        owner = getattr(owner, part)
    assert callable(owner)
    sig = inspect.signature(owner)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    assert str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty)) == (
        SIGNATURES[path]
    )


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, 2000])
def test_a_configuration_is_one_config_span(monkeypatch, n):
    # the traced run wraps the class attribute __post_init__; on the tuples
    # and on the arrays alike each construction is one call, and the solve
    # builds no configuration of its own
    tracer = _tracing().Tracer()
    traced = tracer.span("fermat.config", WeightedConfiguration.__post_init__)
    monkeypatch.setattr(WeightedConfiguration, "__post_init__", traced)
    tracer.solve_id = 0  # record, as inside a solve
    points = [complex(k % 8, k // 8 + 0.1 * k) for k in range(n)]
    weights = [1.0 + 0.01 * k for k in range(n)]
    configs = [WeightedConfiguration(points, weights) for _ in range(3)]
    assert tracer.calls["fermat.config"] == 3
    assert all(("_arrays" in vars(c)) is (n >= ARRAY_MIN) for c in configs)
    assert solve_ft_n(configs[0]).certificate.passed
    assert tracer.calls["fermat.config"] == 3
