"""The benchmark's traced run must still find every boundary it wraps.

``bench/tracing.py`` replaces the module attributes listed in its
``BOUNDARIES`` with timing wrappers, so renaming or removing one of them
breaks ``bench/run.py --trace 1``.  This loads that file by path and
resolves every listed attribute on the imported planarloc modules.
"""

import importlib.util
from pathlib import Path

import pytest

from planarloc import chebyshev, cli, documents, fermat, geom

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = {
    "geom": geom,
    "fermat": fermat,
    "chebyshev": chebyshev,
    "documents": documents,
    "cli": cli,
}


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("path", sorted({path for _, path, _ in _boundaries()}))
def test_boundary_resolves_to_a_callable(path):
    head, *rest = path.split(".")
    owner = MODULES[head]
    for part in rest:
        owner = getattr(owner, part)
    assert callable(owner)
