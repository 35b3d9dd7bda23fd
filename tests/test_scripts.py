"""The scripts under ``scripts/`` run to completion on small sweeps, and the
gate-mutant table of ``mutate_gate.py`` points at live source."""

import importlib.util
from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
KINDS = ["fermat", "chebyshev", "both", "distinct", "linf", "closed", "l1", "paths", "perturb"]


@pytest.mark.parametrize("kind", KINDS)
def test_random_cross_check(tmp_path, kind):
    script = str(SCRIPTS / "random_cross_check.py")
    proc = run_python([script, "--count", "5", "--kind", kind], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_worked_example(tmp_path):
    script = str(SCRIPTS / "run_worked_example.py")
    proc = run_python([script, "--svg-dir", str(tmp_path)], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == ["sqrt2.svg", "sqrt3.svg"]


def test_circle_sweep_bounds_the_radius_from_both_sides(tmp_path):
    # trial 119 of seed 7 certifies a radius below the grid oracle's, which
    # only bounds the optimum from above; the pair bound is tight there
    script = str(SCRIPTS / "random_cross_check.py")
    proc = run_python([script, "--count", "120", "--seed", "7"], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_gate_mutant_names_source_that_occurs_once():
    # scripts/mutate_gate.py is not run here; its table must still point
    # at live source, each text once in its file and once in all of src/
    spec = importlib.util.spec_from_file_location("mutate_gate", SCRIPTS / "mutate_gate.py")
    mutate_gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate_gate)
    package = SCRIPTS.parent / "src" / "planarloc"
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert len({m.name for m in mutate_gate.MUTANTS}) == len(mutate_gate.MUTANTS)
    for m in mutate_gate.MUTANTS:
        assert sources[m.file].count(m.source) == 1, m.name
        assert sum(text.count(m.source) for text in sources.values()) == 1, m.name
        assert m.loosened != m.source, m.name
