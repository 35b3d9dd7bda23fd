"""The scripts under ``scripts/`` run to completion on small sweeps."""

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
