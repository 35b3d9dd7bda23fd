"""The numpy-free path on the other interpreters that ``requires-python`` admits.

Each of ``python3.10`` to ``python3.13`` found on PATH, other than the
running interpreter's version, that starts (``-c pass`` exits 0) runs a
probe with ``PYTHONPATH`` set to the package's source directory: a
40-point configuration's total weight must equal its weights added left
to right, a five-point median must certify, neither may load numpy, and
``python -m planarloc solve`` must exit 0 on a three-point file and on
one whose weights add up, left to right, to the largest double.  The
test skips when no other interpreter starts.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import planarloc

VERSIONS = ("3.10", "3.11", "3.12", "3.13")

# Python 3.12 made sum of floats compensated; these 40 weights sum to
# 51.531405423047836 that way and to 51.53140542304783 left to right
PROBE = """
import functools, operator, random, sys
from planarloc import WeightedConfiguration, solve_ft_n
random.seed(3)
wts = [random.uniform(0.5, 2.0) for _ in range(40)]
config = WeightedConfiguration([complex(k % 8, k // 8) for k in range(40)], wts)
assert config.total_weight == functools.reduce(operator.add, wts), config.total_weight
median = WeightedConfiguration((0, 2, 3 + 1j, 1 + 2j, -1 + 1j), (1.0, 2.0, 1.0, 1.5, 1.2))
assert solve_ft_n(median).certificate.passed
assert "numpy" not in sys.modules
"""


def _starts(exe):
    try:
        return subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def _other_interpreters():
    running = f"{sys.version_info.major}.{sys.version_info.minor}"
    found = (shutil.which(f"python{v}") for v in VERSIONS if v != running)
    return [exe for exe in found if exe is not None and _starts(exe)]


def test_numpy_free_path_on_other_interpreters(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.13 on PATH starts")
    problem = tmp_path / "three.json"
    problem.write_text(
        json.dumps({"kind": "fermat", "points": [[0, 0], [2, 0], [1, 1.5]]}), encoding="utf-8"
    )
    # weights whose left-to-right sum is the largest double, which the
    # configuration accepts; a compensated sum of them is beyond the doubles
    borderline = tmp_path / "borderline.json"
    borderline.write_text(
        json.dumps(
            {
                "kind": "fermat",
                "points": [[0, 0], [1, 0], [0, 1]],
                "weights": [1.7976931348623157e308, 6e291, 6e291],
            }
        ),
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(planarloc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for exe in interpreters:
        for args in (
            ["-c", PROBE],
            ["-m", "planarloc", "solve", str(problem)],
            ["-m", "planarloc", "solve", str(borderline)],
        ):
            proc = subprocess.run(
                [exe, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, (exe, args, proc.stderr)
