"""One-off reference figures for README.md; these are not workloads.

    python3 bench/reference.py

Run from the root of a checkout.  Each figure is a single timing on the
machine it runs on, so compare them only with figures taken on the same
machine.  The covering-circle solves at n=80 build a candidates-by-points
distance matrix and need a few hundred MB for a few seconds.

Prints:
* the plain and the weighted covering circle at n=80,
* WeightedConfiguration construction against solve_ft_n at n=3000,
* one ``python -m planarloc solve`` of a 2000-point weighted median,
* solve_ft_n on 40 instances far from the origin, where it misses its
  tolerance, with the best relative residual it reached,
* certificate calls and time of solve_chebyshev on cocircular points
  against uniform ones, counted with the benchmark's tracer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import planarloc  # noqa: E402
from planarloc import chebyshev, fermat  # noqa: E402

import workloads  # noqa: E402
from run import THREAD_PINS  # noqa: E402
from tracing import Tracer  # noqa: E402


def _pts(a):
    return [complex(x, y) for x, y in a]


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def circles():
    rng = np.random.default_rng(0)
    pts = _pts(workloads.uniform(rng, 80))
    w = list(workloads.weights_for(rng, 80))
    t, _ = _timed(lambda: chebyshev.solve_chebyshev(pts))
    print(f"solve_chebyshev, n=80 uniform: {t:.2f} s")
    t, _ = _timed(lambda: chebyshev.solve_chebyshev_weighted(pts, w))
    print(f"solve_chebyshev_weighted, n=80 uniform: {t:.2f} s")


def median_3000():
    rng = np.random.default_rng(0)
    pts = _pts(workloads.uniform(rng, 3000))
    w = list(workloads.weights_for(rng, 3000))
    t_cfg, cfg = _timed(lambda: fermat.WeightedConfiguration(pts, w))
    t_solve, _ = _timed(lambda: fermat.solve_ft_n(cfg))
    print(f"n=3000 median: WeightedConfiguration {1e3 * t_cfg:.0f} ms, "
          f"solve_ft_n {1e3 * t_solve:.0f} ms")


def cli_2000(tmp: Path):
    rng = np.random.default_rng(0)
    doc = {"kind": "fermat", "points": workloads.uniform(rng, 2000).tolist(),
           "weights": workloads.weights_for(rng, 2000).tolist()}
    path = tmp / "median-2000.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    cmd = [sys.executable, "-m", "planarloc", "solve", str(path)]
    t, proc = _timed(lambda: subprocess.run(cmd, env=env, capture_output=True, timeout=120))
    print(f"python -m planarloc solve, 2000-point weighted median: {t:.2f} s "
          f"(exit {proc.returncode})")


def far_offset():
    rng = np.random.default_rng(0)
    misses, residuals = 0, []
    for _ in range(40):
        pts = _pts(rng.uniform(-1.0, 1.0, (200, 2)) + 1e7)
        w = list(rng.uniform(0.5, 2.0, 200))
        try:
            fermat.solve_ft_n(fermat.WeightedConfiguration(pts, w))
        except planarloc.MaxIterationsExceeded as e:
            misses += 1
            residuals.append(abs(e.certificate.forced) / sum(w))
    span = f", best relative residual {min(residuals):.1e} to {max(residuals):.1e}" if residuals else ""
    print(f"offset 1e7, 40 x 200 points: {misses} of 40 raise MaxIterationsExceeded{span} "
          f"(tolerance 1e-10)")


def cocircular_scan():
    tracer = Tracer()
    tracer.install({"chebyshev": chebyshev})
    rng = np.random.default_rng(0)
    for label, pts in (("uniform 20", workloads.uniform(rng, 20)),
                       ("cocircular 20", workloads.cocircular(rng, 20)),
                       ("cocircular 30", workloads.cocircular(rng, 30))):
        tracer.calls.clear()
        tracer.solve_id = 0
        t, _ = _timed(lambda: chebyshev.solve_chebyshev(_pts(pts)))
        tracer.solve_id = -1
        print(f"solve_chebyshev, {label}: {tracer.calls['chebyshev.certify']} "
              f"certificate calls, {1e3 * t:.0f} ms")


def main() -> int:
    tmp = HERE.parent / ".bench_out" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        median_3000()
        cli_2000(tmp)
        far_offset()
        cocircular_scan()
        circles()
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
