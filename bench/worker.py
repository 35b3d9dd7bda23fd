"""The solving process of one benchmark run.

run.py starts this file in a fresh interpreter.  It imports planarloc from
the checkout's ``src``, solves one fixed small instance per public solver
the workload uses, and prints ``ready``: the time from its start to that
line is the workload's set-up time.  With ``--setup-only`` it stops there.
Otherwise it loads the round that run.py wrote, repeats it whole until
``--seconds`` have passed and at least ``--min-rounds`` rounds are done,
writes every solve's wall time to ``latency_ms.bin`` and prints one JSON
line: its peak resident memory, the distinct answers with how often each
came back, and with ``--trace 1`` the per-layer figures.  run.py checks
the answers, outside this process.

One caller, one thread, closed loop: the next solve starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import json
import pickle
import re
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _import_program(workload: str) -> dict:
    """Import planarloc (planarloc.cli for cli) from the checkout, no other copy."""
    import planarloc
    from planarloc import chebyshev, fermat, geom

    if Path(planarloc.__file__).resolve().parent != SRC / "planarloc":
        raise SystemExit(f"planarloc imported from {planarloc.__file__}, not from {SRC}")
    modules = {"geom": geom, "fermat": fermat, "chebyshev": chebyshev}
    if workload == "cli":
        from planarloc import cli, documents

        modules.update(cli=cli, documents=documents)
    return modules


def _call(op, m: dict, run_dir: Path):
    """A no-argument function doing one solve through the module attributes.

    The attributes are looked up at call time, so the traced run's wrappers
    are the ones called.
    """
    p, w = op.points, op.weights
    fermat, chebyshev = m["fermat"], m["chebyshev"]
    if op.solver == "median":
        return lambda: fermat.solve_ft_n(fermat.WeightedConfiguration(p, w))
    if op.solver == "ft3":
        return lambda: fermat.solve_ft3_weighted(p[0], p[1], p[2], w)
    if op.solver == "ft4":
        return lambda: fermat.solve_ft4(p[0], p[1], p[2], p[3])
    if op.solver == "circle":
        return lambda: chebyshev.solve_chebyshev(p)
    if op.solver == "circle_w":
        return lambda: chebyshev.solve_chebyshev_weighted(p, w)
    if op.solver == "cli":
        cli = m["cli"]
        argv = ["solve", str(run_dir / op.file), *op.args]

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        return run_cli
    raise ValueError(op.solver)


def answer_key(op, out) -> tuple:
    """What run.py needs to check one answer, as JSON-ready values."""
    if op.solver == "cli":
        return tuple(out)
    if op.kind == "chebyshev":
        c = out.center
        return ("circle", c.real, c.imag, float(out.radius), bool(out.certificate.passed))
    sol = out.solution
    passed = bool(out.certificate.passed)
    if hasattr(sol, "location"):
        x = sol.location
        return ("point", x.real, x.imag, float(out.objective), passed)
    return ("segment", sol.start.real, sol.start.imag, sol.end.real, sol.end.imag,
            float(out.objective), passed)


def _warm_up(workload: str, m: dict, run_dir: Path) -> None:
    import workloads

    if workload == "cli":
        ops = workloads.WARMUP_CLI
    else:
        ops = [workloads.WARMUP[s] for s in workloads.WARMUP_SOLVERS[workload]]
    for op in ops:
        _call(op, m, run_dir)()


def _peak_rss_mb() -> float:
    """This process's peak resident memory since it started, in MB.

    VmHWM, not getrusage: Linux carries the parent's footprint into a
    child's ru_maxrss across exec, and run.py is the larger process.
    """
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\s*(\d+) kB", fh.read()).group(1)) / 1024.0


def _alloc_peaks(ops, calls) -> dict:
    """tracemalloc peak of one solve, in MB, per kind of solve.

    Only the instance with the most points of each kind is measured: the
    peak grows with n, and tracing every allocation slows a pure-Python
    solve by up to 17 times, too slow for a whole round.
    """
    largest = {}
    for op, call in zip(ops, calls):
        if op.kind not in largest or len(op.points) > len(largest[op.kind][0].points):
            largest[op.kind] = (op, call)
    peaks = {"fermat": 0.0, "chebyshev": 0.0}
    tracemalloc.start()
    try:
        for kind, (op, call) in largest.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks[kind] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--run-dir", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--max-seconds", type=float, default=math.inf,
                    help="start no round after this long, even below --min-rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    m = _import_program(args.workload)
    _warm_up(args.workload, m, args.run_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(args.run_dir / "round.pkl", "rb") as fh:
        ops = pickle.load(fh)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(m)
    calls = [_call(op, m, args.run_dir) for op in ops]
    timed = [tracer.span("solve", c) for c in calls] if tracer else calls

    # a traced run spends part of its --seconds on the allocation peaks
    t_run = perf_counter()
    alloc_peak_mb = _alloc_peaks(ops, calls) if tracer else None
    latency_ms = array("d")
    answers: dict = {}
    solves = 0
    rounds = 0
    t_start = perf_counter()
    while (rounds < args.min_rounds or perf_counter() - t_run < args.seconds) and (
        perf_counter() - t_run < args.max_seconds
    ):
        for i, call in enumerate(timed):
            if tracer:
                tracer.solve_id = solves
            t0 = perf_counter()
            try:
                out = call()
            except Exception as e:  # a refused solve is counted, not fatal
                t1 = perf_counter()
                key = ("error", type(e).__name__, str(e))
            else:
                t1 = perf_counter()
                latency_ms.append(1e3 * (t1 - t0))
                key = answer_key(ops[i], out)
            if tracer:
                tracer.solve_id = -1
            solves += 1
            answers[(i, key)] = answers.get((i, key), 0) + 1
        rounds += 1
    elapsed = perf_counter() - t_start
    peak_rss_mb = _peak_rss_mb()
    with open(args.run_dir / "latency_ms.bin", "wb") as fh:
        latency_ms.tofile(fh)

    result = {
        "rounds": rounds,
        "attempted": solves,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "answers": [[i, list(key), n] for (i, key), n in answers.items()],
    }
    if tracer:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"trace-{args.workload}.npz"))
        tracer.print_table(solves)
        result["trace"] = {
            "self_ms": {k: 1e3 * v for k, v in tracer.self_s.items()},
            "calls": dict(tracer.calls),
            "bytes_out": tracer.bytes_out,
            "alloc_peak_mb": alloc_peak_mb,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
