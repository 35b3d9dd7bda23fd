"""planarloc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload median-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; planarloc is imported from its ``src``.
The seed makes one round of operations (see workloads.py); the round is
repeated whole, in a fresh solving process (worker.py, or one
``python -m planarloc solve`` child per solve for ``cli``), until
``--seconds`` have passed and enough solves are timed for the tail
percentile.  Every answer is then checked by checks.py, which does not
import planarloc.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402  (this directory is on sys.path as the script's own)
import workloads  # noqa: E402
from launch import kill_after  # noqa: E402

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "geom.ensure_distinct_ms": "ms",
    "geom.ensure_distinct_calls": "calls",
    "fermat.config_ms": "ms",
    "fermat.solve_ms": "ms",
    "fermat.certify_ms": "ms",
    "fermat.certify_calls": "calls",
    "bjorth.build_l1_ms": "ms",
    "chebyshev.solve_ms": "ms",
    "chebyshev.certify_ms": "ms",
    "chebyshev.certify_calls": "calls",
    "chebyshev.certify_useful_ratio": "ratio",
    "geom.circumcenter3_calls": "calls",
    "geom.apollonius_locus_calls": "calls",
    "geom.hull_membership_calls": "calls",
    "geom.hull_membership_ms": "ms",
    "fermat.alloc_peak_mb": "MB",
    "chebyshev.alloc_peak_mb": "MB",
    "documents.load_ms": "ms",
    "documents.emit_ms": "ms",
    "documents.bytes_out": "bytes",
    "cli.startup_ms": "ms",
    "cli.main_ms": "ms",
    "trace.solves_per_s": "1/s",
}

# Tail percentile per workload, and so the fewest solves a run times: the
# percentile must leave at least ten samples beyond it.
TAIL_PERCENTILE = {"median-large": 90.0, "tiny": 99.0, "circle": 90.0, "cli": 75.0}
# Set-ups are timed half before and half after the timed rounds: the
# machine's speed drifts in phases of seconds, and two groups 25 s apart
# sample two phases where back-to-back set-ups sample one.
SETUP_REPEATS = 6
STARTUP_REPEATS = 3
# A run stops starting rounds after this long even below its sample floor,
# so that a run of a much slower program still ends within three minutes.
HARD_STOP_S = 110.0
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _min_samples(pct: float) -> int:
    return int(round(10 * 100 / (100 - pct)))


def _nearest_rank(sorted_vals, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_vals)
    rank = -(-round(pct * 10) * n // 1000)  # ceil(pct/100 * n), in integers
    rank = min(max(rank, 1), n)
    return sorted_vals[rank - 1], n - rank


def _time_to_ready(cmd, env, budget_s: float) -> float:
    """Seconds from starting cmd until it prints its first line; then reap it."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = kill_after(proc, budget_s)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} did not start cleanly (exit {proc.returncode})")
    return t1 - t0


def _worker_cmd(workload, run_dir, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--run-dir", str(run_dir), *extra]


def run_worker(workload, run_dir, seconds, min_rounds, trace, budget_s) -> dict:
    """Run the timed rounds in a fresh worker and return its report."""
    cmd = _worker_cmd(workload, run_dir, "--seconds", repr(seconds),
                      "--min-rounds", str(min_rounds), "--trace", str(trace),
                      "--max-seconds", repr(HARD_STOP_S))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
                          timeout=budget_s)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    report = json.loads(lines[-1])
    latency_ms = array("d")
    latency_ms.frombytes((run_dir / "latency_ms.bin").read_bytes())
    report["latency_ms"] = latency_ms
    return report


def run_cli_children(ops, run_dir, seconds, min_rounds, budget_s) -> dict:
    """The cli workload untraced: launch.py starts one solve child per solve."""
    job = {
        "cmds": [[sys.executable, "-m", "planarloc", "solve", str(run_dir / op.file), *op.args]
                 for op in ops],
        "cwd": str(run_dir),
        "stderr": str(run_dir / "cli-stderr.txt"),
        "seconds": seconds,
        "min_rounds": min_rounds,
        "max_seconds": HARD_STOP_S,
        "budget_s": budget_s - 5.0,
    }
    proc = subprocess.run([sys.executable, str(HERE / "launch.py")], input=json.dumps(job),
                          stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
                          timeout=budget_s)
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(op, key) -> tuple[bool, str | None]:
    """(refused, wrong-answer reason) for one distinct answer to op."""
    if key[0] == "error":
        return True, None
    if op.solver == "cli":
        code, text = key
        if code != 0:
            return True, None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            return False, f"stdout is not JSON: {e}"
        return False, checks.cli_document(op, doc)
    if not key[-1]:
        return True, None  # returned with certificate.passed false
    if key[0] == "circle":
        return False, checks.circle(op.points, op.weights, complex(key[1], key[2]), key[3])
    if key[0] == "segment":
        answer = (complex(key[1], key[2]), complex(key[3], key[4]))
    else:
        answer = complex(key[1], key[2])
    return False, checks.median(op.points, op.weights, answer, key[-2])


def tally(ops, report) -> tuple[int, int]:
    """Check every distinct answer; return (failed solves, wrong solves)."""
    failed = wrong = 0
    for i, key, n in report["answers"]:
        refused, reason = judge(ops[i], key)
        if refused:
            failed += n
            print(f"refused: {ops[i].label}: {key[:3] if key[0] == 'error' else key[0]}",
                  file=sys.stderr)
        elif reason is not None:
            failed += n
            wrong += n
            print(f"WRONG: {ops[i].label}: {reason}", file=sys.stderr)
    return failed, wrong


def end_to_end(workload, report, certified, setup) -> dict:
    lat = sorted(report["latency_ms"])
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = _nearest_rank(lat, pct)
    print(f"{workload}: {report['rounds']} rounds, {report['attempted']} solves in "
          f"{report['elapsed_s']:.2f} s; latency samples {len(lat)}, tail = "
          f"p{pct:g} with {beyond} samples beyond; setup runs {len(setup)}",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "solves_per_s": certified / report["elapsed_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(ops, report, certified, startup_s) -> dict:
    tr = report["trace"]
    solves = report["attempted"]
    self_ms, calls = tr["self_ms"], tr["calls"]
    out = {}
    for metric in PER_LAYER:
        layer, _, what = metric.rpartition("_")
        if what == "ms":
            out[metric] = self_ms.get(layer, 0.0) / solves
        elif what == "calls":
            out[metric] = calls.get(layer, 0) / solves
    circle_solves = solves // len(ops) * sum(op.kind == "chebyshev" for op in ops)
    cert_calls = calls.get("chebyshev.certify", 0)
    out["chebyshev.certify_useful_ratio"] = circle_solves / cert_calls if cert_calls else 0.0
    out["fermat.alloc_peak_mb"] = tr["alloc_peak_mb"]["fermat"]
    out["chebyshev.alloc_peak_mb"] = tr["alloc_peak_mb"]["chebyshev"]
    out["documents.bytes_out"] = tr["bytes_out"] / solves
    out["cli.startup_ms"] = 1e3 * statistics.median(startup_s)
    out["trace.solves_per_s"] = certified / report["elapsed_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one planarloc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "planarloc" / "__init__.py").is_file():
        print(f"error: no planarloc package under {SRC}", file=sys.stderr)
        return 2
    t_begin = perf_counter()
    budget_s = 170.0

    t0 = perf_counter()
    ops = workloads.build_round(args.workload, args.seed)
    print(f"inputs generated in {perf_counter() - t0:.3f} s (not timed): "
          f"{len(ops)} solves per round", file=sys.stderr)

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            for op in (*ops, *workloads.WARMUP_CLI):
                (run_dir / op.file).write_text(workloads.problem_text(op))
        with open(run_dir / "round.pkl", "wb") as fh:
            pickle.dump(ops, fh)

        env = _env()
        min_rounds = math.ceil(_min_samples(TAIL_PERCENTILE[args.workload]) / len(ops))
        if args.trace:
            import_cmd = [sys.executable, "-c", "import planarloc.cli; print('ready', flush=True)"]
            startup = [_time_to_ready(import_cmd, env, 60.0) for _ in range(STARTUP_REPEATS)]
        else:
            setup_cmd = _worker_cmd(args.workload, run_dir, "--setup-only")
            setup = [_time_to_ready(setup_cmd, env, 30.0) for _ in range(SETUP_REPEATS // 2)]

        remaining = budget_s - (perf_counter() - t_begin)
        if args.workload == "cli" and not args.trace:
            report = run_cli_children(ops, run_dir, args.seconds, min_rounds, remaining)
        else:
            report = run_worker(args.workload, run_dir, args.seconds, min_rounds,
                                args.trace, remaining)

        if not args.trace:
            setup += [_time_to_ready(setup_cmd, env, 30.0) for _ in range(SETUP_REPEATS // 2)]
        failed, wrong = tally(ops, report)
        certified = report["attempted"] - failed
        if args.trace:
            metrics = per_layer(ops, report, certified, startup)
            units = PER_LAYER
        else:
            metrics = end_to_end(args.workload, report, certified, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": wrong == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
