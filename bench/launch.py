"""The cli workload's caller: one ``python -m planarloc solve`` child per solve.

run.py starts this file with a job as JSON on standard input and reads one
JSON line back.  It imports only the standard library and stays small on
purpose: Linux carries the peak resident memory of a process's old address
space across exec, so a child started by a large process reports that
process's footprint as its own floor in wait4.  Started from here, each
child's peak is its own.

The job holds the commands of one round, the working directory, and the
run length (``seconds``, ``min_rounds``, ``max_seconds``) with the same
meaning as in worker.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def kill_after(proc, seconds: float) -> threading.Timer:
    """Kill proc unless the returned timer is cancelled within seconds."""
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def solve_once(cmd, cwd, err, timeout_s: float):
    """Run one child; return (exit code, stdout, wall seconds, peak RSS in MB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=cwd, text=True)
    timer = kill_after(proc, timeout_s)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, t1 - t0, usage.ru_maxrss / 1024.0


def main() -> int:
    job = json.load(sys.stdin)
    latency_ms, answers = [], {}
    rss_mb = 0.0
    solves = rounds = 0
    deadline = perf_counter() + job["budget_s"]
    with open(job["stderr"], "w") as err:
        t_start = perf_counter()
        while (rounds < job["min_rounds"] or perf_counter() - t_start < job["seconds"]) and (
            perf_counter() - t_start < job["max_seconds"]
        ):
            for i, cmd in enumerate(job["cmds"]):
                timeout_s = max(deadline - perf_counter(), 1.0)
                code, out, wall, rss = solve_once(cmd, job["cwd"], err, timeout_s)
                rss_mb = max(rss_mb, rss)
                if code == 0:
                    latency_ms.append(1e3 * wall)
                answers[(i, code, out)] = answers.get((i, code, out), 0) + 1
                solves += 1
            rounds += 1
        elapsed = perf_counter() - t_start
    print(json.dumps({
        "rounds": rounds,
        "attempted": solves,
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "latency_ms": latency_ms,
        "answers": [[i, [code, out], n] for (i, code, out), n in answers.items()],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
