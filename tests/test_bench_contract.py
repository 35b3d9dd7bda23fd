"""The benchmark's answers, checked by the benchmark's own code.

``bench/run.py`` counts an answer as wrong when ``run.judge`` rejects it,
and that check reads the result document the command line prints.  This
runs the benchmark's warm-up operations and the ``cli`` round at seed 0
through ``bench/worker._call``, the function that makes every timed solve,
and judges each answer the way ``bench/run.py`` does, so that a change to
a document or a signature that the benchmark would report as incorrect
fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from planarloc import chebyshev, cli, documents, fermat, geom  # noqa: E402

MODULES = {
    "geom": geom,
    "fermat": fermat,
    "chebyshev": chebyshev,
    "cli": cli,
    "documents": documents,
}
CLI_OPS = list(workloads.WARMUP_CLI) + workloads.build_round("cli", 0)


def _judge(op, run_dir):
    key = worker.answer_key(op, worker._call(op, MODULES, run_dir)())
    return run.judge(op, key)


@pytest.mark.parametrize("op", list(workloads.WARMUP.values()), ids=lambda op: op.label)
def test_warm_up_solves_pass_the_benchmark_checks(op, tmp_path):
    assert _judge(op, tmp_path) == (False, None)


@pytest.mark.parametrize("op", CLI_OPS, ids=lambda op: op.label)
def test_cli_documents_pass_the_benchmark_checks(op, tmp_path):
    (tmp_path / op.file).write_text(workloads.problem_text(op), encoding="utf-8")
    assert _judge(op, tmp_path) == (False, None)


@pytest.mark.parametrize("kind", ["fermat", "chebyshev"])
def test_one_point_documents_pass_the_benchmark_checks(kind, tmp_path):
    # no workload has one point; its document must pass all the same
    op = workloads.Op("one.json", "cli", kind, (50 - 7j,), None, file="one.json")
    (tmp_path / op.file).write_text(workloads.problem_text(op), encoding="utf-8")
    assert _judge(op, tmp_path) == (False, None)
