"""Loosen each certificate gate in turn and check that some test fails.

A location leaves the package only with a certificate that passed, so the
test suite guards that promise only if loosening any part of the gate (a
certificate's pass test, its bands and tolerances, or a caller's check of
its verdict) makes a test fail.  ``MUTANTS`` is one table of one-place
mutants: the file under ``src/planarloc``, a piece of its source that
occurs exactly once in ``src/``, the loosened text that replaces it, and
the gate it weakens.

For each mutant the script copies the repository (without ``.git``) to a
temporary directory, applies that mutant alone, and runs
``python -m pytest -x -q`` there.  The mutant is killed when pytest fails
and survives when it passes.  The unmutated copy runs first and must
pass, or no verdict means anything (exit status 2).  One line is printed
per mutant, and the exit status is 1 when any mutant survives, naming
each survivor.

    python3 scripts/mutate_gate.py

Standard library only, apart from the pytest it runs.  Each run of the
suite takes about a minute on a 2-core host, so the script is not part
of the suite; ``tests/test_scripts.py`` checks only that every source
text in the table still occurs once, so the table cannot rot silently.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    file: str  # under src/planarloc
    source: str
    loosened: str
    gate: str


_POINT_RESULT = '    if not cert.passed:\n        raise NotOrthogonal(f"{case.value} solution'

MUTANTS = (
    # the sum-norm pass test |forced| <= slack + tol
    Mutant(
        "l1-tol-x4", "bjorth.py",
        "passed=need <= slack + tol,", "passed=need <= slack + 4 * tol,",
        "sum-norm pass test: tolerance x4",
    ),
    Mutant(
        "l1-tol-x1.5", "bjorth.py",
        "passed=need <= slack + tol,", "passed=need <= slack + 1.5 * tol,",
        "sum-norm pass test: tolerance x1.5",
    ),
    Mutant(
        "l1-slack-x2", "bjorth.py",
        "passed=need <= slack + tol,", "passed=need <= 2 * slack + tol,",
        "sum-norm pass test: slack x2",
    ),
    # the median's certificate and its callers
    Mutant(
        "median-band-arrays-x100", "fermat.py",
        "self.pts, self.wts = config.arrays\n        self.band = EPS_CLASS * config.diameter",
        "self.pts, self.wts = config.arrays\n        self.band = 100 * EPS_CLASS * config.diameter",
        "median coincidence band x100, array passes",
    ),
    Mutant(
        "median-band-loops-x100", "fermat.py",
        "self.pts, self.wts = config.points, config.weights\n"
        "        self.band = EPS_CLASS * config.diameter",
        "self.pts, self.wts = config.points, config.weights\n"
        "        self.band = 100 * EPS_CLASS * config.diameter",
        "median coincidence band x100, loop passes",
    ),
    Mutant(
        "ft-certificate-tol-x4", "fermat.py",
        "return build_l1_certificate(rel, passes.wts, mask, tol * config.total_weight)",
        "return build_l1_certificate(rel, passes.wts, mask, 4 * tol * config.total_weight)",
        "ft_certificate: tolerance x4",
    ),
    Mutant(
        "point-result-unchecked", "fermat.py",
        _POINT_RESULT, _POINT_RESULT.replace("if not cert.passed:", "if False:"),
        "_point_result: the closed forms' check skipped",
    ),
    Mutant(
        "point-result-tol-x10", "fermat.py",
        "cert = ft_certificate(config, w, tol)\n" + _POINT_RESULT,
        "cert = ft_certificate(config, w, 10 * (EPS_REL if tol is None else tol))\n"
        + _POINT_RESULT,
        "_point_result: the closed forms' check at 10x tol",
    ),
    Mutant(
        "iterative-unchecked", "fermat.py",
        "    if not cert.passed:\n        raise MaxIterationsExceeded(",
        "    if False:\n        raise MaxIterationsExceeded(",
        "solve_ft_n: the final check skipped",
    ),
    # the covering circle's certificate and its caller
    Mutant(
        "hull-gap-bound", "geom.py",
        "if widest > math.pi + EPS_CLASS:", "if widest > math.pi + 1e-3:",
        "hull test: widest-gap bound pi + 1e-3",
    ),
    Mutant(
        "hull-zero-band", "geom.py",
        "if mods[near] <= EPS_CLASS * max(mods):", "if mods[near] <= 1e-4 * max(mods):",
        "hull test: near-zero band 1e-4",
    ),
    Mutant(
        "linf-support-band", "bjorth.py",
        "map(((1.0 - EPS_CLASS) * top).__le__, moduli)",
        "map(((1.0 - 1e-4) * top).__le__, moduli)",
        "linf_support: band 1e-4",
    ),
    Mutant(
        "circle-unchecked", "chebyshev.py",
        "    if not cert.passed:\n        raise NotOrthogonal(\"the covering circle's",
        "    if False:\n        raise NotOrthogonal(\"the covering circle's",
        "chebyshev._solve: its own check skipped",
    ),
    # the command line's re-check and the document it reads
    Mutant(
        "cli-solve-unchecked", "cli.py",
        '    if not cert.passed:\n        print("certification failed: result withheld"',
        '    if False:\n        print("certification failed: result withheld"',
        "solve: prints without its re-check",
    ),
    Mutant(
        "recheck-floor", "cli.py",
        "tol = None if tol is None else max(tol, EPS_REL)",
        "tol = None if tol is None else max(tol, 1e-6)",
        "_recheck: floor 1e-6 for EPS_REL",
    ),
    Mutant(
        "recheck-segment-start", "cli.py",
        "w = sol[0] if len(sol) == 1 else 0.5 * (sol[0] + sol[1])",
        "w = sol[0]",
        "_recheck: a segment's start for its midpoint",
    ),
    Mutant(
        "stated-tol-parse", "documents.py",
        "if type(tol) not in (int, float) or not 0.0 < tol < math.inf:",
        "if type(tol) not in (int, float) or not 0.0 < tol:",
        "stated_check: an infinite tol accepted",
    ),
    # the paper's results, each decided by a certificate
    Mutant(
        "certified-interior-unchecked", "theorems.py",
        '    if not cert.passed:\n        raise CertificatePreconditionFailed("w is not',
        '    if False:\n        raise CertificatePreconditionFailed("w is not',
        "_require_certified_interior: the optimum's check skipped",
    ),
    Mutant(
        "addition-unchecked", "theorems.py",
        "return ft_certificate(extended, w).passed", "return True",
        "addition_preserves: answers True",
    ),
    Mutant(
        "replacement-unchecked", "theorems.py",
        "return ft_certificate(moved, w).passed", "return True",
        "replacement_preserves: answers True",
    ),
    Mutant(
        "decomposition-unchecked", "theorems.py",
        "return ft_certificate(merged, w).passed", "return True",
        "decomposition_equivalence: answers True",
    ),
    Mutant(
        "scaling-unchecked", "theorems.py",
        "if not ft_certificate(out, w).passed:", "if False:",
        "scaled_configuration: the result's check skipped",
    ),
    Mutant(
        "vertex-unchecked", "theorems.py",
        '    if not cert.passed:\n        raise VertexPreconditionFailed("w is not',
        '    if False:\n        raise VertexPreconditionFailed("w is not',
        "extend_at_vertex: the vertex's check skipped",
    ),
    Mutant(
        "extension-unchecked", "theorems.py",
        "if not ft_certificate(extended, w).passed:", "if False:",
        "extend_at_vertex: the result's check skipped",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _suite_passes(tree: Path) -> tuple[bool, float]:
    """Whether ``pytest -x -q`` passes in ``tree``, and its time in seconds.

    A suite that runs past TIMEOUT_S has not passed.
    """
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "planarloc" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.source) != 1:
        raise SystemExit(f"{mutant.name}: its source text does not occur once in {mutant.file}")
    path.write_text(text.replace(mutant.source, mutant.loosened), encoding="utf-8")


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-gate-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        passed, seconds = _suite_passes(base)
        print(f"unmutated: {'passes' if passed else 'FAILS'} ({seconds:.0f} s)", flush=True)
        if not passed:
            return 2
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            _copy(tree)
            _apply(tree, mutant)
            passed, seconds = _suite_passes(tree)
            shutil.rmtree(tree)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{mutant.name}: {verdict} ({seconds:.0f} s) - {mutant.gate}", flush=True)
            if passed:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
