"""Command-line front end.

Three commands: ``solve`` runs a solver and prints a certified result
document, ``certify --at X,Y`` checks a candidate location and prints its
certificate, ``plot`` renders a problem plus an existing result to SVG.
All three check a location through the one ``_certify``, for any number
of points.  ``--tol`` is the median's; the covering circle's certificate
takes none, and refuses one.  ``solve`` re-checks the document it is
about to print and ``plot`` the one it is given, both by ``_recheck``, a
median at the tolerance the document states; the one SVG writer draws
only what that re-check certified.  Exit codes: 0 success, 1 a usage
error, parse or validation trouble (a malformed result document too), 2 a
certificate refused to pass (a solver that found no certified point
included).  Nothing is ever printed as a solution without its certificate
re-run first.  A problem is validated once, when it is loaded; every step
after that uses its ``config``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import documents, fermat
from .errors import MaxIterationsExceeded, NotOrthogonal, PlanarLocError
from .tolerances import EPS_REL


def _parse_at(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise documents.ProblemFormatError("--at: expected X,Y")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise documents.ProblemFormatError(f"--at: {e}") from e


def _check_tol(tol: Optional[float]) -> None:
    # an infinite tol passes every certificate; zero, a negative or NaN tol
    # is refused by the iterative median but not by the closed forms
    if tol is not None and not 0.0 < tol < math.inf:
        raise documents.ProblemFormatError(f"--tol: must be positive and finite, got {tol!r}")


def _solve_fermat(config, tol, max_iter) -> tuple[fermat.FtSolveResult, float]:
    # the median and the relative tolerance its certificate passed at: the
    # closed forms certify at EPS_REL whatever tol is
    if config.n == 3:
        return fermat.solve_ft3_weighted(*config.points, config.weights), EPS_REL
    if config.n == 4 and all(a == 1.0 for a in config.weights):
        return fermat.solve_ft4(*config.points), EPS_REL
    return fermat.solve_ft_n(config, tol=tol, max_iter=max_iter), tol


def _certify(problem, kind: str, w: complex, tol: Optional[float], source: str):
    # a location that is not finite, or whose offsets overflow, is at fault;
    # source names where it came from
    try:
        if kind == "fermat":
            return fermat.ft_certificate(problem.config, w, tol)
        from . import chebyshev as cheby  # only a covering circle needs it

        return cheby.cheby_certificate(problem.config, None, w)
    except ValueError as e:
        raise documents.ProblemFormatError(f"{source}: {e}") from e


def _recheck(problem, payload: dict, source: str):
    # the certificate re-run at the stated location (a segment's midpoint),
    # a median's at the stated tolerance but never below EPS_REL
    kind, tol = documents.stated_check(payload)
    sol = documents.solution_points(payload)
    w = sol[0] if len(sol) == 1 else 0.5 * (sol[0] + sol[1])
    tol = None if tol is None else max(tol, EPS_REL)
    return kind, sol, _certify(problem, kind, w, tol, source)


def _write_svg(path: str, problem, kind: str, sol, cert) -> int:
    # only what the certificate just re-run checked is drawn: its support,
    # and a circle's radius about the checked center
    from . import chebyshev as cheby
    from . import svgplot  # only an SVG needs these

    radius = cheby.chebyshev_radius(problem.config, None, sol[0]) if kind == "chebyshev" else 0.0
    svg = svgplot.render_svg(problem.config.points, kind, sol, cert.support, radius)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        print(f"cannot write svg: {e}", file=sys.stderr)
        return 1
    return 0


def _load(args):
    _check_tol(args.tol)
    problem = documents.load_problem(args.input, args.kind)
    if problem.kind is None:
        raise documents.ProblemFormatError("kind: give it in the file or via --kind")
    if problem.kind == "chebyshev" and args.tol is not None:
        raise documents.ProblemFormatError(
            "--tol: the covering circle's certificate takes no tolerance"
        )
    return problem


def cmd_solve(args) -> int:
    if args.max_iter < 1:
        raise documents.ProblemFormatError("--max-iter: must be at least 1")
    problem = _load(args)
    kind, config = problem.kind, problem.config
    tol = args.tol if args.tol is not None else 1e-10
    try:
        if kind == "fermat":
            result, stated_tol = _solve_fermat(config, tol, args.max_iter)
            doc = documents.fermat_result_document(result, stated_tol)
        else:
            from . import chebyshev as cheby  # only a covering circle needs it

            result = cheby.solve_chebyshev_weighted(config, None)
            doc = documents.cheby_result_document(result)
    except (MaxIterationsExceeded, NotOrthogonal) as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 2
    if args.oracle:
        from . import oracle  # only the cross-check needs it

        # the grid oracle only bounds the optimum from above
        if kind == "fermat":
            value, (_, bound) = result.objective, oracle.oracle_ft(config)
            gap = 1e-6 * max(1.0, config.diameter * config.total_weight)
        else:
            value, (_, bound) = result.radius, oracle.oracle_cheby(config.points, config.weights)
            gap = 1e-5 * max(1.0, config.diameter * max(config.weights))
        if value > bound + gap:
            print(f"oracle disagrees: solver {value!r} vs oracle {bound!r}", file=sys.stderr)
            return 2
    # the document about to be printed is the one re-checked
    _, sol, cert = _recheck(problem, doc.payload, "result")
    if not cert.passed:
        print("certification failed: result withheld", file=sys.stderr)
        return 2
    sys.stdout.write(doc.to_json())
    return _write_svg(args.svg, problem, kind, sol, cert) if args.svg else 0


def cmd_certify(args) -> int:
    problem = _load(args)
    w = _parse_at(args.at)
    cert = _certify(problem, problem.kind, w, args.tol, "--at")
    sys.stdout.write(documents.certify_document(problem.kind, w, cert).to_json())
    print(
        f"residual={cert.residual!r} slack={cert.slack!r} "
        f"passed={cert.passed}",
        file=sys.stderr,
    )
    return 0 if cert.passed else 2


def cmd_plot(args) -> int:
    problem = documents.load_problem(args.input, args.kind)
    with open(args.result, "r", encoding="utf-8") as fh:
        doc = documents.ResultDocument.from_json(fh.read())
    kind, sol, cert = _recheck(problem, doc.payload, "result document")
    if not cert.passed:
        print("certification failed: refusing to plot", file=sys.stderr)
        return 2
    return _write_svg(args.output, problem, kind, sol, cert)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarloc",
        description="Certified planar location solvers: weighted distance-sum "
        "points and covering-circle centers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("input", help="problem file (JSON or CSV)")
    p_solve.add_argument("--kind", choices=documents.KINDS)
    p_solve.add_argument("--tol", type=float, default=None,
                         help="relative residual tolerance (median only)")
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--svg", default=None, help="also render an SVG here")
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against the grid oracle before emitting")

    p_cert = sub.add_parser("certify", help="certify a candidate location")
    p_cert.add_argument("input")
    p_cert.add_argument("--kind", choices=documents.KINDS)
    p_cert.add_argument("--at", required=True, help="candidate X,Y")
    p_cert.add_argument("--tol", type=float, default=None,
                        help="relative residual tolerance (median only)")

    p_plot = sub.add_parser("plot", help="render a solved result to SVG")
    p_plot.add_argument("input")
    p_plot.add_argument("result", help="result document from solve")
    p_plot.add_argument("output", help="SVG path to write")
    p_plot.add_argument("--kind", choices=documents.KINDS)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, the code of a refused
        # certificate here; a usage error is malformed input
        if e.code == 0:
            raise
        return 1
    handler = {"solve": cmd_solve, "certify": cmd_certify, "plot": cmd_plot}
    try:
        return handler[args.command](args)
    except PlanarLocError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
