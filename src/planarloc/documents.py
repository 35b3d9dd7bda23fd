"""Problem and result documents: parsing, validation, serialization.

Problems arrive as JSON ({"kind": ..., "points": [[x, y], ...],
"weights": [...]}) or as CSV rows "x,y[,weight]".  The parsers report
malformed fields as ProblemFormatError; the point set and its weights are
validated once, by the ``fermat.WeightedConfiguration`` that every
ProblemFile carries as ``config`` and that the solvers and certificates
then share.  Its refusal of the weights, or of an empty point list, names
the field (a bad weight by its index) and is reported as it is stated.
A median of ``fermat.IMPORT_MIN`` or more points loads numpy first, to
validate on arrays (the rule stated at ``fermat.ARRAY_MIN``).
This is the one module that knows the result format: results leave as
JSON through ``json.dumps``, whose floats are the shortest text that reads
back as the same double; parse(serialize(doc)) equals doc.  A result document holds only what a
verifier cannot recompute from the problem and the location, and each
fact once: the verdict, the support and its weights live in the
certificate alone.  ``stated_check`` and ``solution_points`` read one back.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from typing import Optional

from . import __version__
from ._record import FrozenRecord, Record, set_field
from .errors import EmptyInput, LengthMismatch, ProblemFormatError
from .fermat import IMPORT_MIN, FtPoint, WeightedConfiguration
from .tolerances import EPS_CLASS, EPS_REL

KINDS = ("fermat", "chebyshev")
# format 1 carried the functional d; format 2 repeated certificate fields
# at the top level
FORMAT = 3


class ProblemFile(FrozenRecord):
    """A parsed problem: its kind and its validated configuration.

    The parser builds ``config`` once, with unit weights when the file
    gives none; building it raises DuplicatePoints for coinciding points
    and ProblemFormatError for points whose spread overflows.
    """

    _fields = ("kind", "config")

    def __init__(self, kind: Optional[str], config: WeightedConfiguration):
        set_field(self, "kind", kind)
        set_field(self, "config", config)


def _float_or_inf(a) -> float:
    # an integer beyond the doubles is not finite, whatever its sign
    try:
        return float(a)
    except OverflowError:
        return math.inf


def _number_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        raise ProblemFormatError(f"{where}: expected a [x, y] pair of numbers")
    return complex(_float_or_inf(value[0]), _float_or_inf(value[1]))


def _pair(value, where: str) -> complex:
    z = _number_pair(value, where)
    if not cmath.isfinite(z):
        raise ProblemFormatError(f"{where}: coordinates must be finite")
    return z


def _points(items: list) -> list[complex]:
    # C-level passes over the whole list: two-entry lists of JSON numbers
    # (a bool's type is not int), finite; the per-item loop runs only to
    # name the first bad entry
    if {list} >= set(map(type, items)) and {2} >= set(map(len, items)):
        xs = list(map(operator.itemgetter(0), items))
        ys = list(map(operator.itemgetter(1), items))
        if {int, float} >= set(map(type, xs)) | set(map(type, ys)):
            try:
                points = list(map(complex, xs, ys))
                if all(map(cmath.isfinite, points)):
                    return points
            except OverflowError:  # an integer beyond the doubles
                pass
    return [_pair(v, f"points[{i}]") for i, v in enumerate(items)]


def _validate(kind, points, weights) -> ProblemFile:
    if kind is not None and kind not in KINDS:
        raise ProblemFormatError(f"kind: expected one of {KINDS}, got {kind!r}")
    if kind == "fermat" and len(points) >= IMPORT_MIN:
        import numpy  # noqa: F401  (the configuration then validates on arrays)
    try:
        return ProblemFile(kind, WeightedConfiguration.of(points, weights))
    except (EmptyInput, LengthMismatch) as e:
        raise ProblemFormatError(str(e)) from e
    except ValueError as e:
        # the configuration names a bad weight itself; any other refusal is the points'
        named = str(e).startswith("weights")
        raise ProblemFormatError(str(e) if named else f"points: {e}") from e


def _load_json_problem(text: str, kind_flag: Optional[str]) -> ProblemFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ProblemFormatError("top level: expected an object")
    unknown = set(raw) - {"kind", "points", "weights"}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind is not None and not isinstance(kind, str):
        raise ProblemFormatError("kind: expected a string")
    if "points" not in raw or not isinstance(raw["points"], list):
        raise ProblemFormatError("points: expected a list of [x, y] pairs")
    points = _points(raw["points"])
    weights = None
    if raw.get("weights") is not None:
        if not isinstance(raw["weights"], list):
            raise ProblemFormatError("weights: expected a list of numbers")
        if not {int, float} >= set(map(type, raw["weights"])):
            for i, a in enumerate(raw["weights"]):
                if not isinstance(a, (int, float)) or isinstance(a, bool):
                    raise ProblemFormatError(f"weights[{i}]: expected a number")
        try:
            weights = list(map(float, raw["weights"]))
        except OverflowError:
            weights = list(map(_float_or_inf, raw["weights"]))
    return _validate(kind_flag or kind, points, weights)


def _load_csv_problem(text: str, kind_flag: Optional[str]) -> ProblemFile:
    import csv  # only a CSV problem needs it

    points: list[complex] = []
    weights: list[float] = []
    widths: set[int] = set()
    rows = csv.reader(text.splitlines())
    for lineno, row in enumerate(rows, start=1):
        row = [c.strip() for c in row]
        while row and row[-1] == "":
            row.pop()
        if not row or row[0].startswith("#"):
            continue
        if "" in row:
            raise ProblemFormatError(f"line {lineno}: empty field")
        if len(row) not in (2, 3):
            raise ProblemFormatError(f"line {lineno}: expected 2 or 3 fields")
        try:
            vals = [float(c) for c in row]
        except ValueError as e:
            raise ProblemFormatError(f"line {lineno}: {e}") from e
        if not all(math.isfinite(v) for v in vals):
            raise ProblemFormatError(f"line {lineno}: values must be finite")
        widths.add(len(row))
        points.append(complex(vals[0], vals[1]))
        if len(row) == 3:
            weights.append(vals[2])
    if len(widths) > 1:
        raise ProblemFormatError("weight column must be present on every row or none")
    return _validate(kind_flag, points, weights if weights else None)


def load_problem(path: str, kind_flag: Optional[str] = None) -> ProblemFile:
    """Read a problem file, JSON or CSV, with field-level diagnostics.

    A kind given on the command line wins over one stored in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return _load_json_problem(text, kind_flag)
    return _load_csv_problem(text, kind_flag)


# ---------------------------------------------------------------------------
# result documents


class ResultDocument(Record):
    """JSON-shaped result payload with lossless round-tripping."""

    _fields = ("payload",)

    def __init__(self, payload: dict):
        self.payload = payload

    def to_json(self) -> str:
        # strict JSON: a non-finite float raises here instead of leaving as
        # a token such as Infinity that JSON parsers reject
        return json.dumps(self.payload, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ProblemFormatError(
                f"line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        if not isinstance(raw, dict):
            raise ProblemFormatError("result document: expected an object")
        return cls(raw)


def _finite_value(name: str, value: float) -> float:
    # an objective or radius scales with the weights, and JSON has no
    # spelling for one beyond the doubles
    if not math.isfinite(value):
        raise ProblemFormatError(
            f"result document: {name} is beyond the doubles; scale the weights or the points down"
        )
    return float(value)


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def certificate_payload(cert) -> dict:
    """The part of a certificate a verifier cannot recompute, O(|support|).

    The functional ``d`` is left out: a verifier rebuilds it from the
    problem and the location (see the README).  ``t`` is given over
    ``support`` only.  A refused max-norm certificate has no functional,
    and its infinite residual is written as null.
    """
    return {
        "space": cert.space,
        "passed": bool(cert.passed),
        "residual": None if cert.residual == math.inf else float(cert.residual),
        "forced": _c(cert.forced),
        "slack": float(cert.slack),
        "tol": float(cert.tol),
        "t": None if cert.t is None else [float(cert.t[i]) for i in cert.support],
        "support": None if cert.support is None else [int(i) for i in cert.support],
        "gamma": None if cert.gamma is None else _c(cert.gamma),
    }


def _header(kind: str) -> dict:
    return {"solver": "planarloc", "version": __version__, "format": FORMAT, "kind": kind}


def fermat_result_document(result, tol_used: float) -> ResultDocument:
    if isinstance(result.solution, FtPoint):
        solution = {"type": "point", "location": _c(result.solution.location)}
    else:
        solution = {
            "type": "segment",
            "start": _c(result.solution.start),
            "end": _c(result.solution.end),
        }
    payload = {
        **_header("fermat"),
        "case": result.case.value,
        "solution": solution,
        "objective": _finite_value("objective", result.objective),
        "vertex": None if result.vertex is None else int(result.vertex),
        "vertex_angle": None if result.vertex_angle is None else float(result.vertex_angle),
        "angles": None if result.angles is None else [float(a) for a in result.angles],
        "certificate": certificate_payload(result.certificate),
        "tolerances": {"eps_rel": EPS_REL, "eps_class": EPS_CLASS, "tol": float(tol_used)},
    }
    return ResultDocument(payload)


def cheby_result_document(result) -> ResultDocument:
    payload = {
        **_header("chebyshev"),
        "case": None,
        "solution": {"type": "point", "location": _c(result.center)},
        "radius": _finite_value("radius", result.radius),
        "certificate": certificate_payload(result.certificate),
        "tolerances": {"eps_rel": EPS_REL, "eps_class": EPS_CLASS},
    }
    return ResultDocument(payload)


def certify_document(kind: str, w: complex, cert) -> ResultDocument:
    payload = {
        **_header(kind),
        "candidate": _c(w),
        "certificate": certificate_payload(cert),
        "tolerances": {"eps_rel": EPS_REL, "eps_class": EPS_CLASS},
    }
    return ResultDocument(payload)


def stated_check(payload: dict) -> tuple[str, Optional[float]]:
    """The kind a result document states, and a median's tolerance.

    The tolerance is the relative one the certificate passed at; a
    covering circle's takes none, so it is None there.
    """
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ProblemFormatError("result document: missing kind")
    if kind == "chebyshev":
        return kind, None
    tols = payload.get("tolerances")
    tol = tols.get("tol") if isinstance(tols, dict) else None
    if type(tol) not in (int, float) or not 0.0 < tol < math.inf:
        raise ProblemFormatError(
            f"result document: tolerances.tol must be positive and finite, got {tol!r}"
        )
    return kind, tol


def solution_points(payload: dict) -> list[complex]:
    """The location a result document states, or a median's segment ends.

    A number that is not finite is left for the certificate to refuse.
    """
    sol = payload.get("solution")
    if not isinstance(sol, dict):
        raise ProblemFormatError("result document: solution: missing or malformed")
    if sol.get("type") == "point":
        fields = ("location",)
    elif sol.get("type") == "segment" and payload.get("kind") == "fermat":
        fields = ("start", "end")
    else:
        raise ProblemFormatError("result document: solution: unknown type")
    return [_number_pair(sol.get(f), f"result document: solution.{f}") for f in fields]
