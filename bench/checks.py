"""Answer checks written apart from the program.

Each check recomputes what it needs from the raw points and weights with
numpy and returns None for an acceptable answer or a one-line reason.
Nothing here imports planarloc, so a fault in the program cannot hide a
fault in its own answer.

* Median: the objective is convex, so x is a global minimizer exactly when
  |sum over z_i != x of w_i (z_i - x)/|z_i - x|| <= sum over z_i = x of w_i.
  The check allows MEDIAN_TOL of the total weight on the left, and the
  reported objective must match the recomputed one.  A segment of
  solutions is checked at both ends and at its midpoint.
* Covering circle: every point lies within radius * (1 + COVER_TOL), the
  reported radius equals the recomputed largest weighted distance, and
  the unit directions toward the farthest points leave no open half-plane
  empty, that is, their largest angular gap is at most pi + GAP_TOL.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

MEDIAN_TOL = 1e-8          # share of the total weight
OBJECTIVE_RTOL = 1e-9
COINCIDE = 1e-10           # share of the spread within which z_i = x
COVER_TOL = 1e-9
RADIUS_RTOL = 1e-9
FARTHEST_BAND = 1e-7       # share of the radius that counts as farthest
GAP_TOL = 1e-6             # radians


def _arrays(points, weights):
    z = np.asarray(points, dtype=complex)
    w = np.ones(len(z)) if weights is None else np.asarray(weights, dtype=float)
    return z, w


def _spread(z) -> float:
    return float(math.hypot(np.ptp(z.real), np.ptp(z.imag)))


def median_point(points, weights, x: complex, objective: float) -> Optional[str]:
    """None when x minimizes the weighted distance sum, else why not."""
    z, w = _arrays(points, weights)
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        return f"non-finite location {x!r}"
    diff = z - x
    dist = np.abs(diff)
    at = dist <= COINCIDE * _spread(z)
    pull = complex(np.sum(w[~at] * diff[~at] / dist[~at]))
    total = float(w.sum())
    allowed = float(w[at].sum()) + MEDIAN_TOL * total
    if abs(pull) > allowed:
        return (f"first-order condition fails at {x!r}: "
                f"|pull| {abs(pull):.6e} > {allowed:.6e}")
    value = float(dist @ w)
    if abs(value - objective) > OBJECTIVE_RTOL * max(value, 1e-300):
        return f"objective {objective!r} != recomputed {value!r}"
    return None


def median(points, weights, solution, objective: float) -> Optional[str]:
    """Check a point answer ``x`` or a segment answer ``(start, end)``."""
    if isinstance(solution, tuple):
        start, end = complex(solution[0]), complex(solution[1])
        for where, x in (("start", start), ("midpoint", 0.5 * (start + end)), ("end", end)):
            why = median_point(points, weights, x, objective)
            if why is not None:
                return f"segment {where}: {why}"
        return None
    return median_point(points, weights, solution, objective)


def circle(points, weights, center: complex, radius: float) -> Optional[str]:
    """None when the circle is the least weighted covering circle."""
    z, w = _arrays(points, weights)
    c = complex(center)
    if not (math.isfinite(c.real) and math.isfinite(c.imag) and math.isfinite(radius)):
        return f"non-finite answer {c!r}, {radius!r}"
    diff = z - c
    reach = w * np.abs(diff)
    top = float(reach.max())
    if top > radius * (1.0 + COVER_TOL):
        return f"point {int(reach.argmax())} is outside: {top!r} > radius {radius!r}"
    if abs(top - radius) > RADIUS_RTOL * max(top, 1e-300):
        return f"radius {radius!r} != largest weighted distance {top!r}"
    if len(z) == 1:
        return None
    far = reach >= (1.0 - FARTHEST_BAND) * top
    angles = np.sort(np.angle(diff[far]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2.0 * math.pi]))
    gap = float(gaps.max())
    if gap > math.pi + GAP_TOL:
        return f"farthest directions leave a gap of {gap:.9f} rad > pi"
    return None


def cli_document(op, doc: dict) -> Optional[str]:
    """Check a parsed ``planarloc solve`` result document against its problem."""
    cert = doc.get("certificate")
    if not isinstance(cert, dict) or cert.get("passed") is not True:
        return "certificate.passed is not true"
    sol = doc["solution"]
    if op.kind == "fermat":
        if sol["type"] == "segment":
            answer = (complex(*sol["start"]), complex(*sol["end"]))
        else:
            answer = complex(*sol["location"])
        return median(op.points, op.weights, answer, doc["objective"])
    return circle(op.points, op.weights, complex(*sol["location"]), doc["radius"])
