"""Brute-force grid minimizers used to cross-check the solvers.

Nothing here shares code with the analytic solvers.  Both oracles evaluate
the raw objective on a square grid over the inflated bounding box and then
repeatedly halve the window around the incumbent.  Ties on a grid go to the
smallest linear index, and the incumbent only moves on a strict improvement,
so runs are deterministic.  The value found is attained at a grid point, so
it bounds the true minimum from above; compare a solver against it one way.
numpy is imported inside the functions, so importing this module does not
load numpy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._record import FrozenRecord, set_field
from .errors import EmptyInput


class OracleSettings(FrozenRecord):
    _fields = ("resolution", "rounds")

    def __init__(self, resolution: int = 64, rounds: int = 24):
        if resolution < 8:
            raise ValueError("resolution must be at least 8")
        if rounds < 1:
            raise ValueError("rounds must be at least 1")
        set_field(self, "resolution", resolution)
        set_field(self, "rounds", rounds)


def _refine(
    obj,
    points: Sequence[complex],
    settings: OracleSettings,
    trace: Optional[list] = None,
):
    import numpy as np

    pts = np.asarray(points, dtype=complex)
    res = settings.resolution
    xlo, xhi = pts.real.min(), pts.real.max()
    ylo, yhi = pts.imag.min(), pts.imag.max()
    cx, cy = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    # inflate the bounding box by half its extent on each side
    half = 0.75 * max(xhi - xlo, yhi - ylo)
    best_w = complex(cx, cy)
    best_val = float(obj(np.array([best_w]))[0])
    for _ in range(settings.rounds):
        xs = np.linspace(cx - half, cx + half, res)
        ys = np.linspace(cy - half, cy + half, res)
        vals = obj((xs[None, :] + 1j * ys[:, None]).ravel())
        k = int(np.argmin(vals))
        val = float(vals[k])
        if val < best_val:
            best_val = val
            best_w = complex(xs[k % res], ys[k // res])
        cx, cy = best_w.real, best_w.imag
        if trace is not None:
            cell = 2.0 * half / (res - 1) if half > 0.0 else 0.0
            trace.append((best_w, best_val, cell))
        half *= 0.5
    return best_w, best_val


def oracle_ft(config, settings: Optional[OracleSettings] = None, trace=None):
    """Grid minimizer of the weighted sum of distances.

    Accepts anything with ``points`` and ``weights`` attributes.  Returns
    (location, objective).
    """
    import numpy as np

    if settings is None:
        settings = OracleSettings()
    pts = np.asarray(config.points, dtype=complex)
    wts = np.asarray(config.weights, dtype=float)
    if pts.size == 0:
        raise EmptyInput("no points")

    def obj(ws: np.ndarray) -> np.ndarray:
        return np.abs(ws[:, None] - pts[None, :]) @ wts

    return _refine(obj, pts, settings, trace)


def oracle_cheby(
    points: Sequence[complex],
    weights: Optional[Sequence[float]] = None,
    settings: Optional[OracleSettings] = None,
    trace=None,
):
    """Grid minimizer of the (weighted) farthest distance.

    Returns (location, radius).
    """
    import numpy as np

    if settings is None:
        settings = OracleSettings()
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise EmptyInput("no points")
    if weights is None:
        wts = np.ones(len(pts))
    else:
        wts = np.asarray(weights, dtype=float)

    def obj(ws: np.ndarray) -> np.ndarray:
        return (np.abs(ws[:, None] - pts[None, :]) * wts[None, :]).max(axis=1)

    return _refine(obj, pts, settings, trace)
