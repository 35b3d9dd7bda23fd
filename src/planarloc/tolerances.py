"""Tolerance model used across the package.

Two bands, both relative to the length scale of the instance at hand:

* ``EPS_REL`` guards numerical comparisons (residuals, radii, objectives).
* ``EPS_CLASS`` guards classification decisions such as collinearity,
  boundary membership and duplicate detection.  It is deliberately coarser
  so that a decision never flips because of roundoff in the data itself.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

EPS_REL = 1e-9
EPS_CLASS = 1e-7


def spread(points: Iterable[complex]) -> float:
    """Bounding-box diagonal of a point collection.

    Used as the length scale multiplying the relative bands.  Returns 0.0
    for an empty collection or a single point.
    """
    xs = []
    ys = []
    for z in points:
        z = complex(z)
        xs.append(z.real)
        ys.append(z.imag)
    return diagonal(xs, ys)


def diagonal(xs: Sequence[float], ys: Sequence[float]) -> float:
    """``spread`` of the points with coordinates ``xs`` and ``ys``."""
    if not xs:
        return 0.0
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))
