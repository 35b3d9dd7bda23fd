"""Planar geometric primitives over complex coordinates.

Points of the plane are plain ``complex`` numbers throughout the package.
Angles are in radians, normalized to [0, 2*pi), positive orientation
counterclockwise.  Every predicate is banded by the shared tolerance model
in :mod:`planarloc.tolerances`, scaled by the bounding-box diagonal of the
points involved, so all operations are similarity-invariant in practice.
Hull membership is the exception: it compares the phases of the offsets
from the query point, banded in angle, and scales its zero band by the
largest offset.  Which of four points is contained in the hull of the
others is decided instead by the median's slack test, so the four-point
shape and the four-point median agree on every input.  The class of a
unimodular triple, one of the paper's results, is in ``theorems``.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
from itertools import combinations, compress, filterfalse, islice
from typing import Optional, Sequence

from ._record import FrozenRecord, set_field
from .errors import (
    CoincidentPoints,
    CollinearPoints,
    DuplicatePoints,
    EmptyInput,
    OverlappingSegments,
)
from .tolerances import EPS_CLASS, EPS_REL, diagonal, spread

TWO_PI = 2.0 * math.pi


def require_finite(*zs: complex) -> None:
    for z in filterfalse(cmath.isfinite, map(complex, zs)):
        raise ValueError(f"non-finite coordinate {z!r}")


def _moduli(
    offsets, error: str = "offset modulus overflows: the query point is too far out"
) -> list[float]:
    """The modulus of each offset; ValueError(error) when one overflows the double range."""
    try:
        mods = list(map(abs, offsets))
    except OverflowError:
        mods = [math.inf]
    if math.inf in mods:
        raise ValueError(error)
    return mods


def normalize_angle(theta: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:
        # fmod can land exactly on the upper endpoint after the correction
        theta -= TWO_PI
    return theta


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def directed_angle(u: complex, v: complex, w: complex) -> float:
    """Rotation in [0, 2*pi) carrying the ray u->v onto the ray u->w.

    The value theta satisfies (w - u) = c * (v - u) * exp(i*theta) for some
    real c > 0.  Raises CoincidentPoints when either ray is undefined.
    """
    require_finite(u, v, w)
    u, v, w = complex(u), complex(v), complex(w)
    scale = spread([u, v, w])
    band = EPS_CLASS * scale
    if abs(v - u) <= band or abs(w - u) <= band:
        raise CoincidentPoints("rays at a coincident point pair have no angle")
    return normalize_angle(cmath.phase((w - u) / (v - u)))


def ensure_distinct(points: Sequence[complex], scale: Optional[float] = None) -> float:
    """Raise DuplicatePoints when any two points sit closer than the band.

    Returns the points' spread, ``tolerances.spread`` bit for bit, taken
    from the same coordinate lists.  The band is ``EPS_CLASS * scale``
    (``scale`` defaults to that spread) and a pair coincides when
    ``abs(z_i - z_j) <= band``.  A screen runs first: each axis is sorted,
    and a point survives only when, on both axes, its coordinate sits next
    to a gap between consecutive coordinates no wider than the band.  A
    pair within the band is within it along each axis, so every gap
    between its two ends, the ones next to either end included, is within
    the band too; the computed gaps keep this, because rounding a
    difference is monotone.  The screen therefore drops no point of a
    coinciding pair, and well-separated points, or all the points of an
    axis-aligned line, leave it with nothing to compare; when no gap at all
    is within the band it ends after one sort.  An axis on which more than
    half the gaps are within the band (shared or gridded coordinates) is
    not used to narrow, so a lattice goes to the grid whole instead of
    paying for sets that keep every point.  The survivors are hashed into
    square cells at least ``2 * band`` wide, indexed from the lower-left
    corner of their bounding box, and each is compared only with the
    earlier ones in its 3x3 block of cells: a pair within the band never
    lies farther apart than neighbouring cells.  So the decision is that of
    testing every pair, in O(n log n).  The pair named is the smallest j
    that has an earlier point within the band, with the smallest such i.
    Raises ValueError when the band is not finite, which happens when the
    spread overflows.

    A numpy array of two or more points, which ``fermat.WeightedConfiguration``
    hands over by the rule stated at ``fermat.ARRAY_MIN``, takes the same
    steps as array passes (``_distinct_array``) and refuses every input as
    the Python passes do, a duplicate pair named alike.  Any other sequence
    takes the Python passes, so validation never imports numpy.
    """
    if hasattr(points, "dtype") and len(points) > 1:
        return _distinct_array(points, scale)
    pts = list(map(complex, points))
    if not all(map(cmath.isfinite, pts)):
        require_finite(*pts)
    xs = [z.real for z in pts]
    ys = [z.imag for z in pts]
    diameter = diagonal(xs, ys)
    if scale is None:
        scale = diameter
    band = EPS_CLASS * scale
    if not math.isfinite(band):
        raise ValueError(f"coincidence band overflows: scale {scale!r} is not finite")
    idx = _screen(xs, ys, band)
    if len(idx) > 1:
        _refuse_pair(pts if len(idx) == len(pts) else list(map(pts.__getitem__, idx)), idx, band)
    return diameter


def _refuse_pair(pts: Sequence[complex], idx: Sequence[int], band: float) -> None:
    """Raise DuplicatePoints for the pair ``_grid_pair`` names, as indices ``idx`` of ``pts``."""
    pair = _grid_pair(pts, band)
    if pair is not None:
        raise DuplicatePoints(f"points {idx[pair[0]]} and {idx[pair[1]]} coincide within tolerance")


def _screen(xs: list[float], ys: list[float], band: float) -> Sequence[int]:
    """Indices, ascending, of the points next to a gap within the band on both axes.

    An axis on which most points sit next to such a gap (shared or gridded
    coordinates) narrows nothing worth the set work and is left out; when
    both are, every index is returned.
    """
    near_x = _near_on_axis(xs, band)
    if near_x is not None and not near_x:
        return ()
    near_y = _near_on_axis(ys, band)
    if near_x is None:
        return range(len(xs)) if near_y is None else sorted(near_y)
    return sorted(near_x if near_y is None else near_x & near_y)


def _near_on_axis(coords: list[float], band: float) -> Optional[set[int]]:
    """Indices whose coordinate is next to a gap of at most ``band`` in sorted ``coords``.

    Empty at once when no gap is that small, None when more than half are.
    Equal coordinates are next to each other, with gap zero, so all or
    none of them are next to such a gap.
    """
    vals = sorted(coords)
    gaps = list(map(operator.sub, vals[1:], vals))
    if not gaps or min(gaps) > band:
        return set()
    close = list(map(functools.partial(operator.ge, band), gaps))
    if 2 * close.count(True) > len(coords):
        return None
    ends = set(compress(vals, close))
    ends.update(compress(islice(vals, 1, None), close))
    return set(compress(range(len(coords)), map(ends.__contains__, coords)))


def _grid_pair(pts: Sequence[complex], band: float) -> Optional[tuple[int, int]]:
    # Names the smallest j with an earlier point within the band, then the
    # smallest such i.  Halved coordinates: no difference of two of them
    # overflows, and a cell 2*band wide in the plane is band wide here.  A
    # cell is never narrower than the extent times 2**-40, so no index
    # exceeds 2**40 however small the band.  It comes out zero only when all
    # points are one point, and any width then puts them in one cell.
    xs = [0.5 * z.real for z in pts]
    ys = [0.5 * z.imag for z in pts]
    x0, y0 = min(xs), min(ys)
    extent = max(max(xs) - x0, max(ys) - y0)
    cell = max(band, extent * 2.0**-40) or 1.0
    stride = int(extent / cell) + 3
    block = [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    keys = [int((x - x0) / cell) * stride + int((y - y0) / cell) for x, y in zip(xs, ys)]
    cells: dict[int, list[int]] = {}
    for j, key in enumerate(keys):
        first = j
        for off in block:
            if key + off in cells:
                for i in cells[key + off]:
                    d = pts[i] - pts[j]
                    if abs(d.real) <= band and abs(d.imag) <= band and abs(d) <= band:
                        first = min(first, i)
                        break  # a cell's indices ascend
        if first < j:
            return first, j
        cells.setdefault(key, []).append(j)
    return None


def _distinct_array(points, scale: Optional[float]) -> float:
    """``ensure_distinct`` on a numpy array of at least two points.

    The checks, the spread, the band and the screen are those of the
    Python passes, taken on arrays: the spread from the extremes of each
    axis, the screen from each axis sorted by ``np.sort``.  Both axes always
    narrow, since a mask costs the same however many points it keeps.  The
    survivors go to ``_array_pair``, which decides in place of the dict
    grid; a pair found there is named by the grid on the same survivors.
    """
    import numpy as np

    pts = np.asarray(points, dtype=complex)
    xs, ys = pts.real, pts.imag
    x_sorted = np.sort(xs)
    # the extremes that tolerances.diagonal takes, exactly; a NaN sorts
    # last and comes out of min and max, so they show every non-finite value
    ends = (float(x_sorted[0]), float(x_sorted[-1]), float(ys.min()), float(ys.max()))
    if not all(map(math.isfinite, ends)):
        require_finite(*pts.tolist())
    diameter = math.hypot(ends[1] - ends[0], ends[3] - ends[2])
    if scale is None:
        scale = diameter
    band = EPS_CLASS * scale
    if not math.isfinite(band):
        raise ValueError(f"coincidence band overflows: scale {scale!r} is not finite")
    with np.errstate(over="ignore"):  # a gap that overflows is inf, wider than any band
        near_x = _near_on_axis_array(xs, x_sorted, band)
        near_y = None if near_x is None else _near_on_axis_array(ys, np.sort(ys), band)
    if near_y is not None:
        idx = np.flatnonzero(near_x & near_y)
        if len(idx) > 1 and _array_pair(pts[idx], band):
            _refuse_pair(pts[idx].tolist(), idx.tolist(), band)
    return diameter


def _near_on_axis_array(coords, vals, band: float):
    """Mask of the ``coords`` next to a gap of at most ``band`` in ``vals``, them sorted.

    None when no gap is that small.  ``_near_on_axis`` as array passes: a
    coordinate is next to such a gap when its value ends one, so equal
    coordinates are all next to one or none are.
    """
    import numpy as np

    close = vals[1:] - vals[:-1] <= band
    if not close.any():
        return None
    ends = np.zeros(len(vals), dtype=bool)
    ends[:-1] = close
    ends[1:] |= close
    ends = vals[ends]
    at = np.minimum(np.searchsorted(ends, coords), len(ends) - 1)
    return ends[at] == coords


def _array_pair(pts, band: float) -> bool:
    """Whether two points of the array ``pts`` lie within the band.

    ``_grid_pair``'s decision as array passes.  The cells are the same,
    except that one is never narrower than the extent times 2**-21, so a
    key, column times stride plus row, stays below 2**43 and fits int64.  With the points
    sorted by key, each one meets the later points of its own cell and
    every point of the 4 neighbouring cells that come after its cell (up,
    and the three of the next column), so each pair of neighbouring cells
    is searched once.  The search is one array pass per rank within a cell,
    over the points that still have a partner of that rank.
    """
    import numpy as np

    hx, hy = 0.5 * pts.real, 0.5 * pts.imag
    x0, y0 = hx.min(), hy.min()
    extent = max(hx.max() - x0, hy.max() - y0)
    cell = max(band, extent * 2.0**-21) or 1.0
    stride = int(extent / cell) + 3
    keys = ((hx - x0) / cell).astype(np.int64) * stride + ((hy - y0) / cell).astype(np.int64)
    order = np.argsort(keys)
    keys, zs = keys[order], pts[order]
    for off in (0, 1, stride - 1, stride, stride + 1):
        if off:
            lo = np.searchsorted(keys, keys + off)
            hi = np.searchsorted(keys, keys + off, "right")
        else:
            lo, hi = np.arange(1, len(keys) + 1), np.searchsorted(keys, keys, "right")
        live = np.flatnonzero(lo < hi)
        mate = lo[live]
        while live.size:
            with np.errstate(over="ignore"):
                close = abs(zs[live] - zs[mate]) <= band
            if close.any():
                return True
            mate += 1
            keep = mate < hi[live]
            live, mate = live[keep], mate[keep]
    return False


# ---------------------------------------------------------------------------
# hull membership


def convex_hull_membership(
    p: complex, pts: Sequence[complex]
) -> Optional[tuple[float, ...]]:
    """Convex coefficients expressing p over pts, or None when p is outside.

    Decided by the angular-gap rule on v_i = pts_i - p: p is in the hull
    when some v_i lies within the band of zero (EPS_CLASS * max|v_i|), or
    when no gap between consecutive sorted phases exceeds pi + EPS_CLASS.
    At most three t_i are nonzero: on the v_i nearest zero, on the two ends
    of a widest gap of pi (within the band), or on the v_b opening the
    widest gap and the two phases around its antipode.  t_i >= 0,
    sum(t) = 1 and sum(t_i * v_i) lies within the band.
    """
    zs = list(map(complex, pts))
    if not zs:
        raise EmptyInput("membership in the hull of no points")
    p = complex(p)
    require_finite(p, *zs)
    # a quarter of each offset, so that no difference or modulus overflows
    n, vs = len(zs), [0.25 * z - 0.25 * p for z in zs]
    mods = list(map(abs, vs))
    t = [0.0] * n
    near = min(range(n), key=mods.__getitem__)
    if mods[near] <= EPS_CLASS * max(mods):
        t[near] = 1.0
        return tuple(t)
    phases = list(map(cmath.phase, vs))
    order = sorted(range(n), key=phases.__getitem__)
    ph = list(map(phases.__getitem__, order))
    gaps = list(map(operator.sub, islice(ph, 1, None), ph)) + [ph[0] + TWO_PI - ph[-1]]
    widest = max(gaps)
    if widest > math.pi + EPS_CLASS:
        return None
    k = gaps.index(widest)
    idx = (order[k], order[(k + 1) % n])
    if widest < math.pi - EPS_CLASS:
        # the gap's ends are not antipodal: add the two phases around the
        # antipode of its start, which then lies strictly between them
        anti = ph[k] + math.pi if ph[k] <= 0.0 else ph[k] - math.pi
        j = bisect.bisect_right(ph, anti) - 1  # -1 wraps to the last phase
        idx = (order[k], order[j], order[(j + 1) % n])
    # over their largest modulus, no product below overflows or underflows
    top = max(map(mods.__getitem__, idx))
    u = [vs[i] / top for i in idx]
    if len(idx) == 2:
        c = [abs(u[1]), abs(u[0])]
    else:  # counterclockwise, each weight the cross product of the other two
        c = [max(0.0, (u[m - 2].conjugate() * u[m - 1]).imag) for m in range(3)]
    for i, ci in zip(idx, c):
        t[i] = ci / sum(c)
    return tuple(t)


# ---------------------------------------------------------------------------
# circles and Apollonius loci


class Circle(FrozenRecord):
    _fields = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        set_field(self, "center", center)
        set_field(self, "radius", radius)


class Line(FrozenRecord):
    """Line through ``point`` along the unit ``direction``."""

    _fields = ("point", "direction")

    def __init__(self, point: complex, direction: complex):
        set_field(self, "point", point)
        set_field(self, "direction", direction)


def circumcenter3(a: complex, b: complex, c: complex) -> complex:
    """Center of the circle through three non-collinear points."""
    a, b, c = complex(a), complex(b), complex(c)
    require_finite(a, b, c)
    scale = spread([a, b, c])
    det = 2.0 * _cross(a, b, c)
    if abs(det) <= EPS_CLASS * scale * scale:
        raise CollinearPoints("no circumcircle through collinear points")
    ab = abs(b) ** 2 - abs(a) ** 2
    ac = abs(c) ** 2 - abs(a) ** 2
    ux = ((c.imag - a.imag) * ab - (b.imag - a.imag) * ac) / det
    uy = ((b.real - a.real) * ac - (c.real - a.real) * ab) / det
    return complex(ux, uy)


def apollonius_locus(zi: complex, zj: complex, wi: float, wj: float):
    """Locus of points w with wi*|zi - w| = wj*|zj - w|.

    A perpendicular bisector Line for equal weights, otherwise a Circle.
    """
    zi, zj = complex(zi), complex(zj)
    require_finite(zi, zj)
    if not (wi > 0.0 and wj > 0.0):
        raise ValueError("weights must be positive")
    if abs(zi - zj) <= EPS_CLASS * spread([zi, zj]) or zi == zj:
        raise CoincidentPoints("locus undefined for a coincident pair")
    if abs(wi - wj) <= EPS_CLASS * (wi + wj):
        mid = 0.5 * (zi + zj)
        direction = 1j * (zj - zi) / abs(zj - zi)
        return Line(mid, direction)
    d = wi * wi - wj * wj
    center = (wi * wi * zi - wj * wj * zj) / d
    rad2 = abs(center) ** 2 - (wi * wi * abs(zi) ** 2 - wj * wj * abs(zj) ** 2) / d
    return Circle(center, math.sqrt(max(rad2, 0.0)))


# ---------------------------------------------------------------------------
# segments


def segment_intersection(
    a: complex, b: complex, c: complex, d: complex
) -> Optional[complex]:
    """Single intersection point of segments [a, b] and [c, d].

    Returns None for disjoint segments and raises OverlappingSegments when
    the segments share more than one point.  Endpoint contact counts as an
    intersection.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    require_finite(a, b, c, d)
    scale = spread([a, b, c, d])
    if scale == 0.0:
        return a
    tol = EPS_CLASS * scale
    r = b - a
    s = d - c
    denom = r.real * s.imag - r.imag * s.real
    if abs(denom) <= EPS_CLASS * scale * scale:
        # parallel; collinear only when c is on the carrier of [a, b]
        if abs(r) <= tol and abs(s) <= tol:
            return a if abs(c - a) <= tol else None
        carrier = r if abs(r) > tol else s
        if abs(_cross(a, a + carrier, c)) / abs(carrier) > tol:
            return None
        u = carrier / abs(carrier)
        ta = sorted((((b - a) / u).real, 0.0))
        tc = sorted((((c - a) / u).real, ((d - a) / u).real))
        lo = max(ta[0], tc[0])
        hi = min(ta[1], tc[1])
        if hi < lo - tol:
            return None
        if hi - lo <= tol:
            m = 0.5 * (lo + hi)
            return a + m * u
        raise OverlappingSegments("segments share a subsegment")
    q = c - a
    t = (q.real * s.imag - q.imag * s.real) / denom
    u = (q.real * r.imag - q.imag * r.real) / denom
    bt = tol / max(abs(r), tol)
    bu = tol / max(abs(s), tol)
    if -bt <= t <= 1.0 + bt and -bu <= u <= 1.0 + bu:
        t = min(1.0, max(0.0, t))
        return a + t * r
    return None


# ---------------------------------------------------------------------------
# four-point shape


class ConvexOrder(FrozenRecord):
    """Convex position; ``order`` is the hull cycle counterclockwise."""

    _fields = ("order", "diagonals")

    def __init__(
        self,
        order: tuple[int, int, int, int],
        diagonals: tuple[tuple[int, int], tuple[int, int]],
    ):
        set_field(self, "order", order)
        set_field(self, "diagonals", diagonals)


class NonConvex(FrozenRecord):
    """One point inside (or on the boundary of) the hull of the others."""

    _fields = ("contained",)

    def __init__(self, contained: int):
        set_field(self, "contained", contained)


def quadrilateral_shape(z1: complex, z2: complex, z3: complex, z4: complex):
    """Classify four distinct points as ConvexOrder or NonConvex.

    A point is contained when it passes the unit-weight slack test of
    ``_vertex_margins``, the rule by which ``fermat.solve_ft4`` returns it
    as the median.  A collinear triple counts as NonConvex with its middle
    point contained, so the convex branch always has a proper quadrilateral
    with crossing diagonals.  Of four collinear points, the middle one
    nearer the lowest point in (x, y) order is taken.
    """
    zs = [complex(z1), complex(z2), complex(z3), complex(z4)]
    ensure_distinct(zs)
    return _shape4(zs)


def _shape4(zs: Sequence[complex]):
    """``quadrilateral_shape`` of four points already known to be distinct."""
    order = _convex_order(zs)
    margins = _vertex_margins(zs, (1.0, 1.0, 1.0, 1.0))
    inside = [k for k in range(4) if margins[k] <= 4.0 * EPS_REL]
    if inside:
        return NonConvex(contained=min(inside, key=lambda k: abs(zs[k] - zs[order[0]])))
    return ConvexOrder(order=order, diagonals=(order[0::2], order[1::2]))


def _vertex_margins(zs: Sequence[complex], ws: Sequence[float]) -> list[float]:
    """Slack margin of every point as the candidate weighted median, in O(n^2).

    z_i is the median exactly when the others' pull
    |sum over j != i of a_j * conj(z_j - z_i)/|z_j - z_i|| is at most a_i,
    the free coefficient spent at z_i; the margin is the pull minus a_i.
    Each pair's unit vector is computed once, and the conjugates are left
    out: they change no modulus.
    """
    pulls = [0j] * len(zs)
    for i, j in combinations(range(len(zs)), 2):
        d = zs[j] - zs[i]
        u = d / abs(d)
        pulls[i] += ws[j] * u
        pulls[j] -= ws[i] * u
    return list(map(operator.sub, map(abs, pulls), ws))


def _convex_order(zs: Sequence[complex]) -> tuple[int, ...]:
    """Indices by phase about the centroid, from the lowest point in (x, y) order.

    Counterclockwise, and for points in convex position their hull cycle.
    Offsets are taken from the first point, so no sum overflows.
    """
    rel = [z - zs[0] for z in zs]
    c = sum(rel) / len(rel)
    order = sorted(range(len(zs)), key=lambda i: cmath.phase(rel[i] - c))
    k = order.index(min(order, key=lambda i: (zs[i].real, zs[i].imag)))
    return tuple(order[k:] + order[:k])
