"""Weighted Fermat-Torricelli points in the plane, with certificates.

A location w minimizes the weighted distance sum exactly when the vector of
weighted displacements (alpha_i * (z_i - w))_i is orthogonal, in the sum
norm, to the weight vector.  Concretely the weighted unit directions from w
to the configuration points must sum to something no larger than the slack
contributed by points coinciding with w.  Every solver in this module
returns a location only together with that test's passing certificate;
a location that fails it raises NotOrthogonal (MaxIterationsExceeded for
the iterative solver) instead.

Closed forms cover three points and four points with unit weights.  One
slack test, that condition at each configuration point, decides every
vertex case of both: a passing point is the solution (two passing points
bound a segment of solutions); otherwise three points meet at the
interior point given by its closed-form barycentric coordinates, and four
at the crossing of the diagonals.  The general solver takes damped Newton
steps, O(n) each, with the Hessian built from two sums, and falls back to
a reweighting (Weiszfeld) step where Newton is refused; it tests each
point it comes nearest once as the optimum and steps out of a refused
point by the modified Weiszfeld rule.

numpy enters through ``WeightedConfiguration.arrays``, the points and
weights converted once.  A configuration of ``ARRAY_MIN`` or more points
converts them as it validates, when numpy is already loaded, and checks
its points for duplicates on the arrays; otherwise it validates in Python
and converts on first use.  Validation never imports numpy.  The general
solver always runs on the arrays; the certificate and the objective do
from ``ARRAY_MIN`` points on and take Python loops below, so the closed
forms, the covering circle, and the command line on them, run without
loading numpy.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from . import geom
from .bjorth import SupportCertificate, _angle_threshold, build_l1_certificate
from .errors import (
    CertificatePreconditionFailed,
    EmptyInput,
    LengthMismatch,
    MaxIterationsExceeded,
    MixedSigns,
    NotOrthogonal,
    VertexPreconditionFailed,
)
from .tolerances import EPS_CLASS, EPS_REL, spread

# Configurations of at least this many points take the certificate's and
# the objective's passes in numpy.  Both cost the same either way at about
# 24 points (Intel Xeon, numpy 2.4); from 32 on the arrays are ahead by a
# quarter.  The closed forms and small medians stay on the Python loops.
# The duplicate check breaks even near the same size, so it shares the
# cut-off, but it takes arrays only when numpy is already loaded: importing
# numpy costs more than the check saves below about 1e5 points.
ARRAY_MIN = 32

@dataclass(frozen=True)
class WeightedConfiguration:
    """Pairwise distinct planar points with positive weights.

    The one validated instance of the package: the solvers, their
    certificates and the command line all take it as built.  ``diameter``
    and ``total_weight`` are computed once, at construction; weights whose
    sum overflows the doubles are refused, so every tolerance scaled by the
    total weight stays finite.  From ``ARRAY_MIN`` points on, when numpy is
    already loaded, construction converts the points and weights to the
    arrays that ``arrays`` returns and hands the point array to
    ``geom.ensure_distinct``, which then takes array passes.  Construction
    never imports numpy itself.
    """

    points: tuple[complex, ...]
    weights: tuple[float, ...]
    diameter: float = field(init=False, repr=False, compare=False)
    total_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(map(complex, self.points))
        wts = tuple(map(float, self.weights))
        if not pts:
            raise EmptyInput("a configuration needs at least one point")
        if len(pts) != len(wts):
            raise LengthMismatch("one weight per point")
        total = sum(wts)
        # min may pass over a NaN, but the sum is then NaN; with an inf it is inf
        if not (min(wts) > 0.0 and total < math.inf):
            for a in wts:
                if not (math.isfinite(a) and a > 0.0):
                    raise ValueError(f"weights must be positive and finite, got {a!r}")
            raise ValueError("weights must have a finite sum, got one beyond the doubles")
        if len(pts) >= ARRAY_MIN and "numpy" in sys.modules:
            arrays = _as_arrays(pts, wts)
            object.__setattr__(self, "_arrays", arrays)
            diameter = geom.ensure_distinct(arrays[0])
        else:
            diameter = geom.ensure_distinct(pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "total_weight", total)

    @classmethod
    def of(cls, points, weights=None) -> "WeightedConfiguration":
        """Raw points and weights (unit weights for None) as a configuration.

        A configuration passed as ``points`` comes back unchanged, without
        validating it again; it carries its own weights, so ``weights`` must
        then be None.
        """
        if isinstance(points, cls):
            if weights is not None:
                raise ValueError("a configuration carries its own weights")
            return points
        pts = tuple(points)
        return cls(pts, (1.0,) * len(pts) if weights is None else tuple(weights))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def arrays(self):
        """The points and weights as read-only numpy arrays, converted once.

        The solvers and certificates that take array passes share this one
        conversion: the one made at construction when there was one,
        otherwise one made on first use.  A configuration that never
        reaches them never imports numpy.
        """
        arrays = self.__dict__.get("_arrays")
        if arrays is None:
            arrays = _as_arrays(self.points, self.weights)
            object.__setattr__(self, "_arrays", arrays)
        return arrays


def _as_arrays(points, weights):
    import numpy as np

    pts = np.fromiter(points, dtype=complex, count=len(points))
    wts = np.fromiter(weights, dtype=float, count=len(weights))
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def ft_objective(config: WeightedConfiguration, w: complex) -> float:
    """Weighted distance sum at w, in numpy from ARRAY_MIN points on.

    A sum beyond the doubles is inf on both paths, also when an offset's
    modulus overflows.
    """
    if config.n >= ARRAY_MIN:
        import numpy as np

        pts, wts = config.arrays
        with np.errstate(over="ignore"):
            return float(wts @ abs(pts - complex(w)))
    dist = map(abs, map(complex(w).__rsub__, config.points))
    try:
        return sum(map(operator.mul, config.weights, dist))
    except OverflowError:  # abs of an offset beyond the doubles
        return math.inf


def ft_certificate(
    config: WeightedConfiguration, w: complex, tol: Optional[float] = None
) -> SupportCertificate:
    """Optimality certificate for w as weighted Fermat-Torricelli point.

    The pass condition is

        |sum over z_i != w of alpha_i * conj(z_i - w)/|z_i - w||
            <= sum over z_i = w of alpha_i  +  tol * total weight

    with coincidence decided by the configuration's classification band.
    The functional depends on x = (alpha_i * (z_i - w)) only through the
    directions of its entries, which are those of z_i - w, so the offsets
    go to ``build_l1_certificate`` as they are and no weight of any finite
    scale can make an entry overflow.  From ARRAY_MIN points on, the
    offsets and the band test are numpy array operations.  ``tol`` is
    relative and defaults to EPS_REL.  When w coincides with exactly one
    configuration point the certificate's ``gamma`` is the free coefficient
    spent there.  Raises ValueError when w is not finite, an offset's
    modulus overflows, or tol is negative or not finite.
    """
    w = complex(w)
    geom.require_finite(w)
    if tol is None:
        tol = EPS_REL
    elif not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    band = EPS_CLASS * config.diameter
    if config.n >= ARRAY_MIN:
        import numpy as np

        pts, wts = config.arrays
        with np.errstate(over="ignore"):
            rel = pts - w
            mods = abs(rel)
        if mods.max() == math.inf:
            raise ValueError("offset modulus overflows: the query point is too far out")
        mask = mods <= band
    else:
        wts = config.weights
        rel = list(map(w.__rsub__, config.points))  # z_i - w, once
        mask = list(map(functools.partial(operator.ge, band), geom._moduli(rel)))
    return build_l1_certificate(rel, wts, mask, tol * config.total_weight)


# ---------------------------------------------------------------------------
# solve results


class FtCase(enum.Enum):
    DOMINANT_WEIGHT = "dominant-weight"
    SEGMENT_OF_SOLUTIONS = "segment-of-solutions"
    VERTEX = "vertex"
    INTERIOR = "interior"
    DIAGONAL_INTERSECTION = "diagonal-intersection"
    HULL_VERTEX = "hull-vertex"
    ITERATIVE = "iterative"


@dataclass(frozen=True)
class FtPoint:
    location: complex


@dataclass(frozen=True)
class FtSegment:
    start: complex
    end: complex


@dataclass(frozen=True)
class FtSolveResult:
    solution: Union[FtPoint, FtSegment]
    objective: float
    case: FtCase
    certificate: SupportCertificate
    vertex: Optional[int] = None
    vertex_angle: Optional[float] = None
    angles: Optional[tuple[float, float]] = None

    @property
    def location(self) -> complex:
        """A representative optimal point (the start for segments)."""
        if isinstance(self.solution, FtPoint):
            return self.solution.location
        return self.solution.start


def _point_result(config, w, case, tol=None, **extra) -> FtSolveResult:
    cert = ft_certificate(config, w, tol)
    if not cert.passed:
        raise NotOrthogonal(f"{case.value} solution failed its certificate")
    return FtSolveResult(
        solution=FtPoint(w),
        objective=ft_objective(config, w),
        case=case,
        certificate=cert,
        **extra,
    )


# ---------------------------------------------------------------------------
# three points, and the vertex test both closed forms share


def solve_ft3_weighted(
    z1: complex, z2: complex, z3: complex, weights: Sequence[float]
) -> FtSolveResult:
    """Weighted Fermat-Torricelli point of three distinct points.

    One slack test, ``geom._vertex_margins``, decides every vertex case.  Two
    passing points bound a segment of solutions (the heavier point first),
    kept when the certificate at its midpoint passes.  Otherwise the point
    of least margin, if it passes, is the solution: a dominant weight when
    its weight reaches the sum of the others within the classification
    band, a vertex otherwise.  When no point passes the solution is
    interior, the weighted average of the three points given by its
    closed-form barycentric coordinates.  Raises NotOrthogonal when the
    location found fails its certificate.
    """
    config = WeightedConfiguration((z1, z2, z3), tuple(weights))
    zs, ws, wsum = config.points, config.weights, config.total_weight
    margins = geom._vertex_margins(zs, ws)
    passing = [i for i in range(3) if margins[i] <= EPS_REL * wsum]
    if len(passing) == 2:
        i, j = sorted(passing, key=ws.__getitem__, reverse=True)
        seg = FtSegment(zs[i], zs[j])
        cert = ft_certificate(config, 0.5 * (seg.start + seg.end))
        if cert.passed:
            obj = ft_objective(config, seg.start)
            return FtSolveResult(seg, obj, FtCase.SEGMENT_OF_SOLUTIONS, cert, vertex=i)

    i = min(range(3), key=margins.__getitem__)
    if margins[i] <= EPS_REL * wsum:
        j, k = [m for m in range(3) if m != i]
        if ws[i] - ws[j] - ws[k] >= -EPS_CLASS * wsum:
            return _point_result(config, zs[i], FtCase.DOMINANT_WEIGHT, vertex=i)
        theta = geom.directed_angle(zs[i], zs[j], zs[k])
        return _point_result(config, zs[i], FtCase.VERTEX, vertex=i, vertex_angle=theta)

    # every vertex margin is positive, so each |_angle_threshold| < 1 here
    w = _interior_ft3(config)
    result = _point_result(config, w, FtCase.INTERIOR)
    # w may sit inside a point's band, but the vertex tests refused every
    # point, so w is none of them and both rays exist
    angles = tuple(
        geom.normalize_angle(cmath.phase((z - w) / (zs[0] - w))) for z in zs[1:]
    )
    return replace(result, angles=angles)


def _interior_ft3(config: WeightedConfiguration) -> complex:
    """Interior solution from its barycentric coordinates.

    The optimum sees the side opposite z_i under the angle phi_i with
    cos(phi_i) = _angle_threshold(a_i, a_j, a_k), so its barycentric
    coordinate at z_i is proportional to 1/(cot A_i - cot phi_i), where A_i
    is the triangle's angle at z_i (Uteshev 2014).  Both cotangents are
    scaled by twice the area, and the average is taken relative to z1 so a
    triangle far from the origin keeps its digits.
    """
    z1 = config.points[0]
    p = [z - z1 for z in config.points]
    area2 = abs((p[1].conjugate() * p[2]).imag)
    lam = []
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        t = _angle_threshold(config.weights[i], config.weights[j], config.weights[k])
        dot = ((p[j] - p[i]).conjugate() * (p[k] - p[i])).real
        lam.append(1.0 / (dot - area2 * t / math.sqrt((1.0 - t) * (1.0 + t))))
    return z1 + (lam[1] * p[1] + lam[2] * p[2]) / sum(lam)


# ---------------------------------------------------------------------------
# four points, unit weights


def solve_ft4(z1: complex, z2: complex, z3: complex, z4: complex) -> FtSolveResult:
    """Fermat-Torricelli point of four distinct points with unit weights.

    ``geom.quadrilateral_shape`` decides, by the slack test: a contained
    point is the solution.  Otherwise the points are in convex position
    and the diagonals of their counterclockwise order cross at the solution.
    """
    config = WeightedConfiguration((z1, z2, z3, z4), (1.0, 1.0, 1.0, 1.0))
    zs = config.points
    shape = geom._shape4(zs)
    if isinstance(shape, geom.NonConvex):
        i = shape.contained
        return _point_result(config, zs[i], FtCase.HULL_VERTEX, vertex=i)
    (i0, i2), (i1, i3) = shape.diagonals
    w = geom.segment_intersection(zs[i0], zs[i2], zs[i1], zs[i3])
    if w is None:
        raise NotOrthogonal("convex quadrilateral with non-crossing diagonals")
    return _point_result(config, w, FtCase.DIAGONAL_INTERSECTION)


# ---------------------------------------------------------------------------
# general n


def solve_ft_n(
    config: WeightedConfiguration, tol: float = 1e-10, max_iter: int = 10000
) -> FtSolveResult:
    """Certified iterative solver for any number of points.

    Starts from the weighted centroid and tries a damped Newton step from
    the first iterate on; an inverse-distance reweighting (Weiszfeld) step
    is taken only when the Newton step is refused.  Every iteration is
    O(n).  The first time a configuration point is the one nearest the
    iterate it gets the slack test, once, and passes it exactly when it is
    the optimum.  An iterate inside the band of a point that failed steps
    out by the modified Weiszfeld rule of Vardi and Zhang (2000).  The
    returned location passes ft_certificate at the given relative
    tolerance; otherwise MaxIterationsExceeded carries the best iterate
    seen.  The iteration runs on the configuration's numpy arrays, with
    the weights divided by their total, so weights of any scale whose
    sum is finite give the same iterates, and a common power-of-two factor the same
    location to the bit.  Raises ValueError unless tol is positive and
    finite and max_iter at least 1.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if config.n == 1:
        return _point_result(config, config.points[0], FtCase.ITERATIVE, tol)
    pts, wts = config.arrays
    wts = wts / config.total_weight  # shares of the total, which sum to 1
    near_band = EPS_CLASS * config.diameter
    target = tol
    tested = set()
    w = complex(wts @ pts)
    best = (math.inf, w)
    for _ in range(max_iter):
        rel = pts - w
        d = abs(rel)
        k = int(d.argmin())
        if k not in tested or d[k] <= near_band:
            # the other points' pull at z_k, with z_k's own term dropped; it
            # does not depend on w, so one test per point settles z_k
            diff = pts - pts[k]
            dk = abs(diff)
            dk[k] = math.inf
            inv = wts / dk
            pull = complex(inv @ diff)
            r = abs(pull)
            if k not in tested:
                tested.add(k)
                if r - wts[k] <= target:
                    return _point_result(
                        config, config.points[k], FtCase.ITERATIVE, tol
                    )
            if d[k] <= near_band:
                # modified Weiszfeld step z_k + (1 - a_k/r)(T - z_k), with T
                # the other points' Weiszfeld average; r > a_k here
                w = config.points[k] + complex((1.0 - wts[k] / r) * pull / inv.sum())
                continue
        inv = wts / d
        pull = complex(inv @ rel)
        rn = abs(pull)
        if rn < best[0]:
            best = (rn, w)
        if rn <= target:
            break
        s0 = float(inv.sum())
        stepped = _newton_step(pts, wts, w, rel, d, inv, s0, pull, rn, near_band)
        if stepped is None:
            stepped = complex(inv @ pts / s0)
            if stepped == w:
                break
        w = stepped
    else:
        w = best[1]
    cert = ft_certificate(config, w, tol)
    if not cert.passed:
        raise MaxIterationsExceeded(
            f"no certified point within {max_iter} iterations",
            location=w,
            certificate=cert,
        )
    return FtSolveResult(
        solution=FtPoint(w),
        objective=ft_objective(config, w),
        case=FtCase.ITERATIVE,
        certificate=cert,
    )


def _newton_step(pts, wts, w, rel, d, inv, s0, pull, rn, near_band) -> Optional[complex]:
    """Damped Newton step, halved until the pull shrinks, or None.

    With u_i the unit vector from w to z_i, I - u_i u_i^T is half of I
    minus the reflection by u_i^2, so the Hessian acts on a step s as
    (s0 s - s2 conj(s))/2, where s2 = sum of a_i u_i^2/|z_i - w|.  It is
    singular, as on a line of points, when |s2| reaches s0.
    """
    u = rel / d
    s2 = complex(inv @ (u * u))
    det = (s0 - abs(s2)) * (s0 + abs(s2))
    if not 0.0 < det < math.inf:
        return None
    step = 2.0 * (s0 * pull + s2 * pull.conjugate()) / det  # H step = pull
    for _ in range(8):
        cand = w + step
        rel = pts - cand
        dc = abs(rel)
        if dc.min() > near_band and abs(complex((wts / dc) @ rel)) < rn:
            return cand
        step *= 0.5
    return None


# ---------------------------------------------------------------------------
# perturbations of a certified optimum


def _require_certified_interior(config: WeightedConfiguration, w: complex) -> None:
    w = complex(w)
    band = EPS_CLASS * config.diameter
    if any(abs(z - w) <= band for z in config.points):
        raise CertificatePreconditionFailed("the optimum must avoid every point")
    if not ft_certificate(config, w).passed:
        raise CertificatePreconditionFailed("w is not a certified optimum")


def addition_preserves(
    config: WeightedConfiguration, w: complex, z_new: complex, alpha_new: float
) -> bool:
    """Whether w stays optimal after adding (z_new, alpha_new).

    Happens exactly when the new point lands on w itself, since any other
    placement tilts the balanced direction sum.
    """
    _require_certified_interior(config, w)
    if not (alpha_new > 0.0):
        raise ValueError("alpha_new must be positive")
    extended = WeightedConfiguration(
        config.points + (complex(z_new),), config.weights + (float(alpha_new),)
    )
    return ft_certificate(extended, w).passed


def replacement_preserves(
    config: WeightedConfiguration, w: complex, index: int, s: complex
) -> bool:
    """Whether moving point ``index`` to s keeps w optimal.

    True exactly when s sits on the closed ray from w through the point it
    replaces, so its unit direction (and hence the direction sum) does not
    change.
    """
    _require_certified_interior(config, w)
    if not (0 <= index < config.n):
        raise IndexError("index out of range")
    w = complex(w)
    s = complex(s)
    ray = config.points[index] - w
    band = EPS_CLASS * spread(list(config.points) + [w, s])
    t = max(0.0, ((s - w).real * ray.real + (s - w).imag * ray.imag) / abs(ray) ** 2)
    return abs(s - (w + t * ray)) <= band


def decomposition_equivalence(
    config_a: WeightedConfiguration, w: complex, config_b: WeightedConfiguration
) -> bool:
    """Whether w solves the concatenation of two configurations.

    With w already optimal for the first part, this holds exactly when w
    also solves the second part alone; the direction sums add.
    """
    _require_certified_interior(config_a, w)
    merged = WeightedConfiguration(
        config_a.points + config_b.points, config_a.weights + config_b.weights
    )
    return ft_certificate(merged, w).passed


def scaled_configuration(
    config: WeightedConfiguration, w: complex, scales: Sequence[float]
) -> WeightedConfiguration:
    """Slide each point along its ray from w by a same-sign factor.

    Unit directions are preserved (or all flipped), so w stays optimal for
    the result; the returned configuration is re-certified before handing
    it back.
    """
    _require_certified_interior(config, w)
    cs = [float(c) for c in scales]
    if len(cs) != config.n:
        raise LengthMismatch("one scale per point")
    if any(c == 0.0 for c in cs):
        raise MixedSigns("scales must be nonzero")
    if any(c > 0.0 for c in cs) and any(c < 0.0 for c in cs):
        raise MixedSigns("scales must share one sign")
    w = complex(w)
    moved = tuple(w + c * (z - w) for z, c in zip(config.points, cs))
    out = WeightedConfiguration(moved, config.weights)
    if not ft_certificate(out, w).passed:
        raise CertificatePreconditionFailed("scaled configuration lost the optimum")
    return out


class _Undetermined:
    """Marker for the weight band the vertex-extension result leaves open."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def extend_at_vertex(
    config: WeightedConfiguration, w: complex, alpha_new: float
):
    """Add a point keeping a vertex optimum, when the new weight allows it.

    With w sitting on configuration point i0, a new weight up to the weight
    at i0 can always be placed so that w stays optimal; the construction
    spends the free coefficient gamma reported by the certificate.  Weights
    above twice the vertex weight are impossible (returns None) and the
    band in between is reported as UNDETERMINED rather than guessed.
    """
    w = complex(w)
    if not (alpha_new > 0.0):
        raise ValueError("alpha_new must be positive")
    band = EPS_CLASS * config.diameter
    hits = [i for i, z in enumerate(config.points) if abs(z - w) <= band]
    if len(hits) != 1:
        raise VertexPreconditionFailed("w must equal exactly one configuration point")
    i0 = hits[0]
    a0 = config.weights[i0]
    cert = ft_certificate(config, w)
    if not cert.passed:
        raise VertexPreconditionFailed("w is not a certified optimum")
    if alpha_new > 2.0 * a0 * (1.0 + EPS_CLASS):
        return None
    if alpha_new > a0 * (1.0 + EPS_CLASS):
        return UNDETERMINED
    gamma = cert.gamma if cert.gamma is not None else 0j
    ratio = alpha_new / a0
    if abs(gamma) > EPS_REL:
        delta = gamma * (1.0 - ratio / abs(gamma))
    else:
        delta = complex(ratio, 0.0)
    z_new = w + (a0 / alpha_new) * (gamma - delta).conjugate()
    extended = WeightedConfiguration(
        config.points + (z_new,), config.weights + (float(alpha_new),)
    )
    if not ft_certificate(extended, w).passed:
        raise VertexPreconditionFailed("extension lost the optimum")
    return z_new
