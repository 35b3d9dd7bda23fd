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
point by the modified Weiszfeld rule.  It passes over the points once per
location: a Newton candidate is tested by its own field (nearest point,
pull and s0), which an accepted candidate hands on as the next iterate's,
and the Weiszfeld point w + pull/s0 comes from the field already taken.

numpy enters through ``WeightedConfiguration.arrays``, the points and
weights converted once.  One factory, ``_passes``, decides where a median
takes its O(n) passes and when numpy is loaded: the solver, the
certificate and the objective each take their backend from it, on the
arrays or the loops by the rule stated at ``ARRAY_MIN`` and ``IMPORT_MIN``.

The paper's results about a certified optimum are in ``theorems``, which
no solver imports.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
import sys
from typing import Optional, Sequence, Union

from . import geom
from ._record import FrozenRecord, lazy_field, set_field
from .bjorth import SupportCertificate, build_l1_certificate
from .errors import EmptyInput, LengthMismatch, MaxIterationsExceeded, NotOrthogonal
from .tolerances import EPS_CLASS, EPS_REL

# Where a median's O(n) passes run: on the configuration's numpy arrays from
# ARRAY_MIN points on when numpy is already loaded (``_on_arrays``), in Python
# loops otherwise.  Validation decides it in ``_checked_arrays``, and the
# solver, the certificate and the objective take their backend from
# ``_passes``, the one place that picks it, anew on each call.  Building a
# configuration never imports numpy.  ``_passes`` and the command line load
# it for a median of IMPORT_MIN or more points, and a solve of ARRAY_MIN or
# more points on the loops loads it and moves to the arrays when a Newton
# step is refused after all its halvings, the sign of a slow solve.  So the
# closed forms, the covering circle and every median below IMPORT_MIN points
# whose Newton steps are taken run without numpy.  The two constants answer
# two questions.  ARRAY_MIN is where arrays beat loops once numpy is there: the
# certificate and the objective cost the same either way at about 24 points
# (Intel Xeon, numpy 2.4), and from 32 on the arrays are ahead by a quarter;
# the duplicate check and a whole solve break even near the same size.
# IMPORT_MIN is where they also pay for loading it, 0.06-0.15 s and 14 MB: on
# a 2-core Intel Xeon a `python -m planarloc solve` child on a weighted
# median took as long with numpy as without at about 1e4 near-collinear and
# 1.5e4 uniform points.  A lone certificate or objective in a fresh process
# breaks even later, near 1e5 and 4e5 points, but takes the same rule: above
# IMPORT_MIN it costs no more than when every median of ARRAY_MIN points
# loaded numpy, and a solve or the command line has usually loaded it.
ARRAY_MIN = 32
IMPORT_MIN = 10_000


def _on_arrays(n: int) -> bool:
    """Whether a median of n points takes its O(n) passes on numpy arrays."""
    return n >= ARRAY_MIN and "numpy" in sys.modules


def _loaded_on_arrays(n: int) -> bool:
    """``_on_arrays`` once numpy is loaded for ``IMPORT_MIN`` or more points."""
    if n >= IMPORT_MIN:
        import numpy  # noqa: F401  (the loops would cost more than loading it)
    return _on_arrays(n)


class WeightedConfiguration(FrozenRecord):
    """Pairwise distinct planar points with positive weights.

    The one validated instance of the package: the solvers, their
    certificates and the command line all take it as built.  ``n``,
    ``diameter`` and ``total_weight`` are computed once, at construction;
    weights whose sum overflows the doubles are refused, so every tolerance
    scaled by the total weight stays finite.  Where ``_on_arrays`` holds
    (the rule stated at ``ARRAY_MIN``), construction converts the caller's
    points and weights once, to the arrays that ``arrays`` returns, checks
    them there, and builds the ``points`` and ``weights`` tuples only when
    they are first read.  The arrays only decide: every refusal, a
    duplicate pair included, is stated as the tuples state it.  The one
    input that differs is a point given as the bytes of a number, which
    numpy reads and ``complex`` refuses.
    """

    _fields = ("points", "weights")
    # built on first read: the tuples of a configuration validated on
    # arrays, and the arrays of one validated on tuples
    points = lazy_field(lambda config: tuple(config._arrays[0].tolist()))
    weights = lazy_field(lambda config: tuple(config._arrays[1].tolist()))
    _arrays = lazy_field(lambda config: _as_arrays(config.points, config.weights))

    def __init__(self, points: tuple[complex, ...], weights: tuple[float, ...]):
        set_field(self, "points", points)
        set_field(self, "weights", weights)
        # looked up on the class, so a wrapper set there sees every construction
        self.__post_init__()

    def __post_init__(self):
        # validates, and sets n, diameter and total_weight, which _fields leaves out
        points, weights = self.points, self.weights
        checked = _checked_arrays(points, weights)
        if checked is None:
            points, wts, total = _checked_tuples(points, weights)
            set_field(self, "points", points)
            set_field(self, "weights", wts)
            diameter = geom.ensure_distinct(points)
        else:
            (points, _), total, diameter = checked
            set_field(self, "_arrays", checked[0])
            object.__delattr__(self, "points")  # the lazy fields build them
            object.__delattr__(self, "weights")
        set_field(self, "n", len(points))
        set_field(self, "diameter", diameter)
        set_field(self, "total_weight", total)

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
    def arrays(self):
        """The points and weights as read-only numpy arrays, converted once."""
        return self._arrays


def _as_arrays(points, weights):
    import numpy as np

    pts = np.fromiter(points, dtype=complex, count=len(points))
    wts = np.fromiter(weights, dtype=float, count=len(weights))
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def _checked_arrays(points, weights):
    """The caller's points and weights as arrays, with the total weight and the spread.

    None unless ``_on_arrays`` holds and every check on the arrays passes:
    the conversion, the lengths, the weights and the duplicate check.  The
    tuples and the list check then decide, and raise, as below
    ``ARRAY_MIN``; the arrays only raise DuplicatePoints, for the pair the
    list check names.  The total is added left to right, as the tuples add
    it, so both give the same double.
    """
    try:
        if not _on_arrays(len(points)):
            return None
        arrays = _as_arrays(points, weights)
    except (TypeError, ValueError, OverflowError):  # no len, or numpy refused an entry
        return None
    import numpy as np

    wts = arrays[1]
    if len(wts) != len(arrays[0]):
        return None
    with np.errstate(over="ignore"):  # a sum beyond the doubles is inf, refused below
        total = float(np.add.accumulate(wts)[-1])
    # a NaN weight makes the min NaN, which fails the test as well
    if not (wts.min() > 0.0 and total < math.inf):
        return None
    try:
        return arrays, total, geom.ensure_distinct(arrays[0])
    except ValueError:  # a point not finite, or a spread beyond the doubles
        return None


def _checked_tuples(points, weights):
    """The points and weights as tuples, with the total weight; a refusal names the field."""
    pts = tuple(map(complex, points))
    wts = tuple(map(float, weights))
    if not pts:
        raise EmptyInput("points: at least one point required")
    if len(pts) != len(wts):
        raise LengthMismatch(f"weights: length {len(wts)} does not match {len(pts)} points")
    total = functools.reduce(operator.add, wts)  # left to right, as the arrays add
    # min may pass over a NaN, but the sum is then NaN; with an inf it is inf
    if not (min(wts) > 0.0 and total < math.inf):
        for i, a in enumerate(wts):
            if not (math.isfinite(a) and a > 0.0):
                raise ValueError(f"weights[{i}]: must be positive and finite")
        raise ValueError("weights: their sum is beyond the doubles")
    return pts, wts, total


def ft_objective(config: WeightedConfiguration, w: complex) -> float:
    """Weighted distance sum at w, by ``_passes``; inf past the doubles, an offset's too."""
    return _passes(config).objective(complex(w))


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
    scale can make an entry overflow.  The offsets and the band test are
    passes of ``_passes``.  ``tol`` is relative and defaults to EPS_REL.
    When w coincides with exactly one configuration point the certificate's
    ``gamma`` is the free coefficient spent there.  Raises ValueError when
    w is not finite, an offset's modulus overflows, or tol is negative or
    not finite.
    """
    w = complex(w)
    geom.require_finite(w)
    if tol is None:
        tol = EPS_REL
    elif not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    passes = _passes(config)
    rel, _, mask = passes.offsets(w)
    return build_l1_certificate(rel, passes.wts, mask, tol * config.total_weight)


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


class FtPoint(FrozenRecord):
    _fields = ("location",)

    def __init__(self, location: complex):
        set_field(self, "location", location)


class FtSegment(FrozenRecord):
    _fields = ("start", "end")

    def __init__(self, start: complex, end: complex):
        set_field(self, "start", start)
        set_field(self, "end", end)


class FtSolveResult(FrozenRecord):
    _fields = (
        "solution", "objective", "case", "certificate", "vertex", "vertex_angle", "angles"
    )

    def __init__(
        self,
        solution: Union[FtPoint, FtSegment],
        objective: float,
        case: FtCase,
        certificate: SupportCertificate,
        vertex: Optional[int] = None,
        vertex_angle: Optional[float] = None,
        angles: Optional[tuple[float, float]] = None,
    ):
        set_field(self, "solution", solution)
        set_field(self, "objective", objective)
        set_field(self, "case", case)
        set_field(self, "certificate", certificate)
        set_field(self, "vertex", vertex)
        set_field(self, "vertex_angle", vertex_angle)
        set_field(self, "angles", angles)

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
    return FtSolveResult(FtPoint(w), ft_objective(config, w), case, cert, **extra)


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
    return FtSolveResult(
        result.solution, result.objective, result.case, result.certificate, angles=angles
    )


def _interior_ft3(config: WeightedConfiguration) -> complex:
    """Interior solution from its barycentric coordinates.

    The optimum sees the side opposite z_i under the angle phi_i with
    cos(phi_i) = _angle_threshold(a_i, a_j, a_k), so its barycentric
    coordinate at z_i is proportional to 1/(cot A_i - cot phi_i), where A_i
    is the triangle's angle at z_i (Uteshev 2014).  Both cotangents are
    scaled by twice the area, and the average is taken relative to z1 so a
    triangle far from the origin keeps its digits.
    """
    zs, ws = config.points, config.weights
    z1 = zs[0]
    p = [z - z1 for z in zs]
    area2 = abs((p[1].conjugate() * p[2]).imag)
    lam = []
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        t = _angle_threshold(ws[i], ws[j], ws[k])
        dot = ((p[j] - p[i]).conjugate() * (p[k] - p[i])).real
        lam.append(1.0 / (dot - area2 * t / math.sqrt((1.0 - t) * (1.0 + t))))
    return z1 + (lam[1] * p[1] + lam[2] * p[2]) / sum(lam)


def _angle_threshold(a_i: float, a_j: float, a_k: float) -> float:
    """Cosine of the angle between u_j and u_k when a_i*u_i + a_j*u_j + a_k*u_k = 0.

    Taken in weight ratios, so no square overflows or underflows whatever
    their common scale; the callers' triangle condition bounds the ratios.
    """
    return 0.5 * ((a_i / a_j) * (a_i / a_k) - a_j / a_k - a_k / a_j)


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
    is taken only when the Newton step is refused.  Every iteration is O(n),
    with one field pass per location: the field of an accepted Newton
    candidate is the next iterate's, and the Weiszfeld point is w + pull/s0,
    with the pull and s0 of the field at w.  The first time a configuration
    point is the one nearest the iterate it gets the slack test, once, and
    passes it exactly when it is the optimum.  An iterate inside the band of
    a point that failed steps out by the modified Weiszfeld rule of Vardi
    and Zhang (2000).  The returned location passes ft_certificate at the
    given relative tolerance; otherwise MaxIterationsExceeded carries the
    best iterate seen, and its message says how the loop ended: at the
    iteration limit, or earlier, when the Weiszfeld point rounded back to
    the iterate or the pull met the tolerance.  The iteration runs on the
    weights divided by their total, so weights of any scale whose sum is
    finite give the same iterates, and a common power-of-two factor the
    same location to the bit.  Its passes come from ``_passes``; the sums of
    the loops may differ from the arrays' in the last digits.  Raises
    ValueError unless tol is positive and finite and max_iter at least 1.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    passes = _passes(config)
    tested = set()
    w, here = passes.centroid(), None
    best = (math.inf, w)
    ended = f"the iteration limit of {max_iter} was reached"
    for iteration in range(1, max_iter + 1):
        k, dk, pull, s0 = here or passes.field(w)  # a Newton step's own field
        here = None
        if k not in tested or dk <= passes.band:
            # the other points' pull at z_k, with z_k's own term dropped; it
            # does not depend on w, so one test per point settles z_k
            vpull, inv_sum = passes.vertex_pull(k)
            r, a_k = abs(vpull), passes.shares[k]
            z_k = complex(passes.pts[k])
            if k not in tested:
                tested.add(k)
                if r - a_k <= tol:
                    return _point_result(config, z_k, FtCase.ITERATIVE, tol)
            if dk <= passes.band:
                # modified Weiszfeld step z_k + (1 - a_k/r)(T - z_k), with T
                # the other points' Weiszfeld average; r > a_k here
                w = z_k + complex((1.0 - a_k / r) * vpull / inv_sum)
                continue
        rn = abs(pull)
        if rn < best[0]:
            best = (rn, w)
        if rn <= tol:
            ended = f"the pull met the tolerance after {iteration} iterations"
            break
        s2 = passes.s2()
        newton = _newton_step(passes, w, pull, s0, s2, rn)
        if newton is not None:
            w, here = newton
            continue
        stepped = w + pull / s0  # the Weiszfeld point
        if stepped == w:
            ended = (
                f"the loop stalled after {iteration} iterations: "
                "the Weiszfeld point rounded back to the iterate"
            )
            break
        # a regular Hessian means the Newton step was refused after all its
        # halvings: a slow solve, which moves to the arrays (see ARRAY_MIN)
        if abs(s2) < s0:
            passes = passes.for_a_slow_solve()
        w = stepped
    else:
        w = best[1]
    cert = ft_certificate(config, w, tol)
    if not cert.passed:
        raise MaxIterationsExceeded(f"no certified point: {ended}", location=w, certificate=cert)
    return FtSolveResult(FtPoint(w), ft_objective(config, w), FtCase.ITERATIVE, cert)


def _newton_step(passes, w, pull, s0, s2, rn) -> Optional[tuple]:
    """Damped Newton step, halved until the pull shrinks, or None.

    With u_i the unit vector from w to z_i, I - u_i u_i^T is half of I
    minus the reflection by u_i^2, so the Hessian acts on a step s as
    (s0 s - s2 conj(s))/2, where s2 = sum of a_i u_i^2/|z_i - w|.  It is
    singular, as on a line of points, when |s2| reaches s0.  Each candidate
    is tested by its own field: it is taken when it lies outside every
    band and pulls less than rn, and comes back with that field, which is
    the next iterate's.
    """
    det = (s0 - abs(s2)) * (s0 + abs(s2))
    if not 0.0 < det < math.inf:
        return None
    step = 2.0 * (s0 * pull + s2 * pull.conjugate()) / det  # H step = pull
    for _ in range(8):
        cand = w + step
        here = passes.field(cand)
        if here[2] is not None and abs(here[2]) < rn:  # its pull, None in a band
            return cand, here
        step *= 0.5
    return None


def _passes(config: WeightedConfiguration):
    """The backend for a median's O(n) passes, by the rule stated at ``ARRAY_MIN``."""
    return (_ArrayPasses if _loaded_on_arrays(config.n) else _LoopPasses)(config)


class _ArrayPasses:
    """The O(n) passes of a median as numpy array operations.

    ``field`` keeps the offsets, distances and inverse distances at the
    location it was last given, which ``s2`` then reuses.
    """

    # shares of the total weight, summing to 1, built on the solver's first read
    shares = lazy_field(lambda p: p.wts / p.config.total_weight)

    def __init__(self, config: WeightedConfiguration):
        self.config = config
        self.pts, self.wts = config.arrays
        self.band = EPS_CLASS * config.diameter

    def for_a_slow_solve(self):
        return self

    def objective(self, w: complex) -> float:
        import numpy as np

        with np.errstate(over="ignore"):
            return float(self.wts @ abs(self.pts - w))

    def offsets(self, w: complex):
        """z_i - w, their moduli and which are in the band; ValueError on overflow."""
        import numpy as np

        with np.errstate(over="ignore"):
            rel = self.pts - w
            mods = abs(rel)
        if mods.max() == math.inf:
            raise ValueError("offset modulus overflows: the query point is too far out")
        return rel, mods, mods <= self.band

    def centroid(self) -> complex:
        return complex(self.shares @ self.pts)

    def field(self, w: complex):
        """The nearest point and its distance; the pull and s0 unless in its band."""
        self.rel = rel = self.pts - w
        self.d = d = abs(rel)
        k = int(d.argmin())
        if d[k] <= self.band:
            return k, d[k], None, None
        self.inv = inv = self.shares / d
        return k, d[k], complex(inv @ rel), float(inv.sum())

    def s2(self) -> complex:
        u = self.rel / self.d
        return complex(self.inv @ (u * u))

    def vertex_pull(self, k: int):
        """The other points' pull at z_k and their inverse distances' sum."""
        diff = self.pts - self.pts[k]
        dk = abs(diff)
        dk[k] = math.inf
        inv = self.shares / dk
        return complex(inv @ diff), inv.sum()


class _LoopPasses:
    """The same passes as Python loops, each one pass over the points.

    A solver pass accumulates its sums in floats and complexes as it goes
    and builds no list; ``field`` sums s2 along with the pull, for ``s2``.  A
    location whose offset modulus overflows gets no pull, as one in a band.
    """

    shares = lazy_field(lambda p: list(map(p.config.total_weight.__rtruediv__, p.wts)))

    def __init__(self, config: WeightedConfiguration):
        self.config = config
        self.pts, self.wts = config.points, config.weights
        self.band = EPS_CLASS * config.diameter

    def for_a_slow_solve(self):
        # each refused halving cost a pass, and Weiszfeld steps converge slowly
        return _ArrayPasses(self.config) if self.config.n >= ARRAY_MIN else self

    def objective(self, w: complex) -> float:
        dist = map(abs, map(w.__rsub__, self.pts))
        try:
            return sum(map(operator.mul, self.wts, dist))
        except OverflowError:  # abs of an offset beyond the doubles
            return math.inf

    def offsets(self, w: complex):
        rel = list(map(w.__rsub__, self.pts))  # z_i - w, once
        mods = geom._moduli(rel)
        return rel, mods, list(map(self.band.__ge__, mods))

    def centroid(self) -> complex:
        return sum(map(operator.mul, self.shares, self.pts), 0j)

    def field(self, w: complex):
        k, dk = 0, math.inf
        pull, s0, s2 = 0j, 0.0, 0j
        try:
            for i, (z, a) in enumerate(zip(self.pts, self.shares)):
                r = z - w
                d = abs(r)
                if d < dk:
                    k, dk = i, d
                inv = a / d
                u = r / d
                pull += inv * r
                s0 += inv
                s2 += inv * (u * u)
        except ZeroDivisionError:  # w is z_i
            return i, 0.0, None, None
        except OverflowError:  # w is a Newton candidate far out
            return k, dk, None, None
        self._s2 = s2
        if dk <= self.band:
            return k, dk, None, None
        return k, dk, pull, s0

    def s2(self) -> complex:
        return self._s2

    def vertex_pull(self, k: int):
        zk = self.pts[k]
        pull, inv_sum = 0j, 0.0
        for i, (z, a) in enumerate(zip(self.pts, self.shares)):
            if i == k:
                continue
            diff = z - zk
            inv = a / abs(diff)
            pull += inv * diff
            inv_sum += inv
        return pull, inv_sum
