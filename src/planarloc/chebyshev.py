"""Chebyshev centers of finite planar point sets, weighted and plain.

The center w minimizing the largest weighted distance is certified through
a max-norm orthogonality condition, x = (a_i/max a)(z_i - w) orthogonal to
y = (a_i/max a), built by ``bjorth.build_linf_certificate`` as for any two
vectors: zero must lie in the convex hull of the unit directions from the
center toward the weighted-farthest points, scaled by their y_i.  The
solvers run a farthest-point exchange (Elzinga and Hearn, 1972): a basis
of at most three points and the point farthest from its circle are solved
exactly, and the tight points of that subset become the next basis.  The
radius grows every round (rounding can hide the growth, so a subset seen
before ends the loop); once the circle covers every point, the
certificate is asked once, over all points.  A center that passes it is
optimal, so the search need not be exhaustive.  A single point is no
special case: the exchange stops at once on it, and x = 0 passes.

Every public function here validates its input by building one
``fermat.WeightedConfiguration``.  A configuration may be passed in place
of ``points`` (with ``weights`` None); it is then used as it is, with its
own weights, and not validated again.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import combinations

from . import geom
from ._record import FrozenRecord, set_field
from .bjorth import SupportCertificate, build_linf_certificate, linf_support
from .errors import CollinearPoints, NotOrthogonal
from .fermat import WeightedConfiguration, solve_ft3_weighted, solve_ft4
from .tolerances import EPS_CLASS, EPS_REL


class ChebySolveResult(FrozenRecord):
    """Certified weighted Chebyshev center.

    ``support`` indexes the points attaining the radius, ``t`` the convex
    coefficients on their unit directions summing to zero, and
    ``hull_coefficients`` the derived convex combination expressing the
    center over the support points.  ``certificate`` is the one that
    passed at ``center``, a single point's included.
    """

    _fields = ("center", "radius", "support", "t", "hull_coefficients", "certificate")

    def __init__(
        self,
        center: complex,
        radius: float,
        support: tuple[int, ...],
        t: tuple[float, ...],
        hull_coefficients: tuple[float, ...],
        certificate: SupportCertificate,
    ):
        set_field(self, "center", center)
        set_field(self, "radius", radius)
        set_field(self, "support", support)
        set_field(self, "t", t)
        set_field(self, "hull_coefficients", hull_coefficients)
        set_field(self, "certificate", certificate)


def chebyshev_radius(points, weights, w: complex) -> float:
    """Largest weighted distance from w to the points."""
    config = WeightedConfiguration.of(points, weights)
    w = complex(w)
    geom.require_finite(w)
    dist = geom._moduli(map(w.__rsub__, config.points))
    return max(map(operator.mul, config.weights, dist))


def cheby_certificate(points, weights, w: complex) -> SupportCertificate:
    """Optimality certificate for w as weighted Chebyshev center.

    The max-norm orthogonality of x = y * (z - w) to y = a / max(a), the
    certificate ``is_bj_orthogonal_linf(x, y)`` builds: the support is the
    weighted-farthest points, and ``t`` weighs the values
    y_j * conj(z_j - w)/|z_j - w| there, full length with zeros elsewhere.
    A single point is its own support; x = 0 there, which passes.
    Uniformly scaled weights become exactly 1.0, as unit weights are.
    Raises ValueError when w is not finite or an offset's modulus overflows.
    """
    config = WeightedConfiguration.of(points, weights)
    w = complex(w)
    geom.require_finite(w)
    top = max(config.weights)
    y = [a / top for a in config.weights]
    x = list(map(operator.mul, y, map(w.__rsub__, config.points)))
    support = (0,) if config.n == 1 else linf_support(geom._moduli(x))
    return build_linf_certificate(x, y, support)


def _result_from(unit, w: complex, radius: float, cert) -> ChebySolveResult:
    """The result at a certified center, in O(|support|).

    With ``unit`` the certificate's y, its t_j * unit_j weigh the unit
    directions u_j, and t_j * unit_j**2 the points, as z_j - w is
    proportional to u_j / unit_j on the support.
    """
    on_dirs = [cert.t[j] * unit[j] for j in cert.support]
    on_pts = [tj * unit[j] for tj, j in zip(on_dirs, cert.support)]
    total_dirs, total_pts = sum(on_dirs), sum(on_pts)
    return ChebySolveResult(
        center=w,
        radius=radius,
        support=cert.support,
        t=tuple(v / total_dirs for v in on_dirs),
        hull_coefficients=tuple(v / total_pts for v in on_pts),
        certificate=cert,
    )


def _equalizers(a, b, c, wa, wb, wc) -> list[complex]:
    """The points p with wa|p - a| = wb|p - b| = wc|p - c|.

    With r = |p - a|^2 the equations are linear in p, p = a + p0 - r*q
    (p0 the circumcenter relative to a, q zero for equal weights), and r
    solves a quadratic.  No Apollonius locus is built, so near-equal
    weights stay well conditioned; a zero divisor (collinear points, say)
    or an overflow means no such point.
    """
    b, c = b - a, c - a
    try:
        cross = 2.0 * (b.conjugate() * c).imag
        p0 = 1j * (abs(c) ** 2 * b - abs(b) ** 2 * c) / cross
        ub = (wa - wb) * (wa + wb) / (wb * wb)
        uc = (wa - wc) * (wa + wc) / (wc * wc)
        q = 1j * (uc * b - ub * c) / cross
        qa, qb, qc = abs(q) ** 2, -1.0 - 2.0 * (p0.conjugate() * q).real, abs(p0) ** 2
        root = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
        s = -0.5 * (qb + math.copysign(root, qb))
        roots = [qc / s] + ([s / qa] if qa > 0.0 else [])
    except ArithmeticError:
        return []
    return [a + p0 - r * q for r in roots]


def _candidates(points, weights, idx) -> list[complex]:
    """Every location that can center the covering circle of ``points[idx]``.

    Pairs split their segment at the weight ratio; triples give their
    equalizing points.  Each is built relative to one of its own points,
    so it keeps its digits however far the points sit from the origin.
    """
    zs = [complex(points[i]) for i in idx]
    ws = [float(weights[i]) for i in idx]
    pairs = combinations(range(len(zs)), 2)
    local = [zs[i] + ws[j] * (zs[j] - zs[i]) / (ws[i] + ws[j]) for i, j in pairs]
    for i, j, k in combinations(range(len(zs)), 3):
        local += _equalizers(zs[i], zs[j], zs[k], ws[i], ws[j], ws[k])
    return [p for p in local if cmath.isfinite(p)]


def _solve(config: WeightedConfiguration) -> ChebySolveResult:
    """Farthest-point exchange, then one certificate over all points.

    The exchange runs relative to the first point, so its distances keep
    their digits far from the origin.  Weights are divided by their
    maximum, so equal weights become exactly 1.0: the unit-weight center.
    """
    origin, top = config.points[0], max(config.weights)
    zs = [z - origin for z in config.points]
    unit = [a / top for a in config.weights]
    basis, center, radius, seen = [0], 0j, 0.0, set()
    while True:
        far = [a * abs(z - center) for z, a in zip(zs, unit)]
        h = max(range(config.n), key=far.__getitem__)
        sub = basis + [h]
        if far[h] <= radius * (1.0 + EPS_REL) or frozenset(sub) in seen:
            break
        seen.add(frozenset(sub))
        cands = _candidates(zs, unit, sub)
        dist = {c: [unit[j] * abs(zs[j] - c) for j in sub] for c in cands}
        center = min(dist, key=lambda c: max(dist[c]))
        radius = max(dist[center])
        basis = [j for j, d in zip(sub, dist[center]) if d >= (1.0 - EPS_REL) * radius]
    center += origin
    cert = cheby_certificate(config, None, center)
    if not cert.passed:
        raise NotOrthogonal("the covering circle's center failed its certificate")
    radius = max(a * abs(z - center) for z, a in zip(config.points, config.weights))
    return _result_from(unit, center, radius, cert)


def solve_chebyshev(points) -> ChebySolveResult:
    """Chebyshev center with unit weights.

    A configuration passed as ``points`` is solved with its own weights.
    """
    return _solve(WeightedConfiguration.of(points))


def solve_chebyshev_weighted(points, weights) -> ChebySolveResult:
    """Weighted Chebyshev center.

    Equal weights give the plain solver's center and support to the bit,
    since the solver divides the weights by their maximum, which makes
    equal weights exactly 1.0.
    """
    return _solve(WeightedConfiguration.of(points, weights))


# ---------------------------------------------------------------------------
# coincidence of the two kinds of center


def ft_cheby_coincide3(z1: complex, z2: complex, z3: complex) -> bool:
    """Whether the distance-sum and max-distance centers agree (3 points).

    Both solvers run with unit weights and the locations are compared in
    the classification band.  Agreement characterizes equilateral triples.
    """
    config = WeightedConfiguration.of((z1, z2, z3))
    pts = config.points
    scale = config.diameter
    if abs(geom._cross(*pts)) <= EPS_CLASS * scale * scale:
        raise CollinearPoints("coincidence test needs a genuine triangle")
    ft = solve_ft3_weighted(pts[0], pts[1], pts[2], config.weights)
    ch = _solve(config)
    return abs(ft.location - ch.center) <= EPS_CLASS * scale


def ft_cheby_coincide4(z1: complex, z2: complex, z3: complex, z4: complex) -> bool:
    """Whether the two centers agree for four points with unit weights."""
    config = WeightedConfiguration.of((z1, z2, z3, z4))
    ft = solve_ft4(*config.points)
    ch = _solve(config)
    return abs(ft.location - ch.center) <= EPS_CLASS * config.diameter
