"""Chebyshev centers of finite planar point sets, weighted and plain.

The center minimizing the largest weighted distance is certified through a
max-norm orthogonality condition: zero must lie in the convex hull of the
unit directions from the center toward the weighted-farthest points.  The
solvers enumerate every location that can equalize two or three farthest
distances (midpoints and circumcenters, or their weighted analogues built
from Apollonius loci), sort the candidates by covering radius and return
the first one the certificate accepts.  Since the covering radius at any
point bounds the optimum from below by nothing and from above by itself,
no candidate ordered earlier can beat the certified one.

Every public function here validates its input by building one
``fermat.WeightedConfiguration``.  A configuration may be passed in place
of ``points`` (with ``weights`` None); it is then used as it is, with its
own weights, and not validated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import geom
from .bjorth import SupportCertificate
from .errors import CollinearPoints, NotOrthogonal, SinglePoint
from .fermat import WeightedConfiguration, solve_ft3_weighted, solve_ft4
from .tolerances import EPS_CLASS, EPS_REL


@dataclass(frozen=True)
class ChebySolveResult:
    """Certified weighted Chebyshev center.

    ``support`` indexes the points attaining the radius, ``t`` the convex
    coefficients on their unit directions summing to zero, and
    ``hull_coefficients`` the derived convex combination expressing the
    center over the support points.  The certificate is None only in the
    single-point case.
    """

    center: complex
    radius: float
    support: tuple[int, ...]
    t: tuple[float, ...]
    hull_coefficients: tuple[float, ...]
    certificate: Optional[SupportCertificate]


def chebyshev_radius(points, weights, w: complex) -> float:
    """Largest weighted distance from w to the points."""
    config = WeightedConfiguration.of(points, weights)
    w = complex(w)
    geom.require_finite(w)
    return max(a * abs(z - w) for z, a in zip(config.points, config.weights))


def cheby_certificate(points, weights, w: complex) -> SupportCertificate:
    """Optimality certificate for w as weighted Chebyshev center.

    The weighted-farthest points (within the classification band of the
    radius) form the support; the test asks for zero in the convex hull of
    the unit directions toward them.  On success ``t`` carries the convex
    coefficients, full length with zeros off the support.
    """
    config = WeightedConfiguration.of(points, weights)
    pts, wts = config.points, config.weights
    if len(pts) == 1:
        raise SinglePoint("a single point centers at itself")
    w = complex(w)
    geom.require_finite(w)
    dist = [a * abs(z - w) for z, a in zip(pts, wts)]
    top = max(dist)
    support = tuple(j for j, dv in enumerate(dist) if dv >= (1.0 - EPS_CLASS) * top)
    units = [(pts[j] - w) / abs(pts[j] - w) for j in support]
    d: list[complex] = [0j] * len(pts)
    for i, z in enumerate(pts):
        gap = abs(z - w)
        if gap > 0.0:
            d[i] = ((z - w) / gap).conjugate()
    t_sup = geom.convex_hull_membership(0j, units)
    if t_sup is None:
        return SupportCertificate(
            space="linf",
            d=tuple(d),
            residual=math.inf,
            passed=False,
            forced=sum(units),
            slack=0.0,
            tol=EPS_CLASS,
            support=support,
        )
    residual = abs(sum(tj * uj for tj, uj in zip(t_sup, units)))
    tfull = [0.0] * len(pts)
    for idx, tj in zip(support, t_sup):
        tfull[idx] = tj
    return SupportCertificate(
        space="linf",
        d=tuple(d),
        residual=residual,
        passed=True,
        forced=sum(units),
        slack=0.0,
        tol=EPS_CLASS,
        t=tuple(tfull),
        support=support,
    )


def _single_point_result(z: complex) -> ChebySolveResult:
    return ChebySolveResult(
        center=z,
        radius=0.0,
        support=(0,),
        t=(1.0,),
        hull_coefficients=(1.0,),
        certificate=None,
    )


def _result_from(wts, w: complex, radius: float, cert) -> ChebySolveResult:
    t_sup = tuple(cert.t[j] for j in cert.support)
    raw = [tj * wts[j] for tj, j in zip(t_sup, cert.support)]
    total = sum(raw)
    hull = tuple(v / total for v in raw)
    return ChebySolveResult(
        center=w,
        radius=radius,
        support=cert.support,
        t=t_sup,
        hull_coefficients=hull,
        certificate=cert,
    )


def _scan_candidates(config: WeightedConfiguration, cands) -> ChebySolveResult:
    """Pick the least-radius candidate that passes the certificate.

    The covering radius at any plane point is at least the optimal radius,
    so scanning in ascending radius order reaches the true center after at
    most the ties; among ties within the relative window the result with
    the lexicographically smallest support wins.
    """
    arr = np.asarray(cands, dtype=complex)
    parr = np.asarray(config.points, dtype=complex)
    warr = np.asarray(config.weights, dtype=float)
    radii = (np.abs(arr[:, None] - parr[None, :]) * warr[None, :]).max(axis=1)
    order = np.argsort(radii, kind="stable")
    best = None
    limit = None
    for idx in order:
        idx = int(idx)
        if limit is not None and radii[idx] > limit:
            break
        cert = cheby_certificate(config, None, complex(arr[idx]))
        if not cert.passed:
            continue
        cand = _result_from(config.weights, complex(arr[idx]), float(radii[idx]), cert)
        if best is None:
            best = cand
            limit = float(radii[idx]) * (1.0 + EPS_REL)
        elif cand.support < best.support:
            best = cand
    if best is None:
        raise NotOrthogonal("no enumerated candidate passed the certificate")
    return best


def _solve(config: WeightedConfiguration) -> ChebySolveResult:
    """Enumerate the candidates the weights call for, then scan them.

    Equal weights: all pair midpoints and all circumcenters of
    non-collinear triples, one of which is the center.  Unequal weights:
    pair candidates split each segment at the weight ratio; triple
    candidates intersect two Apollonius loci and are kept only inside the
    triple's hull, where a three-point support can actually live.
    """
    pts, wts = config.points, config.weights
    if config.n == 1:
        return _single_point_result(pts[0])
    pairs = combinations(range(config.n), 2)
    triples = combinations(range(config.n), 3)
    if all(a == wts[0] for a in wts):
        cands = [0.5 * (pts[i] + pts[j]) for i, j in pairs]
        for i, j, k in triples:
            try:
                cands.append(geom.circumcenter3(pts[i], pts[j], pts[k]))
            except CollinearPoints:
                continue
        return _scan_candidates(config, cands)
    cands = [(wts[i] * pts[i] + wts[j] * pts[j]) / (wts[i] + wts[j]) for i, j in pairs]
    for i, j, k in triples:
        l_ij = geom.apollonius_locus(pts[i], pts[j], wts[i], wts[j])
        l_jk = geom.apollonius_locus(pts[j], pts[k], wts[j], wts[k])
        l_ik = geom.apollonius_locus(pts[i], pts[k], wts[i], wts[k])
        triple = (pts[i], pts[j], pts[k])
        # all three pairings: near-equal weights blow one locus up into a
        # badly conditioned giant circle, and the remaining pair still pins
        # the equalizing point accurately
        for locus_a, locus_b in ((l_ij, l_jk), (l_jk, l_ik), (l_ij, l_ik)):
            for p in geom.intersect_loci(locus_a, locus_b, config.diameter):
                if geom.convex_hull_membership(p, triple) is not None:
                    cands.append(p)
    return _scan_candidates(config, cands)


def solve_chebyshev(points) -> ChebySolveResult:
    """Chebyshev center with unit weights.

    A configuration passed as ``points`` is solved with its own weights.
    """
    return _solve(WeightedConfiguration.of(points))


def solve_chebyshev_weighted(points, weights) -> ChebySolveResult:
    """Weighted Chebyshev center.

    Equal weights give the plain solver's center and support to the bit,
    since both take the same candidates in the same order.
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
    area2 = abs(
        (pts[1] - pts[0]).real * (pts[2] - pts[0]).imag
        - (pts[1] - pts[0]).imag * (pts[2] - pts[0]).real
    )
    if area2 <= EPS_CLASS * scale * scale:
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
