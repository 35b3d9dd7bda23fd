"""Smallest enclosing circle, weighted variant, and the coincidence tests."""

import cmath
import math

import pytest

from planarloc import (
    CollinearPoints,
    DuplicatePoints,
    EmptyInput,
    SinglePoint,
    cheby_certificate,
    chebyshev_radius,
    ft_cheby_coincide3,
    ft_cheby_coincide4,
    oracle_cheby,
    quadrilateral_shape,
    segment_intersection,
    smoothness_order_linf,
    solve_chebyshev,
    solve_chebyshev_weighted,
    spread,
    ConvexOrder,
)

from conftest import convex_quad, distinct_points, parallelogram, unit

ROOTS3 = tuple(cmath.exp(2j * math.pi * k / 3) for k in range(3))
FIVE = (4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(3)) * 1j, 2 - math.sqrt(3))


# ------------------------------------------------------------------ frozen


def test_flat_triangle():
    res = solve_chebyshev([-1, 1, 0.5j])
    assert abs(res.center) <= 1e-12
    assert res.radius == pytest.approx(1.0, abs=1e-12)
    assert res.support == (0, 1)
    assert res.t == pytest.approx((0.5, 0.5), abs=1e-9)
    assert res.hull_coefficients == pytest.approx((0.5, 0.5), abs=1e-9)
    assert res.certificate is not None and res.certificate.passed


def test_equilateral_full_support():
    res = solve_chebyshev(list(ROOTS3))
    assert abs(res.center) <= 1e-12
    assert res.radius == pytest.approx(1.0, abs=1e-12)
    assert res.support == (0, 1, 2)


def test_five_points_one_interior():
    res = solve_chebyshev(list(FIVE))
    assert res.center == pytest.approx(2 + 1j, abs=1e-9)
    assert res.radius == pytest.approx(2.0, abs=1e-9)
    assert res.support == (0, 2, 3, 4)
    assert sum(res.t) == pytest.approx(1.0, abs=1e-9)
    # unit weights make the two coefficient vectors one and the same
    assert res.hull_coefficients == res.t


def test_single_point():
    res = solve_chebyshev([2j])
    assert res.center == 2j and res.radius == 0.0
    assert res.support == (0,)
    assert res.certificate is None


def test_empty_input():
    with pytest.raises(EmptyInput):
        solve_chebyshev([])


def test_weighted_pair_and_triple():
    res = solve_chebyshev_weighted([0, 3], [2.0, 1.0])
    assert res.center == pytest.approx(1.0, abs=1e-12)
    assert res.radius == pytest.approx(2.0, abs=1e-12)
    res = solve_chebyshev_weighted([0, 3, 1 + 0.5j], [2.0, 1.0, 1.0])
    assert res.center == pytest.approx(1.0, abs=1e-9)
    assert res.radius == pytest.approx(2.0, abs=1e-9)


# ------------------------------------------------------------------- radius


def test_radius_evaluation():
    assert chebyshev_radius([0 + 0j], (1.0,), 0) == 0.0
    assert chebyshev_radius(list(FIVE), None, 2 + 1j) == pytest.approx(2.0, abs=1e-12)
    assert chebyshev_radius([0, 3], [2.0, 1.0], 1.0) == pytest.approx(2.0, abs=1e-12)


def test_radius_matches_direct_maximum(rng):
    for _ in range(100):
        pts = distinct_points(rng, int(rng.integers(2, 9)), box=3.0)
        weights = [float(rng.uniform(0.5, 2.0)) for _ in pts]
        w = complex(*rng.normal(0.0, 2.0, 2))
        got = chebyshev_radius(pts, weights, w)
        want = max(a * abs(z - w) for a, z in zip(weights, pts))
        assert got == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------- certificate


def test_certificate_at_center():
    cert = cheby_certificate([-1, 1, 0.5j], None, 0)
    assert cert.passed
    assert cert.support == (0, 1)
    assert cert.t == pytest.approx((0.5, 0.5, 0.0), abs=1e-9)
    assert cert.residual == 0.0


def test_certificate_off_center():
    cert = cheby_certificate([-1, 1, 0.5j], None, 0.1)
    assert not cert.passed
    assert cert.residual == math.inf


def test_certificate_five_points():
    assert cheby_certificate(list(FIVE), None, 2 + 1j).passed


def test_certificate_single_point_rejected():
    with pytest.raises(SinglePoint):
        cheby_certificate([1 + 1j], None, 1 + 1j)


# ------------------------------------------------------------- delegation


def test_constant_weights_reduce_to_plain_circles(rng):
    for _ in range(200):
        n = int(rng.integers(2, 10))
        pts = distinct_points(rng, n, box=3.0)
        plain = solve_chebyshev(pts)
        lifted = solve_chebyshev_weighted(pts, [1.0] * n)
        assert lifted.center == plain.center
        assert lifted.radius == plain.radius
        assert lifted.support == plain.support
        lam = float(rng.uniform(0.3, 4.0))
        scaled = solve_chebyshev_weighted(pts, [lam] * n)
        assert scaled.center == plain.center
        assert scaled.support == plain.support
        assert scaled.t == plain.t
        assert scaled.radius == lam * plain.radius
    # cocircular sets tie many candidates, so the scan order matters there
    for n in (5, 8, 12):
        pts = [1j + 1.5 * cmath.exp(2j * math.pi * k / n) for k in range(n)]
        plain = solve_chebyshev(pts)
        for lam in (1.0, 2.5, 0.3):
            scaled = solve_chebyshev_weighted(pts, [lam] * n)
            assert (scaled.center, scaled.support) == (plain.center, plain.support)
            assert scaled.radius == lam * plain.radius


# --------------------------------------------------------------- structure


def test_support_is_tight_and_rest_is_interior(rng):
    for _ in range(100):
        n = int(rng.integers(3, 12))
        pts = distinct_points(rng, n, box=3.0)
        weights = [float(rng.uniform(0.6, 1.8)) for _ in pts]
        res = solve_chebyshev_weighted(pts, weights)
        for j in res.support:
            d = weights[j] * abs(pts[j] - res.center)
            assert d == pytest.approx(res.radius, abs=1e-8 * max(res.radius, 1.0))
        for j in range(n):
            if j not in res.support:
                assert weights[j] * abs(pts[j] - res.center) < res.radius * (1 - 1e-8)


def test_center_lies_in_the_support_hull(rng):
    for _ in range(100):
        n = int(rng.integers(3, 12))
        pts = distinct_points(rng, n, box=3.0)
        res = solve_chebyshev(pts)
        rebuilt = sum(
            c * pts[j] for c, j in zip(res.hull_coefficients, res.support)
        )
        diam = max(abs(a - b) for a in pts for b in pts)
        assert abs(rebuilt - res.center) <= 1e-8 * max(diam, 1.0)
        assert all(c >= -1e-12 for c in res.hull_coefficients)
        assert sum(res.hull_coefficients) == pytest.approx(1.0, abs=1e-9)


def test_no_probe_beats_the_center(rng):
    pts = distinct_points(rng, 9, box=3.0)
    weights = [float(rng.uniform(0.5, 2.0)) for _ in pts]
    res = solve_chebyshev_weighted(pts, weights)
    for _ in range(500):
        probe = res.center + float(rng.uniform(0.0, 2.0)) * unit(rng)
        assert chebyshev_radius(pts, weights, probe) >= res.radius * (1 - 1e-9)


def test_oracle_agreement(rng):
    for n in (5, 12, 25, 40):
        pts = distinct_points(rng, n, box=4.0)
        res = solve_chebyshev(pts)
        _, r = oracle_cheby(pts)
        diam = max(abs(a - b) for a in pts for b in pts)
        assert abs(res.radius - r) <= 1e-5 * max(diam, 1.0)


def test_center_is_a_ridge_of_the_distance_field(rng):
    pts = distinct_points(rng, 7, box=2.0)
    res = solve_chebyshev(pts)
    assert smoothness_order_linf([z - res.center for z in pts]) >= 2


def test_similarity_equivariance(rng):
    for _ in range(50):
        pts = distinct_points(rng, 6, box=2.0)
        base = solve_chebyshev(pts)
        a = float(rng.uniform(0.3, 2.5)) * unit(rng)
        b = complex(*rng.normal(0.0, 1.0, 2))
        mapped = solve_chebyshev([a * z + b for z in pts])
        assert mapped.support == base.support
        assert mapped.radius == pytest.approx(abs(a) * base.radius, rel=1e-9)
        want = a * base.center + b
        assert mapped.center == pytest.approx(want, abs=1e-9 * (1 + abs(want)))


def test_weight_rescaling(rng):
    for _ in range(50):
        pts = distinct_points(rng, 6, box=2.0)
        weights = [float(rng.uniform(0.5, 2.0)) for _ in pts]
        base = solve_chebyshev_weighted(pts, weights)
        lam = float(rng.uniform(0.2, 6.0))
        scaled = solve_chebyshev_weighted(pts, [lam * a for a in weights])
        diam = max(abs(a - b) for a in pts for b in pts)
        assert abs(scaled.center - base.center) <= 1e-9 * max(diam, 1.0)
        assert scaled.radius == pytest.approx(lam * base.radius, rel=1e-9)


def test_near_equal_weight_pair_regression():
    # two weights agreeing to 1.4e-4 make one Apollonius locus a circle of
    # radius about 9600 on a problem of diameter 3; the solver must still
    # recover the three point support through the well conditioned loci
    pts = [
        2.611165552248526 + 1.8544028960544878j,
        0.25318272097290195 + 0.1670771779992014j,
        1.7525916677232836 + 1.8715840992348631j,
        1.6501563097784033 + 1.2798155226180432j,
        2.159811520118345 + 2.268892894635975j,
        0.8945269573722449 + 2.2676189848164823j,
        0.06725551465633484 + 0.7425792040084797j,
        1.9293488735395328 + 1.2504665659668177j,
        2.7213833600648307 + 1.0279616326030423j,
    ]
    weights = [
        1.6011834745598352,
        1.4029546556385832,
        1.9576502462542245,
        1.1062242812040564,
        1.422404974165401,
        1.1102495158590207,
        1.600952417341818,
        1.1880545485569678,
        1.8588897664562682,
    ]
    res = solve_chebyshev_weighted(pts, weights)
    assert res.support == (0, 6, 8)
    assert res.center == pytest.approx(
        1.4863989841409335 + 0.9619838942741135j, abs=1e-9
    )
    assert res.radius == pytest.approx(2.29897358294101, abs=1e-9)
    assert res.certificate.passed


def test_nearly_tied_weights_stay_solvable(rng):
    # weight gaps from 1e-3 down to 1e-6 stress the locus intersections
    for _ in range(60):
        n = int(rng.integers(3, 9))
        pts = distinct_points(rng, n, box=3.0, min_gap=5e-2)
        base = float(rng.uniform(0.8, 1.6))
        gap = 10.0 ** float(rng.uniform(-6.0, -3.0))
        weights = [base + gap * float(rng.integers(0, 3)) for _ in range(n)]
        res = solve_chebyshev_weighted(pts, weights)
        assert res.certificate.passed
        _, oradius = oracle_cheby(pts, weights)
        diam = max(abs(a - b) for a in pts for b in pts)
        assert abs(res.radius - oradius) <= 1e-5 * max(diam, 1.0)


# -------------------------------------------------------------- coincidence


def test_coincide3_on_equilaterals():
    assert ft_cheby_coincide3(*ROOTS3) is True
    assert ft_cheby_coincide3(0, 4, 2 + 2 * math.sqrt(3) * 1j) is True
    assert ft_cheby_coincide3(0, 1, 1j) is False


def test_coincide3_degenerate_inputs():
    with pytest.raises(CollinearPoints):
        ft_cheby_coincide3(0, 1, 2)
    with pytest.raises(DuplicatePoints):
        ft_cheby_coincide3(0, 0, 1j)


def test_coincide3_similarity_images(rng):
    for _ in range(30):
        a = float(rng.uniform(0.2, 3.0)) * unit(rng)
        b = complex(*rng.normal(0.0, 2.0, 2))
        assert ft_cheby_coincide3(*(a * z + b for z in ROOTS3)) is True
    for _ in range(200):
        pts = distinct_points(rng, 3, box=2.0, min_gap=5e-2)
        sides = sorted(
            (abs(pts[0] - pts[1]), abs(pts[1] - pts[2]), abs(pts[2] - pts[0]))
        )
        # skip near equilateral or near collinear draws
        if sides[2] - sides[0] < 0.05 * sides[2]:
            continue
        area = abs(
            ((pts[1] - pts[0]).conjugate() * (pts[2] - pts[0])).imag
        )
        if area < 0.05 * sides[2] ** 2:
            continue
        assert ft_cheby_coincide3(*pts) is False


def _diagonal_balance(z1, z2, z3, z4):
    """Some diagonal pair is equidistant from the crossing and farthest."""
    pts = (z1, z2, z3, z4)
    shape = quadrilateral_shape(*pts)
    assert isinstance(shape, ConvexOrder)
    (i1, j1), (i2, j2) = shape.diagonals
    w = segment_intersection(pts[i1], pts[j1], pts[i2], pts[j2])
    band = 1e-7 * spread(pts)
    dists = [abs(z - w) for z in pts]
    for i, j in shape.diagonals:
        k, m = (x for x in range(4) if x not in (i, j))
        if abs(dists[i] - dists[j]) <= band and min(dists[i], dists[j]) >= max(
            dists[k], dists[m]
        ) - band:
            return True
    return False


def test_coincide4_frozen():
    assert ft_cheby_coincide4(0, 2, 3 + 1j, 1 + 1j) is True
    assert ft_cheby_coincide4(1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j) is True
    # concave kite: the solvers meet at the reflex vertex, where the
    # enclosing circle is held by the horizontal pair alone
    assert ft_cheby_coincide4(0, 1, 0.2j, -1) is True


def test_coincide4_parallelograms(rng):
    for _ in range(50):
        assert ft_cheby_coincide4(*parallelogram(rng)) is True


def test_coincide4_matches_the_diagonal_balance(rng):
    for _ in range(200):
        quad = convex_quad(rng)
        assert ft_cheby_coincide4(*quad) is _diagonal_balance(*quad)
