"""Smallest enclosing circle, weighted variant, and the coincidence tests."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planarloc.chebyshev
from planarloc import (
    CollinearPoints,
    DuplicatePoints,
    EmptyInput,
    NotOrthogonal,
    WeightedConfiguration,
    cheby_certificate,
    chebyshev_radius,
    is_bj_orthogonal_linf,
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
from planarloc.chebyshev import _candidates
from planarloc.tolerances import EPS_REL

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
    assert res.t == (1.0,) and res.hull_coefficients == (1.0,)
    assert res.certificate.passed and res.certificate.t == (1.0,)


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


@pytest.mark.parametrize(
    "c, passed", [(0, True), (1e-8j, True), (1e-6j, False), (3e-4j, False), (4.9e-4j, False)]
)
def test_certificate_refuses_a_gap_just_past_a_half_turn(c, passed):
    # seen from c above the segment [-1, 1], the two directions leave a
    # widest gap of pi plus about 2|c|, inside the band of EPS_CLASS only
    # for the first two centers
    assert cheby_certificate((-1, 1), None, c).passed is passed


def test_certificate_five_points():
    assert cheby_certificate(list(FIVE), None, 2 + 1j).passed


def test_certificate_at_a_single_point():
    # x = 0 at the point itself, and the zero vector is orthogonal to y
    cert = cheby_certificate([1 + 1j], None, 1 + 1j)
    assert cert.passed and cert.support == (0,) and cert.t == (1.0,)
    assert cert.residual == 0.0
    for w in (1 + 1.5j, 1e-300j, -4.0):
        cert = cheby_certificate([1 + 1j], (2.5,), w)
        assert not cert.passed and cert.residual == math.inf


# finite candidates whose offsets overflow: in modulus, then outright
OVERFLOWING = [([0, 1], 1.7e308 + 1.7e308j), ([1e308, 1e308 + 1j], -1.7e308)]


@pytest.mark.parametrize("pts, w", OVERFLOWING)
def test_overflowing_offsets_are_value_errors(pts, w):
    with pytest.raises(ValueError, match="offset modulus overflows"):
        cheby_certificate(pts, None, w)
    with pytest.raises(ValueError, match="offset modulus overflows"):
        chebyshev_radius(pts, None, w)


def test_center_is_the_linf_orthogonality(rng):
    # the paper's duality: c is the weighted Chebyshev center exactly when
    # (a_i (z_i - c)) is Birkhoff-James orthogonal to (a_i) in the max norm
    for _ in range(40):
        n = int(rng.integers(2, 12))
        pts = distinct_points(rng, n, box=3.0)
        weights = [float(rng.uniform(0.5, 2.0)) for _ in pts]
        config = WeightedConfiguration.of(pts, weights)
        res = solve_chebyshev_weighted(config, None)
        top = max(weights)
        y = [a / top for a in weights]
        for step in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
            w = res.center + step * res.radius * unit(rng)
            cert = cheby_certificate(config, None, w)
            raw = is_bj_orthogonal_linf([a * (z - w) for z, a in zip(pts, weights)], weights)
            assert (raw is not None) == cert.passed
            if step <= 1e-9:
                assert cert.passed
            # with the certificate's own normalization the two are one
            # computation, field for field
            same = is_bj_orthogonal_linf([b * (z - w) for z, b in zip(config.points, y)], y)
            assert same == (cert if cert.passed else None)


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
    # cocircular sets hold every point on the circle, so every point is a
    # possible basis member there
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


def _solve(pts, wts):
    return solve_chebyshev(pts) if wts is None else solve_chebyshev_weighted(pts, wts)


def test_far_offset_circles_certify():
    # far from the origin a circumcenter built in absolute coordinates
    # loses its digits through |b|^2 - |a|^2; every set must still certify
    gen = np.random.default_rng(0)
    sweeps = [(6, 1e5, False, 200)]
    sweeps += [(8, r, w, 100) for r in (1e6, 1e7, 1e8) for w in (False, True)]
    for n, reach, weighted, count in sweeps:
        for _ in range(count):
            offset = complex(*gen.uniform(-reach, reach, 2))
            xy = gen.uniform(-0.5, 0.5, (n, 2))
            pts = [offset + complex(x, y) for x, y in xy]
            wts = [float(a) for a in gen.uniform(0.5, 2.0, n)] if weighted else None
            assert _solve(pts, wts).certificate.passed, (n, reach, weighted)


@st.composite
def _similarity_cases(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    coord = st.floats(min_value=0.0, max_value=1.0)
    pts = draw(st.lists(st.builds(complex, coord, coord), min_size=n, max_size=n))
    weight = st.floats(min_value=0.5, max_value=2.0)
    wts = draw(st.lists(weight, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return pts, wts, perm


@settings(deadline=None, derandomize=True)
@given(
    case=_similarity_cases(),
    shift=st.floats(min_value=0.0, max_value=8.0),
    turn=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    zoom=st.floats(min_value=-8.0, max_value=8.0),
    lift=st.floats(min_value=-6.0, max_value=6.0),
)
def test_covering_circle_maps_with_the_instance(case, shift, turn, zoom, lift):
    pts, wts, perm = case
    size = spread(pts)
    assume(size >= 1e-2)
    assume(min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= 1e-3 * size)
    base = solve_chebyshev_weighted(pts, wts)
    assert base.certificate.passed
    top = max(wts)

    def check(res, a, b, lam=1.0, support=base.support):
        s = abs(a) * size
        assert res.certificate.passed
        assert res.support == support
        assert abs(res.center - (a * base.center + b)) <= 1e-9 * s + 8 * math.ulp(
            abs(b) + s
        )
        want = lam * abs(a) * base.radius
        assert abs(res.radius - want) <= 1e-9 * want + lam * top * 8 * math.ulp(
            abs(b) + s
        )

    b = 10.0**shift * size * cmath.exp(1j * turn)
    check(solve_chebyshev_weighted([z + b for z in pts], wts), 1.0, b)
    a = 10.0**zoom * cmath.exp(1j * turn)
    check(solve_chebyshev_weighted([a * z for z in pts], wts), a, 0j)
    moved = solve_chebyshev_weighted([pts[k] for k in perm], [wts[k] for k in perm])
    inverse = {j: k for k, j in enumerate(perm)}
    check(moved, 1.0, 0j, support=tuple(sorted(inverse[j] for j in base.support)))
    lam = 10.0**lift
    check(solve_chebyshev_weighted(pts, [lam * w for w in wts]), 1.0, 0j, lam=lam)


def _degenerate_points(gen, family, n):
    if family == "roots":
        return [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    if family == "near-roots":
        # a hair off one circle: the farthest point can sit just beyond
        # the radius while the radius grows too little to show in doubles
        return [
            (1 + 1e-8 * gen.uniform(-1.0, 1.0)) * cmath.exp(2j * math.pi * k / n)
            for k in gen.permutation(n)
        ]
    if family == "grid":
        cells = gen.choice(16, n, replace=False)
        return [complex(int(c) % 4, int(c) // 4) for c in cells]
    if family == "line":
        t = gen.uniform(0.0, 1.0, n)
        off = gen.uniform(-1e-4, 1e-4, n)
        return [complex(ti, 0.3 * ti) + oi * (-0.3 + 1j) for ti, oi in zip(t, off)]
    hubs = [0j, 1 + 0.5j]
    return [hubs[k % 2] + complex(*gen.uniform(0.0, 1e-3, 2)) for k in range(n)]


def _degenerate_weights(gen, kind, n):
    if kind == "unit":
        return None
    if kind == "equal":
        return [2.5] * n
    if kind == "random":
        return [float(a) for a in gen.uniform(0.5, 2.0, n)]
    return [float(a) for a in 1.0 + gen.uniform(-1e-4, 1e-4, n)]


def test_degenerate_circles_reach_the_least_candidate_radius(rng, monkeypatch):
    # the exchange solves at most four points at a time; the enumeration
    # over all of them must find no candidate that covers with a smaller
    # radius
    sizes = []

    def counted(points, weights, idx):
        sizes.append(len(idx))
        return _candidates(points, weights, idx)

    monkeypatch.setattr(planarloc.chebyshev, "_candidates", counted)
    for family in ("roots", "near-roots", "grid", "line", "clusters"):
        for kind in ("unit", "equal", "random", "near-equal"):
            for _ in range(6):
                n = int(rng.integers(3, 11))
                pts = _degenerate_points(rng, family, n)
                wts = _degenerate_weights(rng, kind, n)
                res = _solve(pts, wts)
                assert res.certificate.passed, (family, kind, n)
                arr = np.asarray(pts)
                warr = np.ones(n) if wts is None else np.asarray(wts)
                cands = np.asarray(_candidates(arr, warr, range(n)))
                least = (warr * np.abs(arr - cands[:, None])).max(axis=1).min()
                assert abs(res.radius - least) <= EPS_REL * least, (family, kind, n)
    assert max(sizes) <= 4


def test_a_wrong_exchange_center_is_refused(monkeypatch):
    # the solver's own check of the certificate stops a center that the
    # exchange got wrong
    def shifted(points, weights, idx):
        return [p + 0.3 for p in _candidates(points, weights, idx)]

    monkeypatch.setattr(planarloc.chebyshev, "_candidates", shifted)
    with pytest.raises(NotOrthogonal, match="failed its certificate"):
        solve_chebyshev([-1, 1, 0.5j, 2 + 1j])


def test_all_but_collinear_triple_regression():
    # the triple's equalizing points overflow to nan on the way and are
    # dropped; the pair on the vertical line centers the circle
    pts = [0.5j, 1.6317307479323442e-132 + 0j, 1j]
    assert all(cmath.isfinite(c) for c in _candidates(pts, [1.0, 1.0, 2.0], range(3)))
    res = solve_chebyshev_weighted(pts, [1.0, 1.0, 2.0])
    assert res.certificate.passed
    assert res.center == pytest.approx(2j / 3, abs=1e-12)
    assert res.radius == pytest.approx(2 / 3, rel=1e-12)


def test_two_thousand_weighted_points_in_little_memory(rng):
    xy = rng.uniform(0.0, 1.0, (2000, 2))
    config = WeightedConfiguration(
        tuple(complex(x, y) for x, y in xy),
        tuple(float(a) for a in rng.uniform(0.5, 2.0, 2000)),
    )
    tracemalloc.start()
    try:
        res = solve_chebyshev_weighted(config, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certificate.passed
    assert peak < 4 * 2**20


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
