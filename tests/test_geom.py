"""Planar primitive checks: frozen instances plus randomized properties."""

import cmath
import itertools
import math
import re
import time

import numpy as np
import pytest

from planarloc import geom
from planarloc import (
    Circle,
    CoincidentPoints,
    CollinearPoints,
    ConvexOrder,
    DuplicatePoints,
    Line,
    NonConvex,
    NotUnimodular,
    OverlappingSegments,
    EPS_CLASS,
    FtCase,
    TripleClass,
    WeightedConfiguration,
    apollonius_locus,
    circumcenter3,
    convex_hull_membership,
    directed_angle,
    normalize_angle,
    quadrilateral_shape,
    segment_intersection,
    solve_ft4,
    spread,
    unimodular_triple_class,
)

from conftest import convex_quad, distinct_points, unit


def _wrap_gap(a, b):
    # distance between two angles modulo a full turn
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# ---------------------------------------------------------------- angles


def test_directed_angle_quarter_turn():
    assert directed_angle(0, 1, 1j) == pytest.approx(math.pi / 2, abs=1e-12)


def test_directed_angle_half_turn():
    assert directed_angle(0, 1, -1) == pytest.approx(math.pi, abs=1e-12)


def test_directed_angle_keeps_reflex_branch():
    # 5.1 is past pi and must not fold into (-pi, pi]
    assert directed_angle(0, 1, cmath.exp(5.1j)) == pytest.approx(5.1, abs=1e-12)


def test_directed_angle_rejects_degenerate_rays():
    with pytest.raises(CoincidentPoints):
        directed_angle(1j, 1j, 3)
    with pytest.raises(CoincidentPoints):
        directed_angle(0, 2, 0)


def test_normalize_angle_range_and_identity(rng):
    for theta in rng.uniform(-30.0, 30.0, 300):
        out = normalize_angle(float(theta))
        assert 0.0 <= out < 2.0 * math.pi
        assert abs(cmath.exp(1j * out) - cmath.exp(1j * float(theta))) < 1e-9


def test_directed_angle_rotates_first_ray_onto_second(rng):
    for _ in range(300):
        u, v, w = distinct_points(rng, 3, box=4.0, min_gap=0.05)
        theta = directed_angle(u, v, w)
        lhs = (w - u) / abs(w - u)
        rhs = (v - u) / abs(v - u) * cmath.exp(1j * theta)
        assert abs(lhs - rhs) < 1e-9


def test_directed_angle_reversal(rng):
    for _ in range(300):
        u, v, w = distinct_points(rng, 3, box=4.0, min_gap=0.05)
        total = directed_angle(u, v, w) + directed_angle(u, w, v)
        assert _wrap_gap(total, 0.0) < 1e-9


# ------------------------------------------------------- hull membership


def test_hull_membership_midpoint():
    t = convex_hull_membership(0, [1, -1])
    assert t == pytest.approx((0.5, 0.5), abs=1e-9)


def test_hull_membership_reconstructs_interior_point():
    pts = [4 + 1j, 2 - 1j, 3 + (1 + math.sqrt(3)) * 1j, 2 - math.sqrt(3)]
    t = convex_hull_membership(2 + 1j, pts)
    assert t is not None
    assert sum(t) == pytest.approx(1.0, abs=1e-9)
    assert all(ti >= -1e-9 for ti in t)
    rebuilt = sum(ti * z for ti, z in zip(t, pts))
    assert abs(rebuilt - (2 + 1j)) <= 1e-9 * spread(pts)


def test_hull_membership_outside_is_none():
    assert convex_hull_membership(5, [0, 1, 1j]) is None


def test_hull_membership_zero_band_is_relative_to_the_largest_offset():
    # 2e-7 lies outside the band EPS_CLASS * max|v| of zero, so it does
    # not put zero in the hull, and all three offsets lie in one half-plane
    assert convex_hull_membership(0, [1, 1 + 1j, 2e-7]) is None


def test_hull_membership_random_combinations(rng):
    for _ in range(200):
        n = int(rng.integers(3, 8))
        pts = distinct_points(rng, n, box=2.0, min_gap=0.05)
        lam = rng.dirichlet(np.ones(n))
        p = complex(np.sum(lam * np.array(pts)))
        t = convex_hull_membership(p, pts)
        assert t is not None
        assert all(ti >= -1e-9 for ti in t)
        rebuilt = sum(ti * z for ti, z in zip(t, pts))
        assert abs(rebuilt - p) <= 1e-9 * spread(pts)
        far = complex(max(z.real for z in pts) + spread(pts) + 1.0, p.imag)
        assert convex_hull_membership(far, pts) is None
        # each offset rescaled by its own positive factor, all turned by one
        # angle: the decision stands, and a witness has at most three
        # nonzero weights and rebuilds zero within the band
        turn = unit(rng)
        for q in (p, far):
            offsets = [z - q for z in pts]
            moved = [float(rng.uniform(0.1, 10.0)) * turn * v for v in offsets]
            for vs in (offsets, moved):
                t = convex_hull_membership(0j, vs)
                assert (t is None) == (q == far)
                if t is not None:
                    assert sum(ti != 0.0 for ti in t) <= 3
                    residual = abs(sum(ti * v for ti, v in zip(t, vs)))
                    assert residual <= EPS_CLASS * max(map(abs, vs))


def test_hull_membership_at_the_ends_of_the_double_range():
    # the spread of this pair overflows, so a band taken from it would be
    # infinite; the witness must still rebuild zero
    assert convex_hull_membership(0j, [1e308 + 1e308j, -1e308 - 1e308j]) == (0.5, 0.5)
    big = [1.7e308 * z for z in (1, 1j, -1 - 1j)]
    t = convex_hull_membership(0j, big)
    assert t is not None and abs(sum(ti * z for ti, z in zip(t, big))) <= 1e-7 * 1.7e308
    assert convex_hull_membership(-1.7e308, big[:2]) is None
    # products of these moduli underflow to zero
    tiny = [1e-300 * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    assert convex_hull_membership(0j, tiny) == pytest.approx((1 / 3,) * 3, rel=1e-12)


# ----------------------------------------------------------- circumcenter


def test_circumcenter_of_recorded_triple():
    c = circumcenter3(4 + 1j, 1 + 2j, 2 - 1j)
    assert abs(c - (2.25 + 0.75j)) < 1e-12


def test_circumcenter_symmetric_triple():
    assert abs(circumcenter3(1, 1j, -1)) < 1e-12


def test_circumcenter_rejects_collinear():
    with pytest.raises(CollinearPoints):
        circumcenter3(0, 1, 2)


def test_circumcenter_equidistance(rng):
    done = 0
    while done < 200:
        a, b, c = distinct_points(rng, 3, box=4.0, min_gap=0.05)
        diam = max(abs(a - b), abs(b - c), abs(a - c))
        if abs(((b - a).conjugate() * (c - a)).imag) < 0.05 * diam * diam:
            continue
        done += 1
        w = circumcenter3(a, b, c)
        radii = [abs(w - a), abs(w - b), abs(w - c)]
        assert max(radii) - min(radii) <= 1e-8 * diam


# ---------------------------------------------------- segment intersection


def test_segment_intersection_square_diagonals():
    p = segment_intersection(-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j)
    assert abs(p) < 1e-12


def test_segment_intersection_recorded_quadrilateral():
    p = segment_intersection(0, 3 + 1j, 2, 1 + 2j)
    assert abs(p - (12 / 7 + 4j / 7)) < 1e-12


def test_segment_intersection_disjoint_collinear():
    assert segment_intersection(0, 1, 2, 3) is None


def test_segment_intersection_parallel():
    assert segment_intersection(0, 1, 1j, 1 + 1j) is None


def test_segment_intersection_endpoint_touch():
    assert segment_intersection(0, 1, 1, 1 + 1j) == pytest.approx(1 + 0j)


def test_segment_intersection_overlap_rejected():
    with pytest.raises(OverlappingSegments):
        segment_intersection(0, 2, 1, 3)


def _seg_dist(p, a, b):
    ab = b - a
    t = ((p - a).conjugate() * ab).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def test_segment_intersection_point_sits_on_both(rng):
    hits = 0
    while hits < 200:
        a, b, c, d = distinct_points(rng, 4, box=2.0, min_gap=0.05)
        try:
            p = segment_intersection(a, b, c, d)
        except OverlappingSegments:
            continue
        if p is None:
            continue
        hits += 1
        tol = 1e-9 * spread([a, b, c, d])
        assert _seg_dist(p, a, b) <= tol
        assert _seg_dist(p, c, d) <= tol


# ------------------------------------------------------------ quadrilateral


def _diagonal_point_pairs(shape, pts):
    return {frozenset(complex(pts[i]) for i in diag) for diag in shape.diagonals}


def test_quadrilateral_square():
    pts = (-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j)
    shape = quadrilateral_shape(*pts)
    assert isinstance(shape, ConvexOrder)
    assert _diagonal_point_pairs(shape, pts) == {
        frozenset({-1 - 1j, 1 + 1j}),
        frozenset({-1 + 1j, 1 - 1j}),
    }


def test_quadrilateral_contained_vertex():
    shape = quadrilateral_shape(0, 1, 1j, 0.2 + 0.1j)
    assert isinstance(shape, NonConvex)
    assert shape.contained == 3


def test_quadrilateral_recorded_convex_instance():
    pts = (0, 2, 3 + 1j, 1 + 2j)
    shape = quadrilateral_shape(*pts)
    assert isinstance(shape, ConvexOrder)
    assert _diagonal_point_pairs(shape, pts) == {
        frozenset({0j, 3 + 1j}),
        frozenset({2 + 0j, 1 + 2j}),
    }


def test_quadrilateral_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        quadrilateral_shape(0, 1, 0, 1j)


def test_quadrilateral_random_convex(rng):
    for _ in range(100):
        q = convex_quad(rng)
        shape = quadrilateral_shape(*q)
        assert isinstance(shape, ConvexOrder)
        (i1, j1), (i2, j2) = shape.diagonals
        assert segment_intersection(q[i1], q[j1], q[i2], q[j2]) is not None


def test_quadrilateral_random_contained_point(rng):
    done = 0
    while done < 100:
        tri = distinct_points(rng, 3, box=2.0, min_gap=0.3)
        diam = spread(tri)
        if abs(((tri[1] - tri[0]).conjugate() * (tri[2] - tri[0])).imag) < 0.1 * diam * diam:
            continue
        lam = rng.dirichlet((2.0, 2.0, 2.0))
        if float(lam.min()) < 0.05:
            continue
        done += 1
        inner = complex(np.sum(lam * np.array(tri)))
        k = int(rng.integers(0, 4))
        arranged = tri[:k] + [inner] + tri[k:]
        shape = quadrilateral_shape(*arranged)
        assert isinstance(shape, NonConvex)
        assert arranged[shape.contained] == inner


def test_quadrilateral_point_just_outside_an_edge():
    # the median's slack test refuses 0.5-1e-8j, so it is not contained
    pts = (0, 1, 0.5 + 1j, 0.5 - 1e-8j)
    shape = quadrilateral_shape(*pts)
    assert isinstance(shape, ConvexOrder)
    assert solve_ft4(*pts).case is FtCase.DIAGONAL_INTERSECTION


def test_quadrilateral_shape_agrees_with_the_four_point_median(rng):
    # a fourth point 1e-10 to 1e-5 of an edge's length off a triangle's
    # edge, on either side: the shape names what solve_ft4 returns
    done = 0
    while done < 200:
        tri = distinct_points(rng, 3, box=2.0, min_gap=0.3)
        if abs(geom._cross(*tri)) < 0.05 * spread(tri) ** 2:
            continue
        done += 1
        e = int(rng.integers(0, 3))
        a, b = tri[e], tri[(e + 1) % 3]
        side = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-10.0, -5.0)
        p = a + float(rng.uniform(0.1, 0.9)) * (b - a) + side * 1j * (b - a)
        k = int(rng.integers(0, 4))
        pts = tri[:k] + [p] + tri[k:]
        shape = quadrilateral_shape(*pts)
        res = solve_ft4(*pts)
        if isinstance(shape, NonConvex):
            assert (res.case, res.vertex) == (FtCase.HULL_VERTEX, shape.contained)
        else:
            (i0, i2), (i1, i3) = shape.diagonals
            assert res.case is FtCase.DIAGONAL_INTERSECTION
            assert res.location == segment_intersection(pts[i0], pts[i2], pts[i1], pts[i3])


# (direction of the line, parameter of the expected contained point)
COLLINEAR_FOUR = [(1.0, 1.0), (1j, 1.0), (-1.0, 2.5), (cmath.exp(2j), 2.5)]


@pytest.mark.parametrize("turn, expected", COLLINEAR_FOUR)
def test_quadrilateral_four_collinear_points_in_any_order(turn, expected):
    # both middle points are contained; the one nearer the lowest point in
    # (x, y) order is reported, whatever the order of the input
    ts = (0.0, 1.0, 2.5, 4.0)
    for perm in itertools.permutations(ts):
        shape = quadrilateral_shape(*[0.3 - 0.2j + t * turn for t in perm])
        assert isinstance(shape, NonConvex)
        assert perm[shape.contained] == expected


# --------------------------------------------------------------- apollonius


def test_apollonius_equal_weights_is_perpendicular_bisector():
    locus = apollonius_locus(0, 1, 1.0, 1.0)
    assert isinstance(locus, Line)
    assert abs(locus.point - 0.5) < 1e-12
    assert abs((locus.direction.conjugate() * (1 - 0)).real) < 1e-12


def test_apollonius_recorded_circle():
    locus = apollonius_locus(0, 1, 2.0, 1.0)
    assert isinstance(locus, Circle)
    assert abs(locus.center - (-1 / 3)) < 1e-12
    assert locus.radius == pytest.approx(2 / 3, abs=1e-12)


def _locus_samples(locus, diam):
    if isinstance(locus, Circle):
        return [
            locus.center + locus.radius * cmath.exp(2j * math.pi * k / 32)
            for k in range(32)
        ]
    return [
        locus.point + float(t) * locus.direction
        for t in np.linspace(-2.0 * diam, 2.0 * diam, 32)
    ]


def test_apollonius_recorded_unequal_instance_samples():
    locus = apollonius_locus(0, 2j, 1.0, 3.0)
    assert isinstance(locus, Circle)
    for w in _locus_samples(locus, 2.0):
        assert abs(1.0 * abs(w) - 3.0 * abs(w - 2j)) <= 1e-9 * 4.0 * 2.0


def test_apollonius_sampled_ratio(rng):
    for _ in range(100):
        zi, zj = distinct_points(rng, 2, box=2.0, min_gap=0.2)
        wi = float(rng.uniform(0.5, 2.0))
        wj = float(rng.uniform(0.5, 2.0))
        if abs(wi - wj) < 0.1:
            wj = wi  # exact ties take the line branch
        locus = apollonius_locus(zi, zj, wi, wj)
        diam = abs(zi - zj)
        for w in _locus_samples(locus, diam):
            assert abs(wi * abs(zi - w) - wj * abs(zj - w)) <= 1e-9 * (wi + wj) * diam


# ---------------------------------------------------------------- unimodular


def test_unimodular_classes_frozen():
    omega = cmath.exp(2j * math.pi / 3)
    assert unimodular_triple_class(1, 1j, -1) is TripleClass.SUM_ONE
    assert unimodular_triple_class(1, omega, omega * omega) is TripleClass.SUM_BELOW_ONE
    assert (
        unimodular_triple_class(1, cmath.exp(1j * math.pi / 6), cmath.exp(-1j * math.pi / 6))
        is TripleClass.SUM_ABOVE_ONE
    )


def test_unimodular_rejects_off_circle():
    with pytest.raises(NotUnimodular):
        unimodular_triple_class(1, 0.5, 1j)


def _origin_on_chord(a, b):
    # 0 sits on [a, b] iff the endpoints pull in opposite directions
    prod = a.conjugate() * b
    return abs(prod.imag) <= 1e-7 and prod.real <= 1e-7


def test_sum_one_matches_antipodal_chord(rng):
    phases = rng.uniform(0.0, 2.0 * math.pi, (10_000, 3))
    for row in phases:
        z = [cmath.exp(1j * float(p)) for p in row]
        try:
            cls = unimodular_triple_class(*z)
        except DuplicatePoints:
            continue
        chord = any(_origin_on_chord(z[a], z[b]) for a, b in ((0, 1), (0, 2), (1, 2)))
        if chord:
            assert cls is TripleClass.SUM_ONE
        elif cls is TripleClass.SUM_ONE:
            # tolerance bands of the two predicates differ at the margin
            assert abs(abs(sum(z)) - 1.0) <= 1e-6


def test_constructed_antipodal_pairs_classify_sum_one(rng):
    for _ in range(100):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        a = cmath.exp(1j * phi)
        c = cmath.exp(1j * psi)
        if abs(c - a) < 1e-3 or abs(c + a) < 1e-3:
            continue
        assert unimodular_triple_class(a, -a, c) is TripleClass.SUM_ONE
        assert _origin_on_chord(a, -a)


# ---------------------------------------------------------------- similarity


def test_similarity_equivariance(rng):
    done = 0
    while done < 60:
        rho = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = complex(*rng.uniform(-5.0, 5.0, 2))
        f = lambda z: cmath.exp(1j * rho) * z + shift  # noqa: E731
        a, b, c = distinct_points(rng, 3, box=3.0, min_gap=0.2)
        diam = spread([a, b, c])
        if abs(((b - a).conjugate() * (c - a)).imag) < 0.05 * diam * diam:
            continue
        done += 1
        assert _wrap_gap(directed_angle(f(a), f(b), f(c)), directed_angle(a, b, c)) < 1e-9
        assert abs(circumcenter3(f(a), f(b), f(c)) - f(circumcenter3(a, b, c))) <= 1e-8 * diam
        wi, wj = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        if abs(wi - wj) < 0.1:
            wj = wi
        locus = apollonius_locus(a, b, wi, wj)
        mapped = apollonius_locus(f(a), f(b), wi, wj)
        assert type(mapped) is type(locus)
        if isinstance(locus, Circle):
            assert abs(mapped.center - f(locus.center)) <= 1e-9 * diam
            assert mapped.radius == pytest.approx(locus.radius, rel=1e-9)
        p = segment_intersection(a, b, (a + b) / 2 + (b - a) * 1j, (a + b) / 2 - (b - a) * 1j)
        q = segment_intersection(f(a), f(b), f((a + b) / 2 + (b - a) * 1j), f((a + b) / 2 - (b - a) * 1j))
        assert p is not None and q is not None
        assert abs(q - f(p)) <= 1e-9 * diam


# ---------------------------------------------------------------- duplicates


def _pair_loop_decision(points, scale):
    # the reference: every pair, the same exact test as ensure_distinct, and
    # the pair it must name: the smallest j with an earlier point within the
    # band, then the smallest such i; None when no pair is within it
    band = EPS_CLASS * scale
    for j in range(len(points)):
        for i in range(j):
            try:
                if abs(points[i] - points[j]) <= band:
                    return i, j
            except OverflowError:  # a modulus beyond every double: not within the band
                pass
    return None


def _near_on_axis_array(coords, band):
    coords = np.asarray(coords)
    return geom._near_on_axis_array(coords, np.sort(coords), band)


def _both_paths(points):
    # ensure_distinct takes Python passes on a list, array passes on an array
    return [list(points), np.asarray(points, dtype=complex)]


def _check_against_pair_loop(points, scale=None, reference=_pair_loop_decision):
    """ensure_distinct must decide like the pair loop and name the pair it names.

    Checked on both paths: the points handed over as a list and as an array.
    Returns whether a pair is within the band.
    """
    scale = spread(points) if scale is None else scale
    expected = reference(points, scale)
    for handed in _both_paths(points):
        try:
            geom.ensure_distinct(handed, scale)
        except DuplicatePoints as e:
            named = re.fullmatch(r"points (\d+) and (\d+) coincide within tolerance", str(e))
            assert expected, "grid reports a pair the pair loop does not"
            assert tuple(int(t) for t in named.groups()) == expected
        else:
            assert not expected, "grid misses a pair the pair loop finds"
    return expected is not None


@pytest.mark.parametrize("n", [2, 3, 8, 31, 32, 33, 60, 150])
def test_duplicate_decisions_match_the_pair_loop(rng, n):
    found = 0
    for k in range(60):
        offset = complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(0.0, 8.0)
        s = 10.0 ** rng.uniform(-6.0, 6.0)
        xy = rng.uniform(0.0, s, (n, 2))
        if k % 4 == 0:
            xy[:, 0] = 0.5 * s  # one vertical line
        elif k % 4 == 1:
            xy[:, 1] = 0.5 * s  # one horizontal line
        points = [offset + complex(x, y) for x, y in xy]
        if k % 3 != 2:
            # plant a pair just inside or just outside the band
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            direction = {0: 1j, 1: 1.0}.get(k % 4, turn)  # along a line, or anywhere
            factor = 0.999 if k % 2 else 1.001
            points[j] = points[i] + factor * EPS_CLASS * spread(points) * direction
        found += _check_against_pair_loop(points)
    assert 0 < found < 60


@pytest.mark.parametrize("factor", [0.999, 1.0, 1.001])
@pytest.mark.parametrize("offset", [0.0, 1e8 + 1e8j])
def test_duplicate_decisions_on_a_lattice_at_the_band(factor, offset):
    # spacing 1 and a band of 1/factor: neighbours coincide only when the
    # band reaches the spacing (at factor 1 the band is exactly 1.0)
    points = [offset + complex(x, y) for x in range(30) for y in range(30)]
    scale = 1.0 / (factor * EPS_CLASS)
    assert _check_against_pair_loop(points, scale) is (factor <= 1.0)


def test_tiny_scale_takes_the_pair_loop_answer(rng):
    points = [complex(x, y) for x, y in rng.uniform(0.0, 1.0, (100, 2))]
    for handed in _both_paths(points):
        geom.ensure_distinct(handed, 1e-310)
    for handed in _both_paths(points + [points[40]]):
        with pytest.raises(DuplicatePoints, match="points 40 and 100 coincide"):
            geom.ensure_distinct(handed, 1e-310)


def test_overflowing_spread_is_not_a_duplicate():
    points = [1e308, -1e308, 1j]
    for handed in _both_paths(points):
        with pytest.raises(ValueError, match="overflows"):
            geom.ensure_distinct(handed)
    with pytest.raises(ValueError, match="overflows"):
        WeightedConfiguration.of(points)
    # a finite band on the same coordinates sees three distinct points
    for handed in _both_paths(points) + _both_paths(points + [complex(k) for k in range(40)]):
        geom.ensure_distinct(handed, 1.0)
    # and so does a configuration past ARRAY_MIN, on its arrays
    with pytest.raises(ValueError, match="overflows"):
        WeightedConfiguration.of(points + [complex(k) for k in range(40)])


@pytest.mark.parametrize("shape", ["uniform", "vertical line", "horizontal line", "cocircular"])
def test_hundred_thousand_points_validate_in_linear_time(rng, shape):
    n = 100_000
    if shape == "uniform":
        points = [complex(x, y) for x, y in rng.uniform(0.0, 1.0, (n, 2))]
    elif shape == "cocircular":
        # every point survives the screen: see the neighbour check's test
        points = list(np.exp(2j * np.pi * np.arange(n) / n))
    else:
        line = [complex(0.5, (k + 0.5 * rng.random()) / n) for k in rng.permutation(n)]
        points = line if shape == "vertical line" else [z.imag + 0.5j for z in line]
    t0 = time.perf_counter()
    config = WeightedConfiguration.of(points)
    assert time.perf_counter() - t0 < 5.0
    assert config.n == n


def test_one_repeated_point_is_a_duplicate():
    # zero spread: the band and the extent are both zero
    for handed in _both_paths([1 + 2j] * 40):
        with pytest.raises(DuplicatePoints, match="points 0 and 1 coincide"):
            geom.ensure_distinct(handed)


@pytest.mark.parametrize(
    "shape",
    ["uniform", "offset", "vertical line", "lattice", "negative zero", "one point", "overflow"],
)
def test_duplicate_check_returns_the_spread(rng, shape):
    # the spread comes from the duplicate check's own coordinate lists, and
    # must be tolerances.spread bit for bit; an overflowing one still
    # refuses the band it would give
    points = [complex(x, y) for x, y in rng.uniform(-1.0, 1.0, (50, 2))]
    if shape == "offset":
        points = [1e8 - 1e8j + z for z in points]
    elif shape == "vertical line":
        points = [complex(0.25, z.imag) for z in points]
    elif shape == "lattice":
        points = [complex(0.1 * x, 0.3 * y) for x in range(7) for y in range(9)]
    elif shape == "negative zero":
        points = [complex(-0.0, 0.0), complex(0.0, 1.0), complex(-0.0, 2.5), complex(1.5, -0.0)]
    elif shape == "one point":
        points = [complex(-0.0, -0.0)]
    elif shape == "overflow":
        points = [1e308, -1e308, 1j]
    expected = spread(points).hex()
    for handed in _both_paths(points):
        assert geom.ensure_distinct(handed, 1.0).hex() == expected
        if shape == "overflow":
            with pytest.raises(ValueError, match="coincidence band overflows"):
                geom.ensure_distinct(handed)
            continue
        assert geom.ensure_distinct(handed).hex() == expected
    if shape == "overflow":
        with pytest.raises(ValueError, match="coincidence band overflows"):
            WeightedConfiguration.of(points)
        return
    assert WeightedConfiguration.of(points).diameter.hex() == expected


def _block_pair_decision(points, scale):
    # the pair loop's test and pair, a block of columns j at a time in numpy
    # against every row i < j: the same differences and the same hypot,
    # fast enough for 1e4 points
    z = np.asarray(points, dtype=complex)
    band = EPS_CLASS * scale
    k = np.arange(len(z))
    for j0 in range(0, len(z), 128):
        j1 = min(j0 + 128, len(z))
        close = np.abs(z[:j1, None] - z[None, j0:j1]) <= band
        close &= k[:j1, None] < k[None, j0:j1]
        if close.any():
            j = int(np.flatnonzero(close.any(axis=0))[0])
            return int(np.argmax(close[:, j])), j0 + j
    return None


@pytest.mark.parametrize("n", [2, 32, 33, 2000, 10_000])
@pytest.mark.parametrize("offset", [0.0, 1e8 - 3e7j])
def test_screen_keeps_every_pair_within_the_band(rng, n, offset):
    # planted on a diagonal both axis gaps are about 0.71 of the band, so
    # the pair passes the screen whether or not it coincides; along x only
    # the x gap alone decides
    diagonal = cmath.exp(0.25j * math.pi * (1.0 + 2.0 * rng.integers(0, 4)))
    for direction in (diagonal, 1.0):
        for factor in (0.999, 1.001):
            points = [offset + complex(x, y) for x, y in rng.uniform(0.0, 1.0, (n, 2))]
            scale = spread(points)
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            points[j] = points[i] + factor * EPS_CLASS * scale * direction
            found = _check_against_pair_loop(points, scale, _block_pair_decision)
            if n <= 2000:
                assert _pair_loop_decision(points, scale) == _block_pair_decision(points, scale)
            if offset == 0.0:
                assert found is (factor < 1.0)


@pytest.mark.parametrize("direction", [1.0, 1j])
def test_screen_keeps_an_axis_gap_of_exactly_the_band(rng, direction):
    # the band is exactly 1.0; no two coordinates are closer than 2 on
    # either axis, except one pair exactly 1.0 apart along one axis
    n = 200
    xs, ys = 2.0 * rng.permutation(n), 2.0 * rng.permutation(n)
    points = [complex(x, y) for x, y in zip(xs, ys)]
    points.append(points[int(rng.integers(0, n))] + direction)
    assert _check_against_pair_loop(points, 1.0 / EPS_CLASS)


def test_screen_on_overflowing_gaps(rng):
    # the gap from -1e308 to +1e308 overflows to inf: the screen must take
    # it as wide and still keep exact repeats and pairs within the band
    big = [1e308, -1e308, math.nextafter(1e308, 0.0), -math.nextafter(1e308, 0.0)]
    small = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    for flip in (1.0, 1j):
        lattice = [flip * complex(x, y) for x in big for y in small]
        assert not _check_against_pair_loop(lattice, 1.0)
        for factor in (0.999, 1.001):
            near = lattice + [flip * complex(big[2], 1.0 + factor * 1e-7)]
            assert _check_against_pair_loop(near, 1.0) is (factor < 1.0)
        for _ in range(10):
            points = [lattice[int(k)] for k in rng.integers(0, len(lattice), 40)]
            _check_against_pair_loop(points, 1.0)
    # a difference whose modulus overflows is wider than the band, both in
    # the pair loop and after the screen, where only the far pair survives
    far = [1e308 + 1e308j, -5e307 - 5e307j]
    assert not _check_against_pair_loop(far + [0j], 1.0)
    helpers = [complex(1e308, 5.0), complex(7.0, 1e308), complex(-5e307, 9.0), complex(11.0, -5e307)]
    spaced = [complex(10.0 * k + 100.0, 10.0 * k + 300.5) for k in range(40)]
    assert not _check_against_pair_loop(far + helpers + spaced, 1.0)
    assert _check_against_pair_loop(far + helpers + spaced + [far[1]], 1.0)


@pytest.mark.parametrize("shape", ["uniform", "vertical line"])
def test_separated_points_never_reach_the_grid(rng, monkeypatch, shape):
    # a point may pass the screen by chance, next to one neighbour on x and
    # another on y, but never more than a handful
    def bounded(inner):
        def check(pts, band):
            assert len(pts) <= 32, f"{len(pts)} points passed the screen"
            return inner(pts, band)

        return check

    monkeypatch.setattr(geom, "_grid_pair", bounded(geom._grid_pair))
    monkeypatch.setattr(geom, "_array_pair", bounded(geom._array_pair))
    n = 10_000
    if shape == "uniform":
        points = [complex(x, y) for x, y in rng.uniform(0.0, 1.0, (n, 2))]
    else:
        points = [complex(0.5, (k + 0.5 * rng.random()) / n) for k in rng.permutation(n)]
    for handed in _both_paths(points):
        geom.ensure_distinct(handed)


def test_shared_coordinates_go_to_the_grid_whole(rng):
    # on a lattice every coordinate is shared, so neither axis narrows and
    # the grid gets every point; columns of distinct heights still clear on y
    lattice = [complex(x, y) for x in range(20) for y in range(20)]
    xs, ys = [z.real for z in lattice], [z.imag for z in lattice]
    assert geom._screen(xs, ys, EPS_CLASS * spread(lattice)) == range(len(lattice))
    band = EPS_CLASS * spread(lattice)
    assert _near_on_axis_array(np.array(xs), band).all()
    assert _near_on_axis_array(np.array(ys), band).all()
    columns = [complex(k % 20, (k + 0.5 * rng.random()) / 400) for k in range(400)]
    xs, ys = [z.real for z in columns], [z.imag for z in columns]
    assert len(geom._screen(xs, ys, EPS_CLASS * spread(columns))) == 0
    # the array screen: every x next to a zero gap, no y next to a small one
    band = EPS_CLASS * spread(columns)
    assert _near_on_axis_array(np.array(xs), band).all()
    assert _near_on_axis_array(np.array(ys), band) is None
    _check_against_pair_loop(lattice)
    assert _check_against_pair_loop(lattice + [lattice[137]])


@pytest.mark.parametrize("shape", ["cocircular", "lattice"])
@pytest.mark.parametrize("planted", [None, 0.999, 1.001])
def test_array_neighbour_check_where_every_point_survives(rng, shape, planted):
    # every point of these sets sits next to a gap within the band on both
    # axes, so the whole set reaches the neighbour check, on the array path
    n = 10_000
    if shape == "cocircular":
        # a regular polygon: mirror images share an x or a y up to rounding
        points = list(np.exp(2j * np.pi * np.arange(n) / n))
        scale = spread(points)
    else:
        points = [complex(k // 100, k % 100) for k in range(n)]
        scale = 1.0 / (1.001 * EPS_CLASS)  # a band just under the spacing
    band = EPS_CLASS * scale
    xs, ys = np.array(points).real, np.array(points).imag
    assert (_near_on_axis_array(xs, band) & _near_on_axis_array(ys, band)).all()
    if planted is not None:
        i, j = (int(v) for v in rng.choice(n, 2, replace=False))
        turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        points[j] = points[i] + planted * band * turn
    found = _check_against_pair_loop(points, scale, _block_pair_decision)
    if planted != 1.001:  # a pair moved 1.001 bands off may land near a third point
        assert found is (planted == 0.999)


@pytest.mark.parametrize(
    "p, q",
    [
        (9.7 + 14.3j, 10.3 + 13.7j),  # across a corner, down to the right
        (9.7 + 13.7j, 10.3 + 14.3j),  # across a corner, up to the right
        (9.7 + 15j, 10.3 + 15j),  # across a column boundary
        (11 + 13.7j, 11 + 14.3j),  # across a row boundary
        (10.7 + 14.7j, 11.3 + 15.3j),  # within one cell
    ],
    ids=["down-right", "up-right", "right", "up", "same"],
)
def test_neighbour_check_searches_every_neighbouring_cell(p, q):
    # the band is 1.0; the two anchor pairs, near on both axes but apart,
    # survive the screen and put the grid's origin at 0, so the cells are
    # 2 wide with corners at even coordinates, and p, q (0.6 or 0.85
    # apart) lie in the cells named
    anchors = [0j, 0.9 + 0.9j, 40 + 40j, 39.1 + 39.1j]
    for pair in ([p, q], [q, p]):
        assert _check_against_pair_loop(anchors + pair, 1.0 / EPS_CLASS)
    assert not _check_against_pair_loop(anchors + [p, q + 2.0 * (q - p)], 1.0 / EPS_CLASS)


@pytest.mark.parametrize(
    "points, message",
    [
        ([0j, 1 + 1j, complex(math.nan, 0.0)] + [complex(k, 2.0) for k in range(40)],
         r"non-finite coordinate \(nan\+0j\)"),
        ([0j, complex(3.0, math.inf), complex(-math.inf, 1.0)] + [complex(k) for k in range(40)],
         r"non-finite coordinate \(3\+infj\)"),
        ([complex(k, 1.0) for k in range(40)] + [complex(2.0, math.nan)],
         r"non-finite coordinate \(2\+nanj\)"),
        ([1e308, -1e308, 1j] + [complex(k) for k in range(40)],
         r"coincidence band overflows: scale inf is not finite"),
    ],
    ids=["nan", "inf", "nan-imag", "band"],
)
def test_both_paths_refuse_with_the_same_message(points, message):
    messages = []
    for handed in _both_paths(points):
        with pytest.raises(ValueError, match=message) as err:
            geom.ensure_distinct(handed)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
