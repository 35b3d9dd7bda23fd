"""Weighted median solvers: case dispatch, certificates, perturbation rules."""

import cmath
import itertools
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planarloc import (
    UNDETERMINED,
    CertificatePreconditionFailed,
    DuplicatePoints,
    EmptyInput,
    FtCase,
    FtPoint,
    FtSegment,
    LengthMismatch,
    MaxIterationsExceeded,
    MixedSigns,
    NotOrthogonal,
    PlanarLocError,
    VertexPreconditionFailed,
    WeightedConfiguration,
    addition_preserves,
    decomposition_equivalence,
    extend_at_vertex,
    ft_certificate,
    ft_cheby_coincide4,
    ft_objective,
    oracle_ft,
    replacement_preserves,
    scaled_configuration,
    solve_ft3_weighted,
    solve_ft4,
    solve_ft_n,
    spread,
)
import planarloc.theorems
from planarloc import fermat
from planarloc.fermat import ARRAY_MIN

from conftest import (
    FAR_TRIANGLE,
    FAR_WEIGHTS,
    distinct_points,
    interior_instance,
    light_vertex_instance,
    triangle_weights,
    unit,
)

ROOTS3 = tuple(cmath.exp(2j * math.pi * k / 3) for k in range(3))
EQUILATERAL = WeightedConfiguration(ROOTS3, (1.0, 1.0, 1.0))


# ------------------------------------------------------------ three points


def test_equilateral_interior():
    res = solve_ft3_weighted(*ROOTS3, (1.0, 1.0, 1.0))
    assert res.case is FtCase.INTERIOR
    assert isinstance(res.solution, FtPoint)
    assert abs(res.solution.location) <= 1e-9
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.angles == pytest.approx((2 * math.pi / 3, 4 * math.pi / 3), abs=1e-9)
    assert res.certificate is not None and res.certificate.passed


def test_dominant_weight():
    res = solve_ft3_weighted(0, 1, 1j, (1.0, 1.0, 3.0))
    assert res.case is FtCase.DOMINANT_WEIGHT
    assert res.solution.location == 1j
    assert res.objective == pytest.approx(1 + math.sqrt(2), abs=1e-12)


def test_boundary_weights_still_pin_the_heavy_point():
    # alpha3 equals the sum of the others, the heavy point still wins
    res = solve_ft3_weighted(0, 1, 1j, (1.0, 1.0, 2.0))
    assert res.case is FtCase.DOMINANT_WEIGHT
    assert res.solution.location == 1j
    assert res.objective == pytest.approx(1 + math.sqrt(2), abs=1e-12)


def test_unequal_weight_interior():
    s = math.sqrt(2)
    res = solve_ft3_weighted(1, 1j, -(1 + 1j) / s, (1.0, 1.0, s))
    assert res.case is FtCase.INTERIOR
    assert abs(res.solution.location) <= 1e-9
    assert res.angles == pytest.approx((math.pi / 2, 5 * math.pi / 4), abs=1e-9)
    assert res.certificate.residual <= 1e-12


def test_wide_vertex():
    res = solve_ft3_weighted(0, 1, cmath.exp(3j * math.pi / 4), (1.0, 1.0, 1.0))
    assert res.case is FtCase.VERTEX
    assert res.vertex == 0
    assert res.vertex_angle == pytest.approx(3 * math.pi / 4, abs=1e-12)
    assert res.solution.location == 0


def test_collinear_segment():
    res = solve_ft3_weighted(0, 1, 3, (3.0, 1.0, 2.0))
    assert res.case is FtCase.SEGMENT_OF_SOLUTIONS
    assert isinstance(res.solution, FtSegment)
    assert res.solution.start == 0 and res.solution.end == 1
    assert res.objective == pytest.approx(7.0, abs=1e-12)


def test_segment_is_flat_and_strictly_optimal(rng):
    config = WeightedConfiguration((0, 1, 3), (3.0, 1.0, 2.0))
    for _ in range(50):
        t = float(rng.uniform(0.0, 1.0))
        assert ft_objective(config, complex(t)) == pytest.approx(7.0, abs=1e-9)
    assert ft_objective(config, 1.2) == pytest.approx(7.4, abs=1e-12)
    assert ft_objective(config, -0.1) == pytest.approx(7.6, abs=1e-12)
    assert ft_objective(config, 0.5 + 0.3j) > 7.0 + 1e-6


def test_uncertified_triangle_is_refused():
    with pytest.raises(NotOrthogonal):
        solve_ft3_weighted(*FAR_TRIANGLE, FAR_WEIGHTS)


def test_far_triangles_are_certified_or_refused(rng):
    for _ in range(12):
        z = [complex(*p) for p in rng.uniform(0.0, 1.0, (3, 2)) + 1e7]
        try:
            res = solve_ft3_weighted(*z, FAR_WEIGHTS)
        except NotOrthogonal:
            continue
        assert res.certificate.passed


@pytest.mark.parametrize("deficit", [5e-6, 2e-6, 1e-6])
def test_interior_point_next_to_a_vertex(deficit):
    # the angle at 0 falls short of 120 degrees by `deficit` degrees, so the
    # optimum lies inside, 1e-8 to 5e-8 from 0: within the coincidence band,
    # where the certificate spends the free weight at 0, yet not at 0 itself
    z = cmath.exp(1j * math.radians(120.0 - deficit))
    res = solve_ft3_weighted(0, 1, z, (1.0, 1.0, 1.0))
    assert res.case is FtCase.INTERIOR
    assert res.certificate.passed
    assert 0.0 < abs(res.location) < 1e-7
    assert res.angles == pytest.approx((2 * math.pi / 3, 4 * math.pi / 3), abs=1e-9)


# ------------------------------------------------------------- four points


def test_square_center():
    res = solve_ft4(1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
    assert res.case is FtCase.DIAGONAL_INTERSECTION
    assert abs(res.solution.location) <= 1e-12
    assert res.objective == pytest.approx(4 * math.sqrt(2), abs=1e-12)


def test_contained_vertex():
    res = solve_ft4(0, 1, 1j, 0.2 + 0.1j)
    assert res.case is FtCase.HULL_VERTEX
    assert res.solution.location == 0.2 + 0.1j


def test_skew_quadrilateral():
    res = solve_ft4(0, 2, 3 + 1j, 1 + 2j)
    assert res.case is FtCase.DIAGONAL_INTERSECTION
    w = res.solution.location
    assert w == pytest.approx(12 / 7 + 4j / 7, abs=1e-12)
    # the optimum sits on both diagonals
    assert abs((3 + 1j) * w.conjugate() - (3 + 1j).conjugate() * w) <= 1e-9
    d = (1 + 2j) - 2
    assert abs(d * (w - 2).conjugate() - d.conjugate() * (w - 2)) <= 1e-9


# a fourth point 1e-8 below the edge [0, 1]: in convex position, though an
# area band of 1e-7 of the squared spread would count it as contained
NEAR_EDGE = (0, 1, 0.5 + 1j, 0.5 - 1e-8j)


def test_point_just_outside_an_edge_gives_the_diagonal_crossing():
    res = solve_ft4(*NEAR_EDGE)
    assert res.case is FtCase.DIAGONAL_INTERSECTION
    assert res.location == pytest.approx(0.5, abs=1e-12)
    assert res.certificate.passed
    assert isinstance(ft_cheby_coincide4(*NEAR_EDGE), bool)


# (direction of the line, parameter of the expected vertex): both middle
# points are optimal, and the one nearer the lowest point in (x, y) order
# is reported
COLLINEAR_FOUR = [(1.0, 1.0), (1j, 1.0), (-1.0, 2.5), (cmath.exp(2j), 2.5)]


@pytest.mark.parametrize("turn, expected", COLLINEAR_FOUR)
def test_four_collinear_points_in_any_order(turn, expected):
    ts = (0.0, 1.0, 2.5, 4.0)
    for perm in itertools.permutations(ts):
        pts = [0.3 - 0.2j + t * turn for t in perm]
        res = solve_ft4(*pts)
        assert res.case is FtCase.HULL_VERTEX
        assert perm[res.vertex] == expected
        assert res.certificate.passed


# ------------------------------------------------------------ n points


def test_single_point_configuration():
    res = solve_ft_n(WeightedConfiguration((2 + 3j,), (4.0,)))
    assert res.solution.location == 2 + 3j
    assert res.objective == 0.0
    # the iteration returns a lone point itself: its first field lies in the
    # point's band and the point passes its slack test, at any scale,
    # weight, tolerance and iteration budget
    for z in (0j, 3 + 4j, 1e300 * (1 + 1j), -2.5e-300j, 5e-324):
        for a in (1e-300, 1.0, 1e300):
            for tol, max_iter in ((1e-10, 10000), (1e-300, 1), (0.5, 2)):
                config = WeightedConfiguration((z,), (a,))
                res = solve_ft_n(config, tol=tol, max_iter=max_iter)
                assert res.solution.location == z and res.case is FtCase.ITERATIVE
                assert res.objective == 0.0 and res.certificate.passed


def test_fifth_roots():
    pts = tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))
    res = solve_ft_n(WeightedConfiguration(pts, (1.0,) * 5))
    assert abs(res.solution.location) <= 1e-8
    assert res.certificate.residual <= 1e-9


def test_general_solver_agrees_with_triangle_solver(rng):
    for _ in range(200):
        pts = distinct_points(rng, 3, box=2.0, min_gap=5e-2)
        weights = triangle_weights(rng)
        config = WeightedConfiguration(tuple(pts), weights)
        direct = solve_ft3_weighted(*pts, weights)
        iterated = solve_ft_n(config)
        assert iterated.objective == pytest.approx(direct.objective, abs=1e-8)


@pytest.mark.parametrize("n", [5, 20, 200])
def test_vertex_optimum_next_to_the_critical_weight(n):
    # point 0 carries just more than the pull of all the others, so the
    # optimum is point 0 itself; the iteration alone cannot settle the
    # last digits this close to the critical weight, the slack test at the
    # point nearest the iterate can
    gen = np.random.default_rng(0)
    for _ in range(4):
        pts = tuple(complex(*p) for p in gen.uniform(0.0, 1.0, (n, 2)))
        wts = [float(a) for a in gen.uniform(0.5, 2.0, n)]
        z0 = pts[0]
        pull = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], wts[1:])))
        for delta in (1e-12, 1e-9, 1e-6, 1e-3):
            wts[0] = pull * (1.0 + delta)
            res = solve_ft_n(WeightedConfiguration(pts, tuple(wts)))
            assert res.solution.location == z0
            assert res.certificate.passed


MEDIAN_FAMILIES = [
    "uniform",
    "clustered",
    "collinear",
    "near-collinear",
    "cocircular",
    "vertex",
    "offset",
]


def _median_family(gen, family, n):
    return WeightedConfiguration(*_median_data(gen, family, n))


def _median_data(gen, family, n):
    """The raw points and weights of one median family, as tuples."""
    xy = gen.uniform(0.0, 1.0, (n, 2))
    wts = [float(a) for a in gen.uniform(0.5, 2.0, n)]
    if family == "clustered":
        centers = gen.uniform(0.0, 1.0, (3, 2))[gen.integers(0, 3, n)]
        xy = centers + gen.normal(0.0, 0.02, (n, 2))
    elif family in ("collinear", "near-collinear"):
        # one point per slot of width 1/n keeps them apart on the line
        xy[:, 0] = (gen.permutation(n) + gen.uniform(0.2, 0.8, n)) / n
        xy[:, 1] = 0.25  # on a horizontal line, exactly
        if family == "near-collinear":
            xy[:, 1] += 1e-9 * gen.uniform(-1.0, 1.0, n)
    elif family == "cocircular":
        turn = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, n))
        xy = np.stack([turn.real, turn.imag], axis=1)
    pts = [complex(x, y) for x, y in xy]
    if family == "offset":
        pts = [z + 1e4 * (1 + 1j) for z in pts]
    if family == "vertex":
        # point 0 carries a thousandth more than the others' pull
        z0 = pts[0]
        pull = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], wts[1:])))
        wts[0] = pull * (1.0 + 1e-3)
    return tuple(pts), tuple(wts)


@pytest.mark.parametrize("n", [5, 8, 40, 400])
@pytest.mark.parametrize("family", MEDIAN_FAMILIES)
def test_median_families_certify_within_the_oracle_gap(monkeypatch, family, n):
    newton_step = fermat._newton_step
    newton = []  # each Newton step taken, None where it was refused

    def recorded(*args):
        newton.append(newton_step(*args))
        return newton[-1]

    monkeypatch.setattr(fermat, "_newton_step", recorded)
    gen = np.random.default_rng(n)
    for _ in range(3):
        config = _median_family(gen, family, n)
        res = solve_ft_n(config)
        assert ft_certificate(config, res.location, 1e-10).passed
        _, oval = oracle_ft(config)
        # the grid oracle only bounds the optimum from above
        assert res.objective <= oval + 1e-6 * config.diameter * config.total_weight
        if family == "vertex":
            assert res.location == config.points[0]
    if family == "collinear":
        # the Hessian is singular on the line: every iterate is a Weiszfeld step
        assert not any(newton)
    elif family in ("uniform", "offset"):
        assert any(newton)


def test_vertex_result_is_certified_at_the_given_tolerance():
    pts, wts = light_vertex_instance()
    config = WeightedConfiguration(pts, wts)
    res = solve_ft_n(config, tol=1e-6)
    assert res.solution.location == pts[0]
    assert res.certificate.passed
    assert res.certificate.tol == 1e-6 * config.total_weight


def test_median_iteration_is_linear_in_n():
    # 5e4 points: one O(n^2) pass over them would take tens of seconds
    gen = np.random.default_rng(0)
    pts = tuple(complex(*p) for p in gen.uniform(0.0, 1.0, (50_000, 2)))
    wts = tuple(float(a) for a in gen.uniform(0.5, 2.0, 50_000))
    config = WeightedConfiguration(pts, wts)
    t0 = time.perf_counter()
    res = solve_ft_n(config)
    assert time.perf_counter() - t0 < 5.0
    assert res.certificate.passed


# the weighted centroid is point 0 (on the arrays within rounding), and
# point 0 fails its slack test
STEP_OUT = WeightedConfiguration((0, 2, -1, 5j, -5j), (0.1, 1.0, 2.0, 1.0, 1.0))


@pytest.mark.parametrize("passes", ["_LoopPasses", "_ArrayPasses"])
def test_iterate_steps_out_of_a_refused_point(monkeypatch, passes):
    # the modified Weiszfeld step from z_0 lands at (1 - a_0/r) T = -0.9/2.9,
    # with r the other points' pull and T their Weiszfeld average
    if passes == "_ArrayPasses":
        monkeypatch.setattr(fermat, "ARRAY_MIN", 1)
    cls = getattr(fermat, passes)
    field = cls.field
    seen = []

    def spy(self, w):
        seen.append(complex(w))
        return field(self, w)

    monkeypatch.setattr(cls, "field", spy)
    res = solve_ft_n(STEP_OUT)
    assert seen[:2] == [pytest.approx(0, abs=1e-15), pytest.approx(-0.9 / 2.9, abs=1e-12)]
    assert res.location == -1 and res.certificate.passed


BUDGET_FIVE = (0, 1, 3 + 1j, 2 + 2j, 0.5 + 1.7j)


def test_iteration_budget_is_enforced():
    config = WeightedConfiguration(BUDGET_FIVE, (1.0,) * 5)
    with pytest.raises(MaxIterationsExceeded) as info:
        solve_ft_n(config, max_iter=1)
    assert isinstance(info.value.location, complex)
    assert info.value.certificate is not None
    assert str(info.value) == "no certified point: the iteration limit of 1 was reached"


def test_a_stalled_median_says_so():
    # 1e7 out, the Weiszfeld point rounds back to the iterate long before
    # the iteration limit; the refusal names the stall, not the limit
    far = WeightedConfiguration([z + 1e7 * (1 + 1j) for z in BUDGET_FIVE], (1.0,) * 5)
    with pytest.raises(MaxIterationsExceeded) as info:
        solve_ft_n(far)
    assert str(info.value) == (
        "no certified point: the loop stalled after 4 iterations: "
        "the Weiszfeld point rounded back to the iterate"
    )
    err = info.value
    assert not err.certificate.passed
    assert ft_certificate(far, err.location, 1e-10) == err.certificate


def test_certificate_rejects_an_overflowing_candidate():
    # finite candidates whose offsets overflow: in modulus, then outright
    cases = [((0, 1, 1j), 1.7e308 + 1.7e308j), ((1e308, 1e308 + 1j), -1.7e308)]
    for pts, w in cases:
        with pytest.raises(ValueError, match="offset modulus overflows"):
            ft_certificate(WeightedConfiguration.of(pts), w)


def test_certificate_tolerance_is_pinned_at_its_bound():
    # 1e-4 off a median no point is within the band, so the slack is 0 and
    # the pass decision is |forced| <= tol * W: it refuses at a tolerance
    # 1/1.2 of |forced|/W and passes at 1/0.8 of it
    config = WeightedConfiguration((0, 2, 3 + 1j, 1 + 2j, -1 + 1j), (1.0, 2.0, 1.0, 1.5, 1.2))
    w = solve_ft_n(config).location + 1e-4
    forced = abs(ft_certificate(config, w, 0.0).forced)
    total = config.total_weight
    assert ft_certificate(config, w, 0.0).slack == 0.0
    assert not ft_certificate(config, w, forced / (1.2 * total)).passed
    assert ft_certificate(config, w, forced / (0.8 * total)).passed


@pytest.mark.parametrize("max_iter", [0, -1])
def test_iteration_budget_below_one_is_refused(max_iter):
    config = WeightedConfiguration.of((0, 2, 3 + 1j, 1 + 2j, -1 + 1j))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve_ft_n(config, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve_ft_n(WeightedConfiguration.of((1 + 1j,)), max_iter=max_iter)


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1.0, math.nan])
def test_unusable_tolerance_is_refused(tol):
    # an infinite tol passed the vertex z_1, 1.21 short of cancelling its pull
    config = WeightedConfiguration.of(
        (0, 2, 3 + 1j, 1 + 2j, -1 + 1j), (1.0, 2.0, 1.0, 1.5, 1.2)
    )
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_ft_n(config, tol=tol)
    if tol == 0.0:
        assert not ft_certificate(config, 2, tol).passed
    else:
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            ft_certificate(config, 2, tol)


# -------------------------------------------------------------- validation


def test_configuration_validation():
    with pytest.raises(DuplicatePoints):
        WeightedConfiguration((1 + 0j, 1 + 0j), (1.0, 1.0))
    with pytest.raises(EmptyInput):
        WeightedConfiguration((), ())
    with pytest.raises(LengthMismatch):
        WeightedConfiguration((1, 2), (1.0,))
    with pytest.raises(ValueError, match="positive"):
        WeightedConfiguration((1, 2), (1.0, -1.0))


def test_configuration_rejects_non_finite_points():
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            WeightedConfiguration((0, 1, bad), (1.0, 1.0, 1.0))


def test_configuration_accessors():
    config = WeightedConfiguration((0, 3, 3 + 4j), (1.0, 2.0, 3.0))
    assert config.n == 3
    assert config.diameter == pytest.approx(5.0)
    assert config.total_weight == pytest.approx(6.0)


# ------------------------------------------------------------- certificate


def test_certificate_at_the_median():
    cert = ft_certificate(EQUILATERAL, 0)
    assert cert.passed and cert.residual <= 1e-12


def test_certificate_rejects_other_points():
    at_vertex = ft_certificate(EQUILATERAL, 1)
    assert not at_vertex.passed
    # pull from the two far vertices beats the slack of the near one
    assert abs(at_vertex.forced) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert at_vertex.slack == pytest.approx(1.0, abs=1e-12)
    assert not ft_certificate(EQUILATERAL, 0.5).passed


def _on_both_paths(monkeypatch, fn):
    """fn() with the numpy arrays forced at every n, then the Python loops.

    The forced loops fail the test if they reach the arrays or build an
    array backend, so the two runs never compare one path with itself.
    """

    def touched(*args):
        raise AssertionError("the Python loops reached the numpy arrays")

    with monkeypatch.context() as m:
        m.setattr(fermat, "ARRAY_MIN", 0)
        on_arrays = fn()
    with monkeypatch.context() as m:
        m.setattr(fermat, "ARRAY_MIN", sys.maxsize)
        m.setattr(fermat, "_as_arrays", touched)
        m.setattr(WeightedConfiguration, "arrays", property(touched))
        m.setattr(fermat._ArrayPasses, "__init__", touched)
        on_loops = fn()
    return on_arrays, on_loops


@pytest.mark.parametrize("n", [5, ARRAY_MIN - 1, ARRAY_MIN, 200, 2000])
@pytest.mark.parametrize("family", MEDIAN_FAMILIES)
def test_solver_paths_agree(monkeypatch, family, n):
    config = _median_family(np.random.default_rng(n), family, n)

    def solved():
        try:
            return solve_ft_n(config)
        except PlanarLocError as e:
            return type(e)

    on_arrays, on_loops = _on_both_paths(monkeypatch, solved)
    if isinstance(on_arrays, type) or isinstance(on_loops, type):
        assert on_arrays is on_loops  # both refuse, with one error type
        return
    for res in (on_arrays, on_loops):
        assert res.certificate.passed
        assert ft_certificate(config, res.location, 1e-10).passed
    vertices = set(config.points)
    if on_arrays.location in vertices or on_loops.location in vertices:
        assert on_arrays.location == on_loops.location
    assert on_arrays.objective == pytest.approx(on_loops.objective, rel=1e-9)


@pytest.mark.parametrize("family", ["uniform", "clustered", "offset", "near-collinear"])
def test_a_solve_passes_over_each_location_once(monkeypatch, family):
    # a Newton candidate is tested by its own field, which the next iterate
    # takes over, and the Weiszfeld point comes from the field already taken
    config = _median_family(np.random.default_rng(201), family, 200)
    visits = []

    def recording(method):
        def recorded(self, w, *args):
            visits.append(w)
            return method(self, w, *args)

        return recorded

    for cls in (fermat._ArrayPasses, fermat._LoopPasses):
        monkeypatch.setattr(cls, "field", recording(cls.field))

    def solved():
        visits.clear()
        return solve_ft_n(config), list(visits)

    for res, seen in _on_both_paths(monkeypatch, solved):
        assert ft_certificate(config, res.location, 1e-10).passed
        assert len(set(seen)) == len(seen)


@pytest.mark.parametrize(
    "family, moves", [("near-collinear", True), ("collinear", False), ("uniform", False)]
)
def test_a_slow_solve_moves_from_the_loops_to_the_arrays(monkeypatch, family, moves):
    # within 1e-9 of a line the Newton step is refused after all its
    # halvings; on a line the Hessian is singular, which is no sign of a
    # slow solve, and the uniform points take their Newton steps
    config = _median_family(np.random.default_rng(201), family, 200)
    array_field = fermat._ArrayPasses.field
    on_arrays = []

    def recorded(self, w):
        on_arrays.append(w)
        return array_field(self, w)

    monkeypatch.setattr(fermat, "_on_arrays", lambda n: False)  # start on the loops
    monkeypatch.setattr(fermat._ArrayPasses, "field", recorded)
    res = solve_ft_n(config)
    assert ft_certificate(config, res.location, 1e-10).passed
    assert bool(on_arrays) is moves


def _record_backends(monkeypatch):
    """The list that each pass backend built from now on is appended to."""
    built = []
    for cls in (fermat._ArrayPasses, fermat._LoopPasses):

        def recorded(self, config, init=cls.__init__):
            built.append(self)
            init(self, config)

        monkeypatch.setattr(cls, "__init__", recorded)
    return built


def test_a_configuration_caches_no_backend(monkeypatch):
    # one object solved on the arrays, then with the loops forced: a backend
    # kept from the first solve would run the arrays twice
    config = _median_family(np.random.default_rng(200), "uniform", 200)
    built = _record_backends(monkeypatch)
    on_arrays = solve_ft_n(config)
    assert {type(b) for b in built} == {fermat._ArrayPasses}
    built.clear()
    monkeypatch.setattr(fermat, "ARRAY_MIN", sys.maxsize)
    on_loops = solve_ft_n(config)
    assert {type(b) for b in built} == {fermat._LoopPasses}
    assert on_arrays.certificate.passed and on_loops.certificate.passed
    backends = (fermat._ArrayPasses, fermat._LoopPasses)
    assert not any(isinstance(v, backends) for v in vars(config).values())


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, 2000])
def test_the_median_takes_each_backend_from_passes(monkeypatch, n):
    # _passes alone picks the arrays or the loops: every backend built is one
    # it returned, to the solver, the certificate and the objective alike
    config = _median_family(np.random.default_rng(n), "uniform", n)
    passes, loaded_on_arrays = fermat._passes, fermat._loaded_on_arrays
    given, deciders = [], []

    def wrapped_passes(config):
        backend = passes(config)
        given.append((sys._getframe(1).f_code.co_name, backend))
        return backend

    def wrapped_loaded(n):
        deciders.append(sys._getframe(1).f_code.co_name)
        return loaded_on_arrays(n)

    built = _record_backends(monkeypatch)
    monkeypatch.setattr(fermat, "_passes", wrapped_passes)
    monkeypatch.setattr(fermat, "_loaded_on_arrays", wrapped_loaded)
    expected = fermat._ArrayPasses if n >= ARRAY_MIN else fermat._LoopPasses
    res = solve_ft_n(config)
    for fn in (ft_certificate, ft_objective):
        fn(config, res.location)
    callers = [name for name, _ in given]
    assert callers[0] == "solve_ft_n"
    assert callers[-2:] == ["ft_certificate", "ft_objective"]
    assert {"solve_ft_n", "ft_certificate", "ft_objective"} == set(callers)
    assert [type(b) for _, b in given] == [expected] * len(given)
    assert [id(b) for b in built] == [id(b) for _, b in given]
    assert deciders == ["_passes"] * len(given)


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, ARRAY_MIN + 1, 2000])
def test_certificate_paths_agree(monkeypatch, n):
    gen = np.random.default_rng(n)
    pts = tuple(complex(*p) for p in gen.uniform(0.0, 1.0, (n, 2)))
    wts = [float(a) for a in gen.uniform(0.5, 2.0, n)]
    interior = WeightedConfiguration(pts, wts)
    # point 0 outweighs the others' pull there, so it is the optimum and
    # the one free entry of its certificate
    z0 = pts[0]
    wts[0] = 1.5 * abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], wts[1:])))
    vertex = WeightedConfiguration(pts, wts)
    cases = [
        (interior, solve_ft_n(interior).location, True),
        (vertex, z0, True),
        (interior, 0.2 + 0.9j, False),
    ]
    on_arrays, on_loops = _on_both_paths(
        monkeypatch,
        lambda: [(ft_certificate(c, w), ft_objective(c, w)) for c, w, _ in cases],
    )
    for (config, _, passes), (a, obj_a), (b, obj_b) in zip(cases, on_arrays, on_loops):
        scale = config.total_weight

        def close(u, v, s=scale):
            return cmath.isclose(u, v, rel_tol=1e-14, abs_tol=1e-14 * s)

        assert a.passed is b.passed is passes
        assert len(a.d) == len(b.d) == n
        assert all(close(u, v, 1.0) for u, v in zip(a.d, b.d))
        assert (a.gamma is None) is (b.gamma is None) is (config is not vertex)
        if a.gamma is not None:
            assert close(a.gamma, b.gamma, 1.0)
        for field in ("forced", "slack", "residual", "tol"):
            assert close(getattr(a, field), getattr(b, field)), field
        # n positive terms: the two summation orders differ by under n ulps
        assert obj_a == pytest.approx(obj_b, rel=1e-12)

    # offsets that overflow in modulus, then outright, and unusable tolerances
    far = WeightedConfiguration([1e308 + 1e300 * z for z in pts], wts)
    refused = [
        (interior, 1.7e308 + 1.7e308j, None),
        (far, -1.7e308, None),
        (interior, 0.5, -1.0),
        (interior, 0.5, math.nan),
    ]

    def refusals():
        out = []
        for config, w, tol in refused:
            with pytest.raises(ValueError) as info, warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns where Python raises
                ft_certificate(config, w, tol)
            out.append(str(info.value))
        return out

    on_arrays, on_loops = _on_both_paths(monkeypatch, refusals)
    assert on_arrays == on_loops
    expected = ["offset modulus overflows"] * 2 + ["tol must be nonnegative and finite"] * 2
    assert all(m.startswith(e) for m, e in zip(on_arrays, expected)), on_arrays

    def far_objective():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ft_objective(interior, 1.7e308 + 1.7e308j)

    # the objective reports such an offset as the inf its sum is
    assert _on_both_paths(monkeypatch, far_objective) == (math.inf, math.inf)


@pytest.mark.parametrize("n", [ARRAY_MIN, 2000])
@pytest.mark.parametrize("family", ["uniform", "clustered", "offset", "vertex"])
def test_a_solve_on_arrays_builds_no_tuples(monkeypatch, family, n):
    # a configuration built on arrays and its certificate keep the arrays;
    # the per-point tuples are built on first read, equal to a conversion
    # of the raw values, and a twin whose tuples were read first compares
    # and hashes alike
    pts, wts = _median_data(np.random.default_rng(n), family, n)
    config, twin = WeightedConfiguration(pts, wts), WeightedConfiguration(pts, wts)
    twin.points, twin.weights  # read before solving
    res = solve_ft_n(config)
    cert = res.certificate
    assert cert.passed
    assert not {"points", "weights"} & set(vars(config)) and "d" not in vars(cert)
    assert "_arrays" in vars(config) and "_d" in vars(cert)
    twin_res = solve_ft_n(twin)
    twin_res.certificate.d
    assert config.points == tuple(map(complex, pts))
    assert config.weights == tuple(map(float, wts))
    assert type(config.points[0]) is complex and type(config.weights[0]) is float
    assert (config, cert, res) == (twin, twin_res.certificate, twin_res)
    assert hash((config, cert, res)) == hash((twin, twin_res.certificate, twin_res))
    assert repr(config) == repr(twin)
    with monkeypatch.context() as m:
        m.setattr(fermat, "ARRAY_MIN", sys.maxsize)
        on_loops = ft_certificate(WeightedConfiguration(pts, wts), res.location)
    assert type(cert.d) is tuple and len(cert.d) == n
    assert all(
        cmath.isclose(u, v, rel_tol=1e-14, abs_tol=1e-14) for u, v in zip(cert.d, on_loops.d)
    )


# ------------------------------------------------------------ perturbation


def test_addition_at_the_optimum():
    assert addition_preserves(EQUILATERAL, 0, 0, 7.0) is True
    assert addition_preserves(EQUILATERAL, 0, 0.1, 1.0) is False
    with pytest.raises(ValueError):
        addition_preserves(EQUILATERAL, 0, 0, -1.0)


def test_replacement_along_the_ray():
    assert replacement_preserves(EQUILATERAL, 0, 0, 1 + 0j) is True
    assert replacement_preserves(EQUILATERAL, 0, 0, 2 + 0j) is True
    assert replacement_preserves(EQUILATERAL, 0, 0, -1 + 0j) is False
    with pytest.raises(IndexError):
        replacement_preserves(EQUILATERAL, 0, 7, 1 + 0j)


def test_decomposition():
    rotated = WeightedConfiguration(tuple(1j * z for z in ROOTS3), (1.0, 1.0, 1.0))
    balanced = WeightedConfiguration((1, -1), (1.0, 1.0))
    assert decomposition_equivalence(rotated, 0, balanced) is True
    lopsided = WeightedConfiguration((1, 2), (1.0, 1.0))
    assert decomposition_equivalence(rotated, 0, lopsided) is False
    pinned = WeightedConfiguration((0j,), (1.0,))
    assert decomposition_equivalence(rotated, 0, pinned) is True
    with pytest.raises(DuplicatePoints):
        # the unrotated triangle already contains the point 1
        decomposition_equivalence(EQUILATERAL, 0, balanced)


def test_scaling_preserves_the_optimum():
    for scales in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.5), (-1.0, -1.0, -1.0)):
        moved = scaled_configuration(EQUILATERAL, 0, scales)
        assert isinstance(moved, WeightedConfiguration)
        for z, s, orig in zip(moved.points, scales, ROOTS3):
            assert z == pytest.approx(s * orig, abs=1e-12)
        assert ft_certificate(moved, 0).passed
    with pytest.raises(MixedSigns):
        scaled_configuration(EQUILATERAL, 0, (1.0, -1.0, 1.0))
    with pytest.raises(MixedSigns):
        scaled_configuration(EQUILATERAL, 0, (1.0, 0.0, 1.0))
    with pytest.raises(LengthMismatch):
        scaled_configuration(EQUILATERAL, 0, (1.0, 1.0))


def test_replacement_follows_the_certificate():
    # a turn of 1e-8 rad moves the direction sum by a third of 1e-8 of the
    # total weight, past the certificate's tolerance of 1e-9
    tri = WeightedConfiguration((0, 2, 1 + 1.5j), (1.0, 1.0, 1.0))
    w = solve_ft3_weighted(*tri.points, tri.weights).location
    s = w + 2 * (tri.points[0] - w) * cmath.exp(1e-8j)
    moved = WeightedConfiguration((s,) + tri.points[1:], tri.weights)
    assert not ft_certificate(moved, w).passed
    assert replacement_preserves(tri, w, 0, s) is False
    assert replacement_preserves(tri, w, 0, w) is True  # the ray is closed
    for far in (complex(math.inf, 0.0), -1.7e308 * (1 + 1j), complex(math.nan, 0.0)):
        with pytest.raises(ValueError):
            replacement_preserves(tri, w, 0, far)
    with pytest.raises(DuplicatePoints):
        replacement_preserves(tri, w, 0, 2)


def test_replacement_agrees_with_the_moved_certificate():
    # turns log-uniform in 1e-10 to 1e-6 rad straddle the tolerance
    gen = np.random.default_rng(5)
    answers = []
    for n in range(3, 9):
        for _ in range(30):
            config, w = interior_instance(gen, n)
            i = int(gen.integers(0, n))
            theta = float(gen.choice([-1.0, 1.0])) * 10.0 ** gen.uniform(-10.0, -6.0)
            s = w + float(gen.uniform(0.5, 2.0)) * (config.points[i] - w) * cmath.exp(1j * theta)
            points = config.points[:i] + (s,) + config.points[i + 1:]
            expected = ft_certificate(WeightedConfiguration(points, config.weights), w).passed
            assert replacement_preserves(config, w, i, s) is expected, (n, theta)
            answers.append(expected)
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("w", [1.7e308 * (1 + 1j), complex(math.nan, 0.0)])
def test_perturbations_refuse_a_far_or_nan_optimum(w):
    # an offset modulus that overflows, or a NaN, is a ValueError from the
    # certificate each function builds first
    config = WeightedConfiguration((0, 1, 1j), (1.0, 1.0, 1.0))
    calls = [
        lambda: extend_at_vertex(config, w, 1.0),
        lambda: addition_preserves(config, w, 0, 1.0),
        lambda: replacement_preserves(config, w, 0, 0),
        lambda: scaled_configuration(config, w, (1.0, 1.0, 1.0)),
        lambda: decomposition_equivalence(config, w, config),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_perturbation_preconditions():
    with pytest.raises(CertificatePreconditionFailed):
        addition_preserves(EQUILATERAL, 0.5, 0.5, 1.0)
    with pytest.raises(CertificatePreconditionFailed):
        # sitting on a configuration point is outside the smooth regime
        replacement_preserves(WeightedConfiguration((0, 1, 1j), (1.0, 1.0, 3.0)), 1j, 0, 0.5j)
    with pytest.raises(CertificatePreconditionFailed):
        scaled_configuration(EQUILATERAL, 0.5, (1.0, 1.0, 1.0))


def test_perturbations_refuse_a_result_that_fails_its_certificate(monkeypatch):
    # the certificate of the configuration handed back decides: taken 0.25
    # off the optimum for any configuration but the given ones, scaling and
    # extension refuse what they built
    certify = planarloc.theorems.ft_certificate

    def off_for_new(config, w, tol=None):
        given = config is EQUILATERAL or config is VERTEX3
        return certify(config, w if given else w + 0.25, tol)

    monkeypatch.setattr(planarloc.theorems, "ft_certificate", off_for_new)
    with pytest.raises(CertificatePreconditionFailed, match="lost the optimum"):
        scaled_configuration(EQUILATERAL, 0, (2.0, 3.0, 0.5))
    with pytest.raises(VertexPreconditionFailed, match="lost the optimum"):
        extend_at_vertex(VERTEX3, 0, 1.0)


# ---------------------------------------------------------------- extension


VERTEX3 = WeightedConfiguration((0, 1, cmath.exp(3j * math.pi / 4)), (1.0, 1.0, 1.0))


def test_extension_small_weight_produces_a_point():
    z_new = extend_at_vertex(VERTEX3, 0, 1.0)
    assert isinstance(z_new, complex) and z_new != 0
    grown = WeightedConfiguration(VERTEX3.points + (z_new,), (1.0,) * 4)
    assert ft_certificate(grown, 0).passed


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e7])
def test_extension_scales_with_the_configuration(scale):
    # the new point goes half the distance to the nearest other point, so a
    # scaled vertex gets the scaled point, certified at every scale
    config = WeightedConfiguration([scale * z for z in VERTEX3.points], (1.0,) * 3)
    z_new = extend_at_vertex(config, 0, 1.0)
    assert z_new == pytest.approx(scale * extend_at_vertex(VERTEX3, 0, 1.0), rel=1e-12)
    assert abs(z_new) == pytest.approx(0.5 * scale, rel=1e-12)
    grown = WeightedConfiguration(config.points + (z_new,), (1.0,) * 4)
    assert ft_certificate(grown, 0).passed


def test_extension_large_weight_is_impossible():
    assert extend_at_vertex(VERTEX3, 0, 2.5) is None


def test_extension_middle_band_is_undetermined():
    out = extend_at_vertex(VERTEX3, 0, 1.5)
    assert out is UNDETERMINED
    assert repr(UNDETERMINED) == "UNDETERMINED"


def test_extension_preconditions():
    with pytest.raises(VertexPreconditionFailed):
        extend_at_vertex(VERTEX3, 0.25, 1.0)
    with pytest.raises(VertexPreconditionFailed):
        # point 1 is a configuration point but not the optimum
        extend_at_vertex(VERTEX3, 1, 1.0)
    with pytest.raises(ValueError):
        extend_at_vertex(VERTEX3, 0, 0.0)


# -------------------------------------------------------------- invariance


def test_similarity_equivariance(rng):
    for _ in range(60):
        pts = distinct_points(rng, 3, box=2.0, min_gap=5e-2)
        weights = triangle_weights(rng)
        base = solve_ft3_weighted(*pts, weights)
        a = float(rng.uniform(0.3, 2.5)) * unit(rng)
        b = complex(*rng.normal(0.0, 1.0, 2))
        mapped = solve_ft3_weighted(*(a * z + b for z in pts), weights)
        assert mapped.case is base.case
        assert mapped.objective == pytest.approx(abs(a) * base.objective, rel=1e-9)
        if isinstance(base.solution, FtPoint):
            want = a * base.solution.location + b
            assert mapped.solution.location == pytest.approx(want, abs=1e-8 * (1 + abs(want)))


def test_weight_scaling_invariance(rng):
    for _ in range(60):
        pts = distinct_points(rng, 3, box=2.0, min_gap=5e-2)
        weights = triangle_weights(rng)
        lam = float(rng.uniform(0.2, 9.0))
        base = solve_ft3_weighted(*pts, weights)
        scaled = solve_ft3_weighted(*pts, tuple(lam * a for a in weights))
        assert scaled.case is base.case
        assert scaled.objective == pytest.approx(lam * base.objective, rel=1e-9)
        if isinstance(base.solution, FtPoint):
            assert scaled.solution.location == pytest.approx(base.solution.location, abs=1e-8)


SCALE_TRIANGLE = ((0j, 1 + 0j, 1j), (1.0, 1.5, 2.0))
SCALE_MEDIANS = [
    ((0j, 1 + 0j, 1j, -1 + 0.2j, 0.4 - 1j), (1.0, 1.5, 2.0, 1.2, 0.7)),
    (
        tuple(complex(*p) for p in np.random.default_rng(4).uniform(0.0, 1.0, (40, 2))),
        tuple(float(a) for a in np.random.default_rng(5).uniform(0.5, 2.0, 40)),
    ),
]


@pytest.mark.parametrize("factor", [2.0**600, 2.0**-600])
def test_power_of_two_weights_give_the_same_location(factor):
    # the interior triangle's squared weights, the median's Newton sums and
    # the certificate's products used to overflow or underflow here
    pts, wts = SCALE_TRIANGLE
    base = solve_ft3_weighted(*pts, wts)
    scaled = solve_ft3_weighted(*pts, [factor * a for a in wts])
    assert scaled.case is base.case is FtCase.INTERIOR
    assert scaled.location == base.location
    assert scaled.objective == factor * base.objective
    for pts, wts in SCALE_MEDIANS:
        base = solve_ft_n(WeightedConfiguration(pts, wts))
        scaled = solve_ft_n(WeightedConfiguration(pts, [factor * a for a in wts]))
        assert scaled.location == base.location
        assert scaled.certificate.passed
        assert scaled.certificate.forced == factor * base.certificate.forced


@pytest.mark.parametrize("factor", [1e300, 1e-300])
def test_weights_at_the_ends_of_the_range_are_certified(factor):
    pts, wts = SCALE_TRIANGLE
    base = solve_ft3_weighted(*pts, wts)
    scaled = solve_ft3_weighted(*pts, [factor * a for a in wts])
    assert scaled.certificate.passed
    assert scaled.location == pytest.approx(base.location, abs=1e-12)
    for pts, wts in SCALE_MEDIANS:
        base = solve_ft_n(WeightedConfiguration(pts, wts))
        for zoom in (1.0, 1e10):
            # a_i * (z_i - w) overflows at 1e300 times 1e10; the directions do not
            config = WeightedConfiguration([zoom * z for z in pts], [factor * a for a in wts])
            scaled = solve_ft_n(config)
            assert scaled.certificate.passed
            assert scaled.location == pytest.approx(zoom * base.location, abs=1e-9 * zoom)
            assert ft_certificate(config, zoom * base.location).passed


def test_weights_summing_beyond_the_doubles_are_refused():
    # each weight is finite, but a pass bound scaled by their sum would be
    # inf and pass every location
    pts = (0j, 1 + 0j, 1j)
    with pytest.raises(ValueError, match="sum is beyond the doubles"):
        WeightedConfiguration(pts, (1e308,) * 3)
    with pytest.raises(ValueError, match="sum is beyond the doubles"):
        solve_ft3_weighted(*pts, (1e308,) * 3)
    with pytest.raises(ValueError, match="sum is beyond the doubles"):
        WeightedConfiguration([complex(k, k % 7) for k in range(40)], (1e307,) * 40)
    # just below the largest sum a far location is refused, the optimum not
    heavy = WeightedConfiguration(pts, (5e307,) * 3)
    assert not ft_certificate(heavy, 5 + 5j).passed
    assert ft_certificate(heavy, solve_ft3_weighted(*pts, (5e307,) * 3).location).passed


@st.composite
def _interior_triangles(draw):
    coord = st.floats(min_value=0.0, max_value=1.0)
    pts = draw(st.lists(st.builds(complex, coord, coord), min_size=3, max_size=3))
    weight = st.floats(min_value=0.5, max_value=2.0)
    wts = draw(st.lists(weight, min_size=3, max_size=3))
    perm = draw(st.permutations(range(3)))
    return pts, wts, perm


@settings(deadline=None, derandomize=True)
@given(
    case=_interior_triangles(),
    turn=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    zoom=st.floats(min_value=-8.0, max_value=8.0),
    shift=st.floats(min_value=0.0, max_value=4.0),
    heading=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    lift=st.floats(min_value=-6.0, max_value=6.0),
)
def test_interior_triangle_maps_with_the_instance(
    case, turn, zoom, shift, heading, lift
):
    pts, wts, perm = case
    size = spread(pts)
    assume(size >= 1e-2)
    assume(min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= 1e-2 * size)
    base = solve_ft3_weighted(*pts, wts)
    assume(base.case is FtCase.INTERIOR)
    # one similarity, permutation and weight scaling, all at once
    a = 10.0**zoom * cmath.exp(1j * turn)
    s = abs(a) * size
    c = 10.0**shift * s * cmath.exp(1j * heading)
    lam = 10.0**lift
    mapped = solve_ft3_weighted(
        *(a * pts[k] + c for k in perm), tuple(lam * wts[k] for k in perm)
    )
    assert mapped.case is FtCase.INTERIOR
    assert mapped.certificate.passed
    want = a * base.location + c
    assert abs(mapped.location - want) <= 1e-12 * s + 8 * math.ulp(abs(c) + s)


@st.composite
def _median_instances(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    coord = st.floats(min_value=0.0, max_value=1.0)
    pts = draw(st.lists(st.builds(complex, coord, coord), min_size=n, max_size=n))
    weight = st.floats(min_value=0.5, max_value=2.0)
    wts = draw(st.lists(weight, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return pts, wts, perm


@settings(deadline=None, derandomize=True)
@given(
    case=_median_instances(),
    turn=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    zoom=st.floats(min_value=-8.0, max_value=8.0),
    shift=st.floats(min_value=0.0, max_value=4.0),
    heading=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    lift=st.floats(min_value=-6.0, max_value=6.0),
)
def test_median_maps_with_the_instance(case, turn, zoom, shift, heading, lift):
    pts, wts, perm = case
    size = spread(pts)
    assume(size >= 1e-2)
    assume(min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= 1e-2 * size)
    # collinear points with tied weights can have a segment of optima
    assume(any(((q - pts[0]).conjugate() * (pts[1] - pts[0])).imag for q in pts[2:]))
    base = solve_ft_n(WeightedConfiguration(tuple(pts), tuple(wts)))
    # one similarity, permutation and weight scaling, all at once
    a = 10.0**zoom * cmath.exp(1j * turn)
    s = abs(a) * size
    c = 10.0**shift * s * cmath.exp(1j * heading)
    lam = 10.0**lift
    mapped = solve_ft_n(
        WeightedConfiguration(
            tuple(a * pts[k] + c for k in perm), tuple(lam * wts[k] for k in perm)
        )
    )
    assert mapped.certificate.passed
    want = a * base.location + c
    assert abs(mapped.location - want) <= 1e-9 * s + 8 * math.ulp(abs(c) + s)
