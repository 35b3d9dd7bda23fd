"""Grid refinement oracle: settings, frozen values, determinism, trace shape."""

import cmath
import math

import pytest

from planarloc import (
    EmptyInput,
    OracleSettings,
    WeightedConfiguration,
    oracle_cheby,
    oracle_ft,
    solve_chebyshev,
    solve_ft4,
)

ROOTS3 = tuple(cmath.exp(2j * math.pi * k / 3) for k in range(3))

# radius exactly 2 around 2+1j, one interior point
FIVE_SQRT3 = (4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(3)) * 1j, 2 - math.sqrt(3))
# same shape with sqrt(2): four of the points become cocircular and the
# enclosing radius drops well below 2
FIVE_SQRT2 = (4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(2)) * 1j, 2 - math.sqrt(2))


def test_settings_validation():
    s = OracleSettings()
    assert s.resolution == 64 and s.rounds == 24
    with pytest.raises(ValueError, match="resolution must be at least 8"):
        OracleSettings(resolution=7)
    with pytest.raises(ValueError):
        OracleSettings(rounds=0)


def test_single_point_short_circuits():
    config = WeightedConfiguration((3 + 4j,), (2.0,))
    w, val = oracle_ft(config)
    assert w == 3 + 4j and val == 0.0
    wc, r = oracle_cheby([3 + 4j])
    assert wc == 3 + 4j and r == 0.0


def test_empty_input():
    with pytest.raises(EmptyInput):
        oracle_cheby([])


def test_equilateral_median(rng):
    config = WeightedConfiguration(ROOTS3, (1.0, 1.0, 1.0))
    w, val = oracle_ft(config)
    assert abs(w) <= 1e-5
    assert val == pytest.approx(3.0, abs=1e-8)


def test_dominant_weight_pins_the_heavy_point():
    config = WeightedConfiguration((0, 1, 1j), (5.0, 1.0, 1.0))
    w, _ = oracle_ft(config)
    assert abs(w - 0) <= 1e-6


def test_four_point_value_matches_solver():
    pts = (0, 2, 3 + 1j, 1 + 2j)
    config = WeightedConfiguration(pts, (1.0,) * 4)
    _, val = oracle_ft(config)
    res = solve_ft4(*pts)
    assert val == pytest.approx(res.objective, abs=1e-6)
    assert val == pytest.approx(5.398345637668169, abs=1e-6)


def test_enclosing_circle_triangle():
    w, r = oracle_cheby([-1, 1, 0.5j])
    assert abs(w) <= 1e-6
    assert r == pytest.approx(1.0, abs=1e-6)


def test_enclosing_circle_equilateral():
    w, r = oracle_cheby(list(ROOTS3))
    assert abs(w) <= 1e-6
    assert r == pytest.approx(1.0, abs=1e-6)


def test_five_point_radius_crosscheck():
    w, r = oracle_cheby(list(FIVE_SQRT2))
    assert r < 2.0 - 1e-3
    res = solve_chebyshev(list(FIVE_SQRT2))
    assert abs(r - res.radius) <= 1e-5
    assert abs(w - res.center) <= 1e-4


def test_weighted_circle_pair():
    w, r = oracle_cheby([0, 3], [2.0, 1.0])
    assert abs(w - 1.0) <= 1e-6
    assert r == pytest.approx(2.0, abs=1e-6)


def test_runs_are_deterministic():
    config = WeightedConfiguration((0, 2, 3 + 1j, 1 + 2j), (1.0, 2.0, 1.0, 1.5))
    a = oracle_ft(config)
    b = oracle_ft(config)
    assert a == b
    assert oracle_cheby(list(FIVE_SQRT3)) == oracle_cheby(list(FIVE_SQRT3))


def test_trace_improves_monotonically():
    trace = []
    oracle_cheby(list(FIVE_SQRT3), settings=OracleSettings(rounds=16), trace=trace)
    assert len(trace) == 16
    vals = [v for _, v, _ in trace]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    cells = [c for _, _, c in trace]
    assert all(c2 < c1 for c1, c2 in zip(cells, cells[1:]))


def test_trace_steps_stay_inside_the_refined_window():
    trace = []
    settings = OracleSettings(resolution=32, rounds=20)
    config = WeightedConfiguration((0, 2, 3 + 1j, 1 + 2j), (1.0, 1.0, 1.0, 1.0))
    oracle_ft(config, settings=settings, trace=trace)
    for (w_prev, _, _), (w_next, _, cell) in zip(trace, trace[1:]):
        half = cell * (settings.resolution - 1) / 2.0
        assert abs(w_next - w_prev) <= math.sqrt(2.0) * half + 1e-12
