"""One validation per instance: a WeightedConfiguration shared by everything.

The configuration is the only code that checks a point set, so the
duplicate check runs once per solve, whether the solve starts
from the command line or from the library, and a configuration handed to
the covering-circle functions answers exactly like the raw points.  A
closed-form solve certifies its answer once and nothing else.
"""

import cmath
import functools
import json
import math
import operator
import sys

import pytest

import planarloc.chebyshev
import planarloc.fermat
import planarloc.geom
from planarloc import (
    DuplicatePoints,
    EmptyInput,
    LengthMismatch,
    FtCase,
    WeightedConfiguration,
    cheby_certificate,
    chebyshev_radius,
    ft_cheby_coincide4,
    solve_chebyshev,
    solve_chebyshev_weighted,
    solve_ft3_weighted,
    solve_ft4,
    solve_ft_n,
)
from planarloc.fermat import ARRAY_MIN
from planarloc.cli import main

from conftest import distinct_points

SIX = [0j, 2 + 0j, 3 + 1j, 1 + 2j, -1 + 1j, 0.5 + 0.7j]
SIX_W = [1.0, 2.0, 1.0, 1.5, 1.2, 0.8]
# past fermat.ARRAY_MIN: validated on arrays, since numpy is loaded here
FORTY = [complex(k % 8, k // 8 + 0.1 * k) for k in range(40)]
FORTY_W = [1.0 + 0.01 * k for k in range(40)]


@pytest.fixture
def distinct_calls(monkeypatch):
    """Count the calls of geom.ensure_distinct, the duplicate check."""
    calls = []
    inner = planarloc.geom.ensure_distinct

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(planarloc.geom, "ensure_distinct", counted)
    return calls


def _problem(tmp_path, kind, points, weights=None):
    payload = {"kind": kind, "points": [[z.real, z.imag] for z in points]}
    if weights is not None:
        payload["weights"] = weights
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "kind, points, weights",
    [
        ("fermat", SIX, SIX_W),
        ("chebyshev", SIX, None),
        ("chebyshev", SIX, SIX_W),
        ("fermat", FORTY, FORTY_W),
    ],
    ids=["fermat", "chebyshev", "chebyshev-weighted", "fermat-forty"],
)
def test_cli_solve_validates_once(tmp_path, capsys, distinct_calls, kind, points, weights):
    path = _problem(tmp_path, kind, points, weights)
    assert main(["solve", path]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["passed"] is True
    assert len(distinct_calls) == 1


def test_cli_certify_validates_once(tmp_path, capsys, distinct_calls):
    path = _problem(tmp_path, "fermat", SIX, SIX_W)
    assert main(["certify", path, "--at", "1,1"]) == 2  # not the median
    assert json.loads(capsys.readouterr().out)["certificate"]["passed"] is False
    assert len(distinct_calls) == 1


def test_cocircular_circle_validates_once(distinct_calls, monkeypatch):
    # twelve cocircular points are all tight; the exchange still ends in
    # one certificate, against the one configuration
    certified = []
    inner = planarloc.chebyshev.cheby_certificate

    def counted(*args, **kwargs):
        certified.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(planarloc.chebyshev, "cheby_certificate", counted)
    pts = [3 + 1j + 2 * cmath.exp(2j * math.pi * k / 12) for k in range(12)]
    result = solve_chebyshev(pts)
    assert len(distinct_calls) == 1
    assert len(certified) == 1
    assert result.radius == pytest.approx(2.0)
    assert result.certificate.passed


def test_four_point_median_validates_once(distinct_calls):
    # the shape classifier takes the configuration's checked points
    result = solve_ft4(0, 2, 3 + 1j, 1 + 1j)
    assert len(distinct_calls) == 1
    assert result.certificate.passed
    assert ft_cheby_coincide4(0, 2, 3 + 1j, 1 + 1j) is True
    assert len(distinct_calls) == 3  # its own configuration and solve_ft4's


@pytest.mark.parametrize(
    "points, weights",
    [
        (tuple(cmath.exp(2j * math.pi * k / 3) for k in range(3)), (1.0, 1.0, 1.0)),
        ((0, 2, 1 + 1.5j), (1.0, 1.3, 0.8)),
    ],
    ids=["equilateral", "weighted"],
)
def test_interior_triangle_certifies_once(monkeypatch, points, weights):
    # the interior point is a closed form, so only the answer is certified
    certified = []
    inner = planarloc.fermat.ft_certificate

    def counted(*args, **kwargs):
        certified.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(planarloc.fermat, "ft_certificate", counted)
    result = solve_ft3_weighted(*points, weights)
    assert result.case is FtCase.INTERIOR
    assert result.certificate.passed
    assert len(certified) == 1


def test_configuration_answers_like_raw_points(rng):
    for _ in range(40):
        n = int(rng.integers(2, 8))
        pts = distinct_points(rng, n, box=3.0)
        wts = [float(a) for a in rng.uniform(0.5, 2.0, n)]
        plain = WeightedConfiguration.of(pts)
        weighted = WeightedConfiguration.of(pts, wts)
        w = complex(*rng.uniform(-3.0, 3.0, 2))
        assert solve_chebyshev(plain) == solve_chebyshev(pts)
        assert solve_chebyshev_weighted(weighted, None) == solve_chebyshev_weighted(
            pts, wts
        )
        assert cheby_certificate(plain, None, w) == cheby_certificate(pts, None, w)
        assert cheby_certificate(weighted, None, w) == cheby_certificate(pts, wts, w)
        assert chebyshev_radius(plain, None, w) == chebyshev_radius(pts, None, w)
        assert chebyshev_radius(weighted, None, w) == chebyshev_radius(pts, wts, w)


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, 2000])
def test_large_configuration_converts_once(rng, monkeypatch, n):
    # from ARRAY_MIN points on, with numpy loaded, the duplicate check gets
    # the arrays that config.arrays returns, and the solve, its certificate
    # and its objective convert nothing again
    handed, converted = [], []
    check, convert = planarloc.geom.ensure_distinct, planarloc.fermat._as_arrays

    def spy_check(points, scale=None):
        handed.append(points)
        return check(points, scale)

    def spy_convert(points, weights):
        converted.append(1)
        return convert(points, weights)

    monkeypatch.setattr(planarloc.geom, "ensure_distinct", spy_check)
    monkeypatch.setattr(planarloc.fermat, "_as_arrays", spy_convert)
    pts = distinct_points(rng, n, box=3.0, min_gap=1e-4)
    config = WeightedConfiguration.of(pts, rng.uniform(0.5, 2.0, n))
    assert len(handed) == 1
    if n < ARRAY_MIN:
        assert handed[0] == config.points and not converted
        return
    arrays = config.arrays
    assert handed[0] is arrays[0] and len(converted) == 1
    assert not (arrays[0].flags.writeable or arrays[1].flags.writeable)
    assert arrays[0].tolist() == list(config.points)
    assert arrays[1].tolist() == list(config.weights)
    result = solve_ft_n(config)
    assert result.certificate.passed
    assert config.arrays[0] is arrays[0] and config.arrays[1] is arrays[1]
    assert len(handed) == 1 and len(converted) == 1


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, 2000])
def test_total_weight_adds_left_to_right(rng, monkeypatch, n):
    # Python 3.12 made sum of floats compensated; both paths add in order
    pts = [complex(k % 50, k // 50) for k in range(n)]
    wts = [float(a) for a in rng.uniform(0.5, 2.0, n)]
    total = functools.reduce(operator.add, wts)
    assert WeightedConfiguration(pts, wts).total_weight == total
    monkeypatch.setattr(planarloc.fermat, "ARRAY_MIN", sys.maxsize)  # the tuples only
    assert WeightedConfiguration(pts, wts).total_weight == total


def test_configuration_passes_through_unchanged(distinct_calls):
    config = WeightedConfiguration(SIX, SIX_W)
    assert len(distinct_calls) == 1
    assert WeightedConfiguration.of(config) is config
    assert len(distinct_calls) == 1
    with pytest.raises(ValueError, match="carries its own weights"):
        WeightedConfiguration.of(config, SIX_W)


def _put(seq, value, at=5):
    return [*seq[:at], value, *seq[at + 1:]]


# how each input is spoiled, and the error both sides of ARRAY_MIN raise
REFUSALS = {
    "none-point": (lambda p, w: (_put(p, None), w), TypeError),
    "string-point": (lambda p, w: (_put(p, "abc"), w), ValueError),
    "huge-int-point": (lambda p, w: (_put(p, 10**400), w), OverflowError),
    "nan-point": (lambda p, w: (_put(p, complex(math.nan, 1.0)), w), ValueError),
    "inf-point": (lambda p, w: (_put(p, complex(1.0, math.inf)), w), ValueError),
    "pair-point": (lambda p, w: (_put(p, [1.0, 2.0]), w), TypeError),
    "duplicate-points": (lambda p, w: (_put(p, p[3]), w), DuplicatePoints),
    "two-duplicate-pairs": (lambda p, w: (_put(_put(p, p[3]), p[0], at=30), w), DuplicatePoints),
    "zero-weight": (lambda p, w: (p, _put(w, 0.0)), ValueError),
    "negative-weight": (lambda p, w: (p, _put(w, -1.0)), ValueError),
    "nan-weight": (lambda p, w: (p, _put(w, math.nan)), ValueError),
    "none-weight": (lambda p, w: (p, _put(w, None)), TypeError),
    "sum-past-the-doubles": (lambda p, w: (p, [1e307] * len(w)), ValueError),
    "none-point-zero-weight": (lambda p, w: (_put(p, None), _put(w, 0.0)), TypeError),
    "short-weights": (lambda p, w: (p, w[:-1]), LengthMismatch),
    "short-points": (lambda p, w: (p[:-1], w), LengthMismatch),
    "empty": (lambda p, w: ((), ()), EmptyInput),
}


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, ARRAY_MIN, 200])
@pytest.mark.parametrize("case", list(REFUSALS))
def test_both_sides_of_array_min_refuse_alike(monkeypatch, case, n):
    # with numpy loaded, a configuration of ARRAY_MIN points or more is
    # converted to arrays first; whatever the arrays refuse is refused with
    # the error and message of the tuples, a duplicate pair named alike
    spoil, error = REFUSALS[case]
    points, weights = spoil(
        [complex(k % 8, k // 8 + 0.1 * k) for k in range(n)], [1.0 + 0.01 * k for k in range(n)]
    )
    converted = []
    convert = planarloc.fermat._as_arrays

    def spy_convert(points, weights):
        converted.append(1)
        return convert(points, weights)

    def refusal():
        with pytest.raises(Exception) as info:
            WeightedConfiguration(points, weights)
        return type(info.value), str(info.value)

    monkeypatch.setattr(planarloc.fermat, "_as_arrays", spy_convert)
    seen = refusal()
    assert seen[0] is error, seen
    assert bool(converted) is (len(points) >= ARRAY_MIN)
    monkeypatch.setattr(planarloc.fermat, "ARRAY_MIN", sys.maxsize)  # the tuples only
    assert refusal() == seen
