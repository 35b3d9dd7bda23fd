"""Orthogonality tests, certificates, smoothness, and the classifiers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planarloc import (
    LengthMismatch,
    NotOrthogonal,
    WeightConditionViolated,
    ZeroVector,
    classify_l1_orthogonal_3,
    classify_l1_orthogonal_4,
    is_bj_orthogonal_l1,
    is_bj_orthogonal_linf,
    smoothness_order_linf,
)
from planarloc.bjorth import build_l1_certificate, linf_support
from planarloc.fermat import ARRAY_MIN

from conftest import sample_type3, sample_type4, triangle_weights, unit

OMEGA = cmath.exp(2j * math.pi / 3)


# ------------------------------------------------------------- sum norm test


def test_l1_forced_signs_cancel():
    cert = is_bj_orthogonal_l1((1, -1, 0), (1, 1, 1))
    assert cert is not None and cert.passed
    assert cert.space == "l1"
    assert cert.d == pytest.approx((1, -1, 0), abs=1e-12)
    assert cert.residual <= 1e-12


def test_l1_aligned_entries_fail():
    assert is_bj_orthogonal_l1((1, 1, 1), (1, 1, 1)) is None


def test_l1_symmetric_triple_any_radii(rng):
    # three directions at mutual angle 2pi/3 cancel whatever the moduli
    for _ in range(100):
        t = rng.uniform(0.1, 3.0, 3)
        x = tuple(float(t[k]) * OMEGA**k for k in range(3))
        assert is_bj_orthogonal_l1(x, (1, 1, 1)) is not None


def test_l1_certificate_functional_is_exact(rng):
    done = 0
    while done < 60:
        n = int(rng.integers(3, 7))
        x = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        x[0] = 0j  # a zero slot with a heavy weight guarantees slack
        y = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        y[0] = complex(float(rng.uniform(4.0, 8.0)), 0.0)
        cert = is_bj_orthogonal_l1(x, y)
        if cert is None:
            continue
        done += 1
        assert abs(sum(d * v for d, v in zip(cert.d, y))) <= 1e-9 * sum(abs(v) for v in y)
        for d, v in zip(cert.d, x):
            assert abs(d) <= 1.0 + 1e-12
            assert d * v == pytest.approx(abs(v), abs=1e-9 * (abs(v) + 1.0))


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        is_bj_orthogonal_l1((0, 0), (1, 1))
    with pytest.raises(ZeroVector):
        is_bj_orthogonal_linf((0, 0), (1, 1))
    with pytest.raises(ZeroVector):
        is_bj_orthogonal_linf([0j], [1])
    with pytest.raises(ZeroVector):
        smoothness_order_linf((0, 0, 0))


@pytest.mark.parametrize("y", [(1e308,) * 3, (1, 1, 1.7e308 + 1.7e308j)])
def test_y_summing_beyond_the_doubles_is_refused(y):
    # the forced part and the default tolerance would both be inf, and
    # (1, 1, 1) would pass against (1, 1, 1)
    with pytest.raises(ValueError, match="finite sum"):
        is_bj_orthogonal_l1((1, 1, 1), y)


@pytest.mark.parametrize("test", [is_bj_orthogonal_l1, is_bj_orthogonal_linf])
@pytest.mark.parametrize("x", [(1.7e308 + 1.7e308j, 1), (1, -1.7e308 + 1.7e308j, 0)])
def test_x_whose_modulus_overflows_is_refused(test, x):
    # a finite entry beyond the doubles in modulus: no maximal entry or
    # zero band can be told, so the test refuses it as malformed input
    with pytest.raises(ValueError, match="modulus of an entry of x overflows"):
        test(x, (1,) * len(x))


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        is_bj_orthogonal_l1((1, 2), (1, 1, 1))
    with pytest.raises(LengthMismatch):
        is_bj_orthogonal_linf((1, 2, 3), (1, 1))


# ------------------------------------------------------------- max norm test


def test_linf_antipodal_max_entries():
    cert = is_bj_orthogonal_linf((1, -1, 0.5), (1, 1, 1))
    assert cert is not None and cert.passed
    assert cert.space == "linf"
    assert cert.support == (0, 1)
    assert cert.t == pytest.approx((0.5, 0.5, 0.0), abs=1e-9)


def test_linf_unique_max_fails():
    assert is_bj_orthogonal_linf((1, 0.5, 0.5), (1, 1, 1)) is None


def test_linf_support_band_is_relative_to_the_top():
    # a modulus 2e-7 below the top lies outside the band EPS_CLASS * top
    # and stays off the support; one 5e-8 below lies inside it
    assert linf_support([1.0, 1 - 2e-7]) == [0]
    assert linf_support([1.0, 1 - 5e-8]) == [0, 1]


def test_linf_symmetric_four_vector():
    x = (2, 2 * OMEGA, 2 * OMEGA**2, 1)
    cert = is_bj_orthogonal_linf(x, (1, 1, 1, 1))
    assert cert is not None
    assert cert.support == (0, 1, 2)
    assert cert.t == pytest.approx((1 / 3, 1 / 3, 1 / 3, 0.0), abs=1e-9)


# --------------------------------------------------------------- smoothness


def test_smoothness_orders():
    assert smoothness_order_linf((3, 1, 2)) == 1
    assert smoothness_order_linf((1, -1, 1j)) == 3
    # the modulus band is relative, so 1.999999999 counts as maximal
    assert smoothness_order_linf((2, 2 * cmath.exp(1j * math.pi / 7), 1.999999999)) == 3


def test_smoothness_one_iff_unique_max(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        x = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        mags = sorted((abs(v) for v in x), reverse=True)
        if mags[0] < 1e-3 or mags[0] - mags[1] < 1e-6 * mags[0]:
            continue
        assert smoothness_order_linf(x) == 1
        # duplicating the leader bumps the order
        assert smoothness_order_linf(x + [max(x, key=abs)]) >= 2


# -------------------------------------------------------------- homogeneity

_coord = st.floats(min_value=-10.0, max_value=10.0)
_entry = st.one_of(
    st.just(0j),
    st.builds(complex, _coord, _coord).filter(lambda z: abs(z) > 0.05),
)
_scalar = st.builds(complex, _coord, _coord).filter(lambda z: abs(z) > 1e-3)


@st.composite
def _paired_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    xs = draw(st.lists(_entry, min_size=n, max_size=n))
    ys = draw(st.lists(_entry, min_size=n, max_size=n))
    return xs, ys


@settings(max_examples=200, deadline=None)
@given(pair=_paired_vectors(), lam=_scalar, mu=_scalar)
def test_l1_homogeneity(pair, lam, mu):
    xs, ys = pair
    assume(any(abs(v) > 0 for v in xs))
    assume(sum(abs(v) for v in ys) > 1e-6)
    # ignore instances whose verdict flips within an order of magnitude of
    # the default tolerance; scaling cannot be expected to hold there
    ref = 1e-9 * sum(abs(v) for v in ys)
    lo = is_bj_orthogonal_l1(xs, ys, tol=0.1 * ref) is not None
    hi = is_bj_orthogonal_l1(xs, ys, tol=10.0 * ref) is not None
    assume(lo == hi)
    base = is_bj_orthogonal_l1(xs, ys) is not None
    scaled = (
        is_bj_orthogonal_l1([lam * v for v in xs], [mu * v for v in ys]) is not None
    )
    assert base == scaled


def test_linf_homogeneity(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        peak = float(rng.uniform(0.5, 3.0))
        k = int(rng.integers(1, n + 1))
        x = [peak * unit(rng) for _ in range(k)]
        x += [float(rng.uniform(0.1, 0.9)) * peak * unit(rng) for _ in range(n - k)]
        y = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        lam = float(rng.uniform(0.2, 5.0)) * unit(rng)
        mu = float(rng.uniform(0.2, 5.0)) * unit(rng)
        base = is_bj_orthogonal_linf(x, y) is not None
        scaled = is_bj_orthogonal_linf([lam * v for v in x], [mu * v for v in y]) is not None
        assert base == scaled


# ---------------------------------------------------------------- soundness


def _disc_grid(radius):
    return [
        radius * (k / 8.0) * cmath.exp(2j * math.pi * j / 8)
        for k in range(1, 9)
        for j in range(8)
    ]


def test_l1_certificates_are_sound(rng):
    done = 0
    while done < 60:
        n = int(rng.integers(2, 7))
        x = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        x[int(rng.integers(0, n))] = 0j
        y = [complex(*rng.normal(0.0, 2.0, 2)) for _ in range(n)]
        cert = is_bj_orthogonal_l1(x, y)
        nx = sum(abs(v) for v in x)
        ny = sum(abs(v) for v in y)
        if cert is None or cert.residual > 0.0 or nx < 1e-6 or ny < 1e-6:
            continue
        done += 1
        for s in _disc_grid(2.0 * nx / ny):
            val = sum(abs(xv + s * yv) for xv, yv in zip(x, y))
            assert val >= nx * (1.0 - 1e-9)


def _textbook_l1(x, y, mask, tol):
    # the sum-norm functional entry by entry, as the module docstring states it
    d = [0j] * len(x)
    forced, slack = 0j, 0.0
    for i, (xi, yi) in enumerate(zip(x, y)):
        if mask[i]:
            slack += abs(yi)
        else:
            d[i] = (xi / abs(xi)).conjugate()
            forced += d[i] * yi
    need = abs(forced)
    if need > 0.0 and slack > 0.0:
        for i, yi in enumerate(y):
            if mask[i] and abs(yi) > 0.0:
                d[i] = -forced / need * min(1.0, need / slack) * yi.conjugate() / abs(yi)
    free = [i for i in range(len(x)) if mask[i]]
    return {
        "d": d,
        "forced": forced,
        "slack": slack,
        "residual": abs(sum(di * yi for di, yi in zip(d, y))),
        "passed": need <= slack + tol,
        "gamma": d[free[0]] if len(free) == 1 else None,
    }


@pytest.mark.parametrize("masked", [0, 1, 3])
def test_l1_certificate_matches_the_entrywise_loop(rng, masked):
    # lists take the builder's Python loops and numpy arrays, which the
    # median's certificate passes from ARRAY_MIN points on, its array
    # passes; both must give the entrywise functional
    sizes = [int(rng.integers(max(masked, 1), 12)) for _ in range(200)]
    sizes += [ARRAY_MIN - 1, ARRAY_MIN, ARRAY_MIN + 1, 200, 2000] * 4
    for trial, n in enumerate(sizes):
        x = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        y = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(n)]
        free = [int(i) for i in rng.choice(n, min(masked, n), replace=False)]
        for k, i in enumerate(free):
            if trial % 3 == 0:
                x[i] = 0j
            if (trial + k) % 4 == 0:
                y[i] = 0j  # a free entry with nothing to cancel
        if free and trial % 5 == 0:
            y[free[0]] = complex(float(rng.uniform(4.0, 20.0)), 0.0)  # enough slack
        mask = [i in free for i in range(n)]
        tol = 1e-9 * sum(abs(v) for v in y)
        on_arrays = n >= ARRAY_MIN
        if on_arrays:
            cert = build_l1_certificate(np.array(x), np.array(y), np.array(mask), tol)
        else:
            cert = build_l1_certificate(x, y, mask, tol)
        ref = _textbook_l1(x, y, mask, tol)
        scale = sum(abs(v) for v in y)

        def close(a, b, s=scale):
            return cmath.isclose(a, b, rel_tol=1e-14, abs_tol=1e-14 * s)

        # a free entry points along -forced; the array path's summation
        # order moves forced by up to 1e-14 * scale, and so its direction
        # by that over |forced|
        turn = 1.0
        if on_arrays and ref["forced"]:
            turn = max(1.0, scale / abs(ref["forced"]))
        assert cert.passed is ref["passed"]
        assert (cert.gamma is None) is (ref["gamma"] is None)
        if cert.gamma is not None:
            assert close(cert.gamma, ref["gamma"], turn)
        assert len(cert.d) == n
        assert all(close(a, b, turn if m else 1.0) for a, b, m in zip(cert.d, ref["d"], mask))
        assert close(cert.forced, ref["forced"])
        assert close(cert.slack, ref["slack"])
        assert close(cert.residual, ref["residual"])


def test_linf_certificates_are_sound(rng):
    for _ in range(60):
        n = int(rng.integers(3, 7))
        peak = float(rng.uniform(0.5, 3.0))
        mu = unit(rng)
        shared = complex(*rng.normal(0.0, 1.0, 2))
        # an exactly antipodal max pair with matching weight entries makes
        # the certificate exact, so the norm inequality must hold sharply
        x = [peak * mu, -peak * mu]
        y = [shared, shared]
        for _ in range(n - 2):
            x.append(float(rng.uniform(0.1, 0.9)) * peak * unit(rng))
            y.append(complex(*rng.normal(0.0, 1.0, 2)))
        cert = is_bj_orthogonal_linf(x, y)
        assert cert is not None and cert.residual <= 1e-9
        nx = max(abs(v) for v in x)
        ny = max(abs(v) for v in y)
        if ny < 1e-6:
            continue
        for s in _disc_grid(2.0 * nx / ny):
            val = max(abs(xv + s * yv) for xv, yv in zip(x, y))
            assert val >= nx * (1.0 - 1e-9)


# ----------------------------------------------------------- classification


def test_classify3_single_slot_is_type_one():
    for slot, letter in ((0, "a"), (1, "b"), (2, "c")):
        c = [0j, 0j, 0j]
        c[slot] = 0.7 * unit_at(slot)
        typ = classify_l1_orthogonal_3(tuple(c), (1.0, 1.0, 1.0))
        assert typ.tag == "I"
        assert typ.slots == (slot,)
        assert typ.label == f"I({letter})"


def unit_at(k):
    return cmath.exp(1j * (0.3 + 1.1 * k))


def test_classify3_recorded_two_slot():
    for t in (0.2, 0.5, 0.8):
        typ = classify_l1_orthogonal_3((t, (1 - t) * OMEGA, 0), (1.0, 1.0, 1.0))
        assert typ.tag == "II"
        assert typ.label == "II(a)"
        assert typ.slots == (0, 1)
        assert typ.mixing == pytest.approx((t, 1 - t), abs=1e-12)


def test_classify3_recorded_three_slot():
    c = (1 / 3, (1 / 3) * OMEGA, (1 / 3) * OMEGA**2)
    typ = classify_l1_orthogonal_3(c, (1.0, 1.0, 1.0))
    assert typ.tag == "III"
    assert typ.label == "III"
    assert typ.scale == pytest.approx(1.0, abs=1e-12)


def test_classify3_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        classify_l1_orthogonal_3((1, 1, 1), (1.0, 1.0, 1.0))
    with pytest.raises(NotOrthogonal):
        classify_l1_orthogonal_3((1, 0.2, 0), (1.0, 1.0, 1.0))


def test_classify3_rejects_degenerate_weights():
    with pytest.raises(WeightConditionViolated):
        classify_l1_orthogonal_3((0.5, 0, 0), (3.0, 1.0, 1.0))
    with pytest.raises(WeightConditionViolated):
        classify_l1_orthogonal_3((0.5, 0, 0), (2.0, 1.0, 1.0))


def test_classify3_boundary_angle_counts_as_two_slot():
    # with unit weights the admissible bound is cos = -1/2 exactly
    typ = classify_l1_orthogonal_3((0.5, 0.5 * OMEGA, 0), (1.0, 1.0, 1.0))
    assert typ.tag == "II"


def test_classify4_recorded_examples():
    typ = classify_l1_orthogonal_4((0, 0, 0.5j, 0))
    assert typ.tag == "I" and typ.label == "I(c)"
    for t in (0.3, 0.6):
        typ = classify_l1_orthogonal_4((t, -(1 - t), 0, 0))
        assert typ.tag == "II" and typ.label == "II(a)"
        mu, sigma = typ.directions
        assert sigma == pytest.approx(-mu, abs=1e-12)
    typ = classify_l1_orthogonal_4((0.25, 0.25j, -0.25, -0.25j))
    assert typ.tag == "IV" and typ.label == "IV"
    assert abs(sum(typ.directions)) <= 1e-12


def test_classify4_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        classify_l1_orthogonal_4((1, 1, 1, 1))
    with pytest.raises(NotOrthogonal):
        # three slots whose directions leave the origin outside the hull
        classify_l1_orthogonal_4((1, cmath.exp(0.1j), 1j, 0))


def test_classify_round_trip_all_types(rng):
    for _ in range(250):
        weights = triangle_weights(rng)
        tag = ("I", "II", "III")[int(rng.integers(0, 3))]
        c = sample_type3(rng, tag, weights)
        assert is_bj_orthogonal_l1(c, weights) is not None
        assert classify_l1_orthogonal_3(c, weights).tag == tag
    for _ in range(250):
        tag = ("I", "II", "III", "IV")[int(rng.integers(0, 4))]
        c = sample_type4(rng, tag)
        assert is_bj_orthogonal_l1(c, (1.0, 1.0, 1.0, 1.0)) is not None
        assert classify_l1_orthogonal_4(c).tag == tag


def test_type_four_iff_directions_sum_to_zero(rng):
    for _ in range(200):
        c = sample_type4(rng, "IV")
        typ = classify_l1_orthogonal_4(c)
        assert typ.tag == "IV"
        assert abs(sum(typ.directions)) <= 4e-7
        # nudging one direction off its antipode breaks the rectangle
        bent = list(c)
        bent[3] *= cmath.exp(0.2j)
        if is_bj_orthogonal_l1(bent, (1.0, 1.0, 1.0, 1.0)) is None:
            with pytest.raises(NotOrthogonal):
                classify_l1_orthogonal_4(tuple(bent))
