"""Birkhoff-James orthogonality in the finite sequence norms.

A vector x is orthogonal to y when ||x + s*y|| >= ||x|| for every complex
scalar s, equivalently when some norm-one functional attains ||x|| at x and
annihilates y.  Both tests below return that functional explicitly as a
certificate instead of a bare boolean.

In the sum norm the attaining functional is forced to conj(x_i)/|x_i| on
every nonzero entry and may carry any coefficient of modulus at most one on
zero entries, so orthogonality reduces to the slack inequality

    |sum over nonzero entries of conj(x_i)/|x_i| * y_i|  <=  sum over zero
    entries of |y_i|.

In the max norm the functional is a convex combination of the coordinate
functionals conj(x_i)/|x_i| on the maximal-modulus entries, so orthogonality
is zero in the convex hull of their values on y, decided by the angular-gap
rule of ``geom.convex_hull_membership``.  ``build_l1_certificate`` and
``build_linf_certificate`` assemble the two functionals; with
x = (a_i (z_i - w)) and y = (a_i) the first certifies the weighted median
and the second the weighted Chebyshev center.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, repeat
from typing import Optional, Sequence

from . import geom
from ._record import FrozenRecord, lazy_field, set_field
from .errors import (
    LengthMismatch,
    NotOrthogonal,
    WeightConditionViolated,
    ZeroVector,
)
from .tolerances import EPS_CLASS, EPS_REL


class SupportCertificate(FrozenRecord):
    """Norm-one functional witnessing an orthogonality (or failing to).

    ``d`` holds the coefficient applied to each entry, all of modulus at
    most one.  ``residual`` is the modulus of the functional applied to y,
    which is what a verifier recomputes.  For the sum norm ``forced`` is
    the contribution of the entries whose coefficient is forced and
    ``slack`` the total cancellation available on the free entries; the
    certificate passes when |forced| <= slack + tol.  For the max norm
    ``support`` lists the active entries and ``t`` the convex weights on
    them.  ``gamma`` reports the free coefficient spent at a location that
    coincides with the query point, when there is exactly one.  A sum-norm
    functional assembled on numpy arrays keeps its array and builds the
    ``d`` tuple only when it is first read.
    """

    _fields = (
        "space", "d", "residual", "passed", "forced", "slack", "tol", "t", "support", "gamma"
    )

    # a functional kept as an array: the tuple, built on first read
    d = lazy_field(lambda cert: tuple(cert._d.tolist()))

    def __init__(
        self,
        space: str,
        d: tuple[complex, ...],
        residual: float,
        passed: bool,
        forced: complex,
        slack: float,
        tol: float,
        t: Optional[tuple[float, ...]] = None,
        support: Optional[tuple[int, ...]] = None,
        gamma: Optional[complex] = None,
    ):
        set_field(self, "space", space)
        set_field(self, "d", d)
        set_field(self, "residual", residual)
        set_field(self, "passed", passed)
        set_field(self, "forced", forced)
        set_field(self, "slack", slack)
        set_field(self, "tol", tol)
        set_field(self, "t", t)
        set_field(self, "support", support)
        set_field(self, "gamma", gamma)


_X_OVERFLOWS = "the modulus of an entry of x overflows the doubles"


def _entries(x: Sequence[complex], name: str) -> tuple[complex, ...]:
    out = tuple(complex(v) for v in x)
    if not out:
        raise ZeroVector(f"{name} has no entries")
    for v in out:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"non-finite entry in {name}: {v!r}")
    return out


def build_l1_certificate(
    x: Sequence[complex],
    y: Sequence[complex],
    zero_mask: Sequence[bool],
    tol: float,
) -> SupportCertificate:
    """Assemble the sum-norm functional for x against y.

    ``zero_mask`` says which entries of x count as zero; callers choose the
    band (entry modulus for raw vectors, geometric coincidence for location
    problems).  Free coefficients are spent proportionally to cancel the
    forced part, clamped to the unit disc.  Numpy arrays, which
    ``fermat.ft_certificate`` passes from its array backend, take the O(n)
    passes as array operations and keep the functional as an array until
    ``d`` is first read; other sequences take Python loops.  Both give the
    same functional up to the order in which the sums are added.
    """
    n = len(x)
    if hasattr(x, "dtype"):
        import numpy as np

        xs = np.asarray(x, dtype=complex)
        ys = np.asarray(y)
        mask = np.asarray(zero_mask, dtype=bool)
        free = np.flatnonzero(mask).tolist()
        d = np.zeros(n, dtype=complex)
        np.divide(xs.conjugate(), abs(xs), out=d, where=~mask)
        slack = float(abs(ys[mask]).sum())
        forced = complex(d @ ys)
    else:
        xs = tuple(map(complex, x))
        ys = tuple(map(complex, y))
        free = list(compress(range(n), zero_mask))
        d = [0j if m else (xi / abs(xi)).conjugate() for xi, m in zip(xs, zero_mask)]
        slack = sum((abs(ys[i]) for i in free), 0.0)
        forced = sum(map(operator.mul, d, ys), 0j)
    need = abs(forced)
    residual = need
    if need > 0.0 and slack > 0.0:
        ratio = min(1.0, need / slack)
        direction = -forced / need
        spent = 0j
        for i in free:
            yi = complex(ys[i])
            if abs(yi) > 0.0:
                d[i] = di = direction * ratio * yi.conjugate() / abs(yi)
                spent += di * yi
        residual = abs(forced + spent)
    on_arrays = not isinstance(d, list)
    cert = SupportCertificate(
        space="l1",
        d=d if on_arrays else tuple(d),
        residual=residual,
        passed=need <= slack + tol,
        forced=forced,
        slack=slack,
        tol=tol,
        gamma=complex(d[free[0]]) if len(free) == 1 else None,
    )
    if on_arrays:  # the array is kept until d is first read
        set_field(cert, "_d", d)
        object.__delattr__(cert, "d")
    return cert


def is_bj_orthogonal_l1(
    x: Sequence[complex], y: Sequence[complex], tol: Optional[float] = None
) -> Optional[SupportCertificate]:
    """Certificate for x orthogonal to y in the sum norm, or None.

    Entries of x within EPS_CLASS * max|x| of zero count as zero entries.
    Raises ValueError when the modulus of an entry of x overflows the
    doubles, or the moduli of y sum past the largest double, where the
    forced part and the default tolerance would be inf.
    """
    cert, _ = _l1_test(x, y, tol)
    return cert if cert.passed else None


def _l1_test(x, y, tol):
    """The sum-norm certificate of ``is_bj_orthogonal_l1``, and the entries it counts nonzero."""
    xs = _entries(x, "x")
    ys = _entries(y, "y")
    if len(xs) != len(ys):
        raise LengthMismatch("vectors must have equal length")
    mods = geom._moduli(xs, _X_OVERFLOWS)
    top = max(mods)
    if top == 0.0:
        raise ZeroVector("x must be nonzero")
    try:
        total = sum(map(abs, ys))
    except OverflowError:  # abs of an entry beyond the doubles
        total = math.inf
    if total == math.inf:
        raise ValueError("the moduli of y must have a finite sum")
    if tol is None:
        tol = EPS_REL * total
    mask = [m <= EPS_CLASS * top for m in mods]
    nonzero = tuple(i for i, zero in enumerate(mask) if not zero)
    return build_l1_certificate(xs, ys, mask, tol), nonzero


def linf_support(moduli: Sequence[float]) -> list[int]:
    """Indices of the moduli within the band of the largest; ZeroVector if that is 0."""
    top = max(moduli)
    if top == 0.0:
        raise ZeroVector("x must be nonzero")
    return list(compress(range(len(moduli)), map(((1.0 - EPS_CLASS) * top).__le__, moduli)))


def build_linf_certificate(
    x: Sequence[complex],
    y: Sequence[complex],
    support: Sequence[int],
) -> SupportCertificate:
    """Assemble the max-norm functional for x against y.

    ``support`` lists the entries of x that count as maximal.  The
    functional weighs the coefficients d_i = conj(x_i)/|x_i| there by t, and
    annihilates y when zero is in the convex hull of the values d_i * y_i.
    A zero entry, orthogonal to everything, gets d_i = 0, so x = 0 passes.
    On success t is full length with zeros off the support; otherwise it
    is None and the residual infinite.  The decision takes no tolerance
    beyond the EPS_CLASS bands, so ``tol`` is recorded as 0.
    """
    xs = list(map(x.__getitem__, support))
    ds = [(v / abs(v)).conjugate() if v else 0j for v in xs]
    vals = list(map(operator.mul, ds, map(y.__getitem__, support)))
    t_sup = geom.convex_hull_membership(0j, vals)
    d, t = [0j] * len(x), [0.0] * len(x)
    for i, di, ti in zip(support, ds, t_sup or repeat(0.0)):
        d[i], t[i] = di, ti
    return SupportCertificate(
        space="linf",
        d=tuple(d),
        residual=math.inf if t_sup is None else abs(sum(map(operator.mul, t_sup, vals))),
        passed=t_sup is not None,
        forced=sum(vals),
        slack=0.0,
        tol=0.0,
        t=None if t_sup is None else tuple(t),
        support=tuple(support),
    )


def is_bj_orthogonal_linf(
    x: Sequence[complex], y: Sequence[complex]
) -> Optional[SupportCertificate]:
    """Certificate for x orthogonal to y in the max norm, or None.

    Raises ValueError when the modulus of an entry of x overflows the doubles.
    """
    xs = _entries(x, "x")
    ys = _entries(y, "y")
    if len(xs) != len(ys):
        raise LengthMismatch("vectors must have equal length")
    support = linf_support(geom._moduli(xs, _X_OVERFLOWS))
    cert = build_linf_certificate(xs, ys, support)
    return cert if cert.passed else None


def smoothness_order_linf(x: Sequence[complex]) -> int:
    """Number of entries attaining the max modulus, within the band.

    Order 1 means the norm is smooth at x and the supporting functional is
    unique; order k > 1 means a (k-1)-dimensional face of functionals.
    """
    return len(linf_support(list(map(abs, _entries(x, "x")))))


# ---------------------------------------------------------------------------
# classification of orthogonal directions in dimensions three and four


class OrthogonalityType(FrozenRecord):
    """Parametric form of a vector orthogonal to a weight vector.

    ``slots`` are the indices of the nonzero entries, ``directions`` their
    unit values, ``mixing`` the convex coefficients and ``scale`` the sum
    of the entry moduli, so the vector is scale * mixing_j * directions_j
    placed on the slots.  ``label`` appends the slot pattern as a letter,
    e.g. a one-slot vector living in the third coordinate is "I(c)".
    """

    _fields = ("tag", "slots", "directions", "mixing", "scale", "n")

    def __init__(
        self,
        tag: str,
        slots: tuple[int, ...],
        directions: tuple[complex, ...],
        mixing: tuple[float, ...],
        scale: float,
        n: int = 3,
    ):
        set_field(self, "tag", tag)
        set_field(self, "slots", slots)
        set_field(self, "directions", directions)
        set_field(self, "mixing", mixing)
        set_field(self, "scale", scale)
        set_field(self, "n", n)

    @property
    def label(self) -> str:
        from itertools import combinations

        if len(self.slots) == 1:
            return f"{self.tag}({'abcd'[self.slots[0]]})"
        if len(self.slots) == self.n:
            return self.tag
        pool = list(combinations(range(self.n), len(self.slots)))
        return f"{self.tag}({'abcdef'[pool.index(self.slots)]})"


def _orthogonality_type(c: Sequence[complex], weights: Sequence[float]) -> OrthogonalityType:
    """The type of c by its slots, from one sum-norm test against the weights.

    The slots are the entries the test counts nonzero, and the tag is their
    number in Roman numerals.  Raises NotOrthogonal when the test fails;
    the callers check the conditions each type puts on its directions.
    """
    cert, slots = _l1_test(c, weights, None)
    if not cert.passed:
        raise NotOrthogonal("vector is not orthogonal to the weights")
    mods = [abs(c[i]) for i in slots]
    scale = sum(mods)
    units = tuple(c[i] / m for i, m in zip(slots, mods))
    tag = ("I", "II", "III", "IV")[len(slots) - 1]
    return OrthogonalityType(tag, slots, units, tuple(m / scale for m in mods), scale, len(c))


def _angle_threshold(a_i: float, a_j: float, a_k: float) -> float:
    """Cosine of the angle between u_j and u_k when a_i*u_i + a_j*u_j + a_k*u_k = 0.

    Taken in weight ratios, so no square overflows or underflows whatever
    their common scale; the callers' triangle condition bounds the ratios.
    """
    return 0.5 * ((a_i / a_j) * (a_i / a_k) - a_j / a_k - a_k / a_j)


def classify_l1_orthogonal_3(
    c: Sequence[complex], weights: Sequence[float]
) -> OrthogonalityType:
    """Sort a vector orthogonal to a positive weight triple into its type.

    The weights must satisfy the strict triangle condition.  Types are by
    number of nonzero slots; the angle conditions tying the directions to
    the weights are re-verified so the classification never takes the
    orthogonality test's word for more than it says.
    """
    cs = _entries(c, "c")
    ws = tuple(float(w) for w in weights)
    if len(cs) != 3 or len(ws) != 3:
        raise LengthMismatch("expected a triple and three weights")
    if any(w <= 0.0 for w in ws):
        raise WeightConditionViolated("weights must be positive")
    wsum = sum(ws)
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        if ws[i] >= ws[j] + ws[k] - EPS_CLASS * wsum:
            raise WeightConditionViolated(
                "weights must satisfy the strict triangle condition"
            )
    typ = _orthogonality_type(cs, ws)
    units = typ.directions
    if len(units) == 2:
        i, j = typ.slots
        cos_angle = (units[0] * units[1].conjugate()).real
        if cos_angle > _angle_threshold(ws[3 - i - j], ws[i], ws[j]) + EPS_CLASS:
            raise NotOrthogonal("two-slot vector fails its angle bound")
    elif len(units) == 3:
        cos_12 = (units[0] * units[1].conjugate()).real
        cos_13 = (units[0] * units[2].conjugate()).real
        if abs(cos_12 - _angle_threshold(ws[2], ws[0], ws[1])) > EPS_CLASS or abs(
            cos_13 - _angle_threshold(ws[1], ws[0], ws[2])
        ) > EPS_CLASS:
            raise NotOrthogonal("three-slot vector fails its angle equalities")
    return typ


def classify_l1_orthogonal_4(c: Sequence[complex]) -> OrthogonalityType:
    """Classify a vector orthogonal to (1, 1, 1, 1) in the sum norm.

    Three nonzero slots additionally require the origin inside the hull of
    the three directions; four nonzero slots require the directions to sum
    to zero, which makes them two antipodal pairs.
    """
    cs = _entries(c, "c")
    if len(cs) != 4:
        raise LengthMismatch("expected a quadruple")
    typ = _orthogonality_type(cs, (1.0, 1.0, 1.0, 1.0))
    units = typ.directions
    if len(units) == 3 and geom.convex_hull_membership(0j, units) is None:
        raise NotOrthogonal("three-slot directions do not surround the origin")
    if len(units) == 4 and abs(sum(units)) > 4.0 * EPS_CLASS:
        raise NotOrthogonal("four-slot directions do not sum to zero")
    return typ
