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
and the second the weighted Chebyshev center.  The types of the vectors
orthogonal to a weight triple or to (1, 1, 1, 1), which the paper derives
from the sum-norm test, are sorted by ``theorems``, off the solve path.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, repeat
from typing import Optional, Sequence

from . import geom
from ._record import FrozenRecord, lazy_field, set_field
from .errors import LengthMismatch, ZeroVector
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
