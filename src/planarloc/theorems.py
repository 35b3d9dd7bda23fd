"""The paper's results about a certified optimum and about orthogonal vectors.

What the paper proves with the solvers' Birkhoff-James test once an
optimum is certified: whether adding, replacing, merging or sliding points
keeps a median in place, and where a point may be added at a vertex
optimum; the types of the vectors orthogonal in the sum norm to a weight
triple or to (1, 1, 1, 1); and the class of a unimodular triple.
``fermat.ft_certificate`` or the sum-norm test of ``bjorth`` decides each
answer.  No solver imports this module, so a solve never loads it.
"""

from __future__ import annotations

import enum
from typing import Sequence

from . import geom
from ._record import FrozenRecord, set_field
from .bjorth import _entries, _l1_test
from .errors import CertificatePreconditionFailed, DuplicatePoints, LengthMismatch, MixedSigns
from .errors import NotOrthogonal, NotUnimodular, VertexPreconditionFailed, WeightConditionViolated
from .fermat import WeightedConfiguration, _angle_threshold, _passes, ft_certificate
from .geom import require_finite
from .tolerances import EPS_CLASS, EPS_REL

# ---------------------------------------------------------------------------
# perturbations of a certified optimum


def _require_certified_interior(config: WeightedConfiguration, w: complex) -> None:
    """CertificatePreconditionFailed unless w is a certified optimum clear of every point.

    The slack is the weight of the points within the band of w.
    """
    cert = ft_certificate(config, w)
    if cert.slack > 0.0:
        raise CertificatePreconditionFailed("the optimum must avoid every point")
    if not cert.passed:
        raise CertificatePreconditionFailed("w is not a certified optimum")


def addition_preserves(
    config: WeightedConfiguration, w: complex, z_new: complex, alpha_new: float
) -> bool:
    """Whether w stays optimal after adding (z_new, alpha_new).

    The certificate of the extended configuration at w decides: it passes
    when the new point lands on w itself, since any other placement tilts
    the balanced direction sum.  Raises ValueError for a w or z_new not
    finite or too far out.
    """
    _require_certified_interior(config, w)
    if not (alpha_new > 0.0):
        raise ValueError("alpha_new must be positive")
    extended = WeightedConfiguration(
        config.points + (complex(z_new),), config.weights + (float(alpha_new),)
    )
    return ft_certificate(extended, w).passed


def replacement_preserves(
    config: WeightedConfiguration, w: complex, index: int, s: complex
) -> bool:
    """Whether moving point ``index`` to s keeps w optimal.

    The certificate of the moved configuration at w decides: it passes
    when s sits on the closed ray from w through the point it replaces, so
    its unit direction (and hence the direction sum) does not change.
    Raises ValueError for a w or s not finite or too far out, and
    DuplicatePoints for an s on another point or so far out that the new
    band swallows the others.
    """
    _require_certified_interior(config, w)
    if not (0 <= index < config.n):
        raise IndexError("index out of range")
    points = list(config.points)
    points[index] = complex(s)
    moved = WeightedConfiguration(tuple(points), config.weights)
    return ft_certificate(moved, w).passed


def decomposition_equivalence(
    config_a: WeightedConfiguration, w: complex, config_b: WeightedConfiguration
) -> bool:
    """Whether w solves the concatenation of two configurations.

    The certificate of the merged configuration at w decides: with w
    already optimal for the first part, it passes exactly when w also
    solves the second part alone; the direction sums add.  Raises
    ValueError for a w not finite or too far out.
    """
    _require_certified_interior(config_a, w)
    merged = WeightedConfiguration(
        config_a.points + config_b.points, config_a.weights + config_b.weights
    )
    return ft_certificate(merged, w).passed


def scaled_configuration(
    config: WeightedConfiguration, w: complex, scales: Sequence[float]
) -> WeightedConfiguration:
    """Slide each point along its ray from w by a same-sign factor.

    Unit directions are preserved (or all flipped), so w stays optimal for
    the result; its certificate at w decides before it is handed back.
    Raises ValueError for a w not finite or too far out, or scales that
    move a point beyond the doubles.
    """
    _require_certified_interior(config, w)
    cs = [float(c) for c in scales]
    if len(cs) != config.n:
        raise LengthMismatch("one scale per point")
    if any(c == 0.0 for c in cs):
        raise MixedSigns("scales must be nonzero")
    if any(c > 0.0 for c in cs) and any(c < 0.0 for c in cs):
        raise MixedSigns("scales must share one sign")
    w = complex(w)
    moved = tuple(w + c * (z - w) for z, c in zip(config.points, cs))
    out = WeightedConfiguration(moved, config.weights)
    if not ft_certificate(out, w).passed:
        raise CertificatePreconditionFailed("scaled configuration lost the optimum")
    return out


class _Undetermined:
    """Marker for the weight band the vertex-extension result leaves open."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def extend_at_vertex(
    config: WeightedConfiguration, w: complex, alpha_new: float
):
    """Add a point keeping a vertex optimum, when the new weight allows it.

    With w sitting on configuration point i0, a new weight up to the weight
    at i0 can always be placed so that w stays optimal; the construction
    spends the free coefficient gamma reported by the certificate at w,
    whose slack is the weight at i0.  The new point goes in that
    construction's direction from w, at half the distance from w to the
    nearest other point (at distance 1 when there is none), so it scales
    with the configuration.  Weights above twice the vertex weight are
    impossible (returns None) and the band in between is reported as
    UNDETERMINED rather than guessed.  The certificate of the extended
    configuration decides the point returned.  Raises ValueError for a w
    not finite or too far out.
    """
    w = complex(w)
    if not (alpha_new > 0.0):
        raise ValueError("alpha_new must be positive")
    cert = ft_certificate(config, w)
    # gamma is set exactly when one point lies within the band of w
    if cert.gamma is None:
        raise VertexPreconditionFailed("w must equal exactly one configuration point")
    if not cert.passed:
        raise VertexPreconditionFailed("w is not a certified optimum")
    a0, gamma = cert.slack, cert.gamma
    if alpha_new > 2.0 * a0 * (1.0 + EPS_CLASS):
        return None
    if alpha_new > a0 * (1.0 + EPS_CLASS):
        return UNDETERMINED
    ratio = alpha_new / a0
    if abs(gamma) > EPS_REL:
        delta = gamma * (1.0 - ratio / abs(gamma))
    else:
        delta = complex(ratio, 0.0)
    # gamma - delta has modulus ratio, so this offset is a unit vector
    direction = (a0 / alpha_new) * (gamma - delta).conjugate()
    _, mods, mask = _passes(config).offsets(w)
    others = [float(d) for d, near in zip(mods, mask) if not near]
    z_new = w + (0.5 * min(others) if others else 1.0) * direction
    extended = WeightedConfiguration(
        config.points + (z_new,), config.weights + (float(alpha_new),)
    )
    if not ft_certificate(extended, w).passed:
        raise VertexPreconditionFailed("extension lost the optimum")
    return z_new


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


# ---------------------------------------------------------------------------
# unimodular triples


class TripleClass(enum.Enum):
    SUM_BELOW_ONE = "sum-below-one"
    SUM_ONE = "sum-one"
    SUM_ABOVE_ONE = "sum-above-one"


def unimodular_triple_class(z1: complex, z2: complex, z3: complex) -> TripleClass:
    """Classify |z1 + z2 + z3| against 1 for distinct unit-modulus numbers."""
    zs = [complex(z1), complex(z2), complex(z3)]
    require_finite(*zs)
    for z in zs:
        if abs(abs(z) - 1.0) > EPS_CLASS:
            raise NotUnimodular(f"{z!r} does not lie on the unit circle")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(zs[i] - zs[j]) <= EPS_CLASS:
                raise DuplicatePoints("unimodular triple must be pairwise distinct")
    s = abs(zs[0] + zs[1] + zs[2])
    if abs(s - 1.0) <= EPS_CLASS:
        return TripleClass.SUM_ONE
    if s < 1.0:
        return TripleClass.SUM_BELOW_ONE
    return TripleClass.SUM_ABOVE_ONE
