"""Random sweep of the solvers against the grid refinement oracle.

Draws instances of 1 to ``--n-max`` distinct points with moderate weights,
solves each with the certified solver, and compares objective values with
the oracle.  The median is checked twice: by the general solver on n
points, drawn in turn uniform, in clusters, exactly on a horizontal line
(where its Newton step is always refused) and within 1e-9 of one, and by
the three-point closed form on a triangle.  The grid oracle only bounds
an optimum from above, so each objective, and the covering circle's
radius, may exceed the oracle's by at most a small gap; the radius must
also reach the largest pair bound a_i a_j |z_i - z_j| / (a_i + a_j),
which holds at every center.  ``--kind
distinct`` instead checks the duplicate test ``geom.ensure_distinct``,
handed each instance once as a list (its Python passes) and once as a
numpy array (its array passes), against a numpy brute-force pair test,
and both must name its pair: the smallest j with an earlier point within
the band, then the smallest such i.  It draws 2 to 3000 points uniform,
on an axis-aligned line or with one or two planted pairs, and
``fermat.ARRAY_MIN`` to 10000 points on a lattice at 0.999, 1 or 1.001
of the band or on a regular polygon, with or without planted pairs,
where every point reaches the neighbour check.  The families are
taken in turn, those two first, so a short sweep runs both.
``--kind linf`` checks the max-norm test ``is_bj_orthogonal_linf`` on
random x and y (generic, an exactly antipodal max pair, cocircular maxima,
y zero on a maximal entry, moduli from 1e-300 to 1e300) against an
all-singles, pairs and triples Caratheodory test of zero in the hull of
the functional's values, skipping instances within ten times the band of
the boundary, and checks that every certificate rebuilds zero within the
band.  ``--kind closed`` runs the three- and four-point closed forms on
the instances next to their case boundaries: a fourth point 1e-10 to 1e-5
of an edge's length inside or outside a triangle, near-collinear
triangles whose heavy weight is (1 +- 1e-12 ... 1e-6) times the sum of the
others, and four collinear points; each must be certified, and its
objective must not exceed the oracle's by more than the command line's
gap.  ``--kind l1`` checks the median's certificate ``ft_certificate`` on
2 to 3000 points, half of the instances within twice ``ARRAY_MIN`` so both
of its paths run often, at the certified optimum, at a heavy point that is
the optimum, at a location within a point's band and at an arbitrary
location, against an entrywise numpy rebuild of the functional; the
decision must agree wherever it is not within 1e-12 of the total weight
of flipping.  ``--kind paths`` solves each median twice with
``solve_ft_n``, once with its numpy arrays forced and once with its
Python loops forced (by setting ``fermat.ARRAY_MIN``), on 5 to 3000
points (log-uniform) drawn in turn uniform, in clusters, exactly on a
line, within 1e-9 of one, and with a vertex optimum; both paths must
certify, or both refuse.  At each certified answer, the one of either
path, ``ft_certificate`` must then decide alike on both paths and
``ft_objective`` agree to a relative 1e-12.  ``--kind perturb`` draws certified optima clear
of every point of 3 to 40 points and hands the five perturbation
functions, as new point and as query point, points on the ray from the
optimum through a configuration point and rotated off it (1e-10 to 1e-1
rad), the optimum and that configuration point themselves, points 1e6,
1e12 and 1e300 diameters out, 1.7e308(1 + i), inf and nan;
``scaled_configuration`` also
gets scales of 1e6, 1e12, 1e300, inf and nan.  Each call must answer or
raise ValueError or a PlanarLocError, and ``replacement_preserves`` must
answer as the certificate of the moved configuration at the optimum, or
raise where building or certifying that configuration raises.  Exits
nonzero on the first disagreement,
printing the offending instance so it can be frozen into a regression
test.

    python3 scripts/random_cross_check.py --count 200 --seed 7
    python3 scripts/random_cross_check.py --kind distinct --count 100
    python3 scripts/random_cross_check.py --kind linf --count 2000
    python3 scripts/random_cross_check.py --kind closed --count 3000
    python3 scripts/random_cross_check.py --kind l1 --count 300
    python3 scripts/random_cross_check.py --kind paths --count 200
    python3 scripts/random_cross_check.py --kind perturb --count 200
"""

import argparse
import cmath
import itertools
import math
import re
import sys
from itertools import combinations

import numpy as np

import planarloc as pl


def draw_points(gen, n, box=3.0, min_gap=2e-2):
    pts = []
    while len(pts) < n:
        z = complex(gen.uniform(0.0, box), gen.uniform(0.0, box))
        if all(abs(z - q) > min_gap for q in pts):
            pts.append(z)
    return pts


MEDIAN_FAMILIES = itertools.cycle(("uniform", "clustered", "collinear", "near-collinear"))


def draw_median_points(gen, n, family, box=3.0):
    if family == "uniform":
        return draw_points(gen, n, box)
    if family == "clustered":
        centers = gen.uniform(0.0, box, (3, 2))[gen.integers(0, 3, n)]
        xy = centers + gen.normal(0.0, 0.05, (n, 2))
        return [complex(x, y) for x, y in xy]
    # one point per slot of width box/n keeps them apart on the line
    xs = (gen.permutation(n) + gen.uniform(0.2, 0.8, n)) * (box / n)
    ys = np.full(n, 0.5 * box)
    if family == "near-collinear":
        ys += 1e-9 * gen.uniform(-1.0, 1.0, n)
    return [complex(x, y) for x, y in zip(xs, ys)]


def check_median(gen, n):
    pts = draw_median_points(gen, n, next(MEDIAN_FAMILIES))
    weights = tuple(float(gen.uniform(0.5, 2.0)) for _ in range(n))
    config = pl.WeightedConfiguration(tuple(pts), weights)
    res = pl.solve_ft_n(config)
    _, oval = pl.oracle_ft(config)
    gap = res.objective - oval
    tol = 1e-6 * config.diameter * config.total_weight
    return gap <= tol, gap, (pts, weights)


def check_triangle(gen, n):
    # the closed form takes three points whatever n the trial drew
    pts = draw_points(gen, 3)
    weights = tuple(float(gen.uniform(0.5, 2.0)) for _ in range(3))
    config = pl.WeightedConfiguration(tuple(pts), weights)
    res = pl.solve_ft3_weighted(*pts, weights)
    _, oval = pl.oracle_ft(config)
    gap = res.objective - oval
    tol = 1e-6 * config.diameter * config.total_weight
    return gap <= tol, gap, (pts, weights)


def check_circle(gen, n):
    pts = draw_points(gen, n)
    weights = [float(gen.uniform(0.5, 2.0)) for _ in range(n)]
    res = pl.solve_chebyshev_weighted(pts, weights)
    _, oradius = pl.oracle_cheby(pts, weights)
    # the oracle only bounds the optimum from above; a pair's weighted
    # distance a_i a_j |z_i - z_j| / (a_i + a_j) bounds it from below at
    # every center, so the two bound the radius from both sides
    pair = max(
        (a * b * abs(z - y) / (a + b) for (z, a), (y, b) in combinations(zip(pts, weights), 2)),
        default=0.0,
    )
    gap = res.radius - oradius
    diam = max(abs(a - b) for a in pts for b in pts)
    ok = gap <= 1e-5 * max(diam, 1.0) and res.radius >= (1.0 - 1e-12) * pair
    return ok, gap, (pts, weights)


def brute_force_pair(pts, band):
    """The pair (i, j) with abs(z_i - z_j) <= band that ensure_distinct names, or None.

    The smallest j that has an earlier point within the band, then the
    smallest such i.
    """
    z = np.asarray(pts, dtype=complex)
    for j in range(1, len(z)):
        hits = np.flatnonzero(np.abs(z[:j] - z[j]) <= band)
        if hits.size:
            return int(hits[0]), j
    return None


# every point of the first two reaches the neighbour check
DISTINCT_FAMILIES = ("cocircular", "lattice", "uniform", "vertical", "horizontal", "planted")


def draw_distinct_instance(gen, family):
    if family in ("cocircular", "lattice"):
        n = int(gen.integers(pl.fermat.ARRAY_MIN, 10_001))
    else:
        n = int(gen.integers(2, 3001))
    offset = complex(*gen.uniform(-1.0, 1.0, 2)) * 10.0 ** gen.uniform(0.0, 8.0)
    xy = gen.uniform(0.0, 1.0, (n, 2))
    scale = None
    if family == "vertical":
        xy[:, 0] = 0.5
    elif family == "horizontal":
        xy[:, 1] = 0.5
    elif family == "lattice":
        # unit spacing against a band of 1/factor spacings
        side = int(np.ceil(np.sqrt(n)))
        xy = np.array([(k // side, k % side) for k in range(n)], dtype=float)
        scale = 1.0 / (float(gen.choice([0.999, 1.0, 1.001])) * pl.EPS_CLASS)
    elif family == "cocircular":
        # with n even, mirror images share an x or a y up to rounding, so
        # every point is next to a gap within the band on both axes; an
        # offset of at most 1e3 radii keeps that rounding within the band
        n -= n % 2
        turn = 2.0 * np.pi * np.arange(n) / n
        radius = 10.0 ** gen.uniform(-3.0, 3.0)
        xy = radius * np.column_stack((np.cos(turn), np.sin(turn)))
        offset *= radius * 1e-5
    pts = [offset + complex(x, y) for x, y in xy]
    if scale is None:
        scale = pl.spread(pts)
    if family == "planted" or (family == "cocircular" and gen.random() < 0.5):
        # now and then a second pair, so that which pair is named matters
        for _ in range(1 + (gen.random() < 0.5)):
            i, j = (int(v) for v in gen.choice(n, 2, replace=False))
            turn = complex(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)))
            factor = float(gen.choice([0.5, 0.999, 1.001, 2.0]))
            pts[j] = pts[i] + factor * pl.EPS_CLASS * scale * turn
    return pts, scale


def named_pair(handed, scale):
    """The pair ensure_distinct names on ``handed``, or None when it finds none."""
    try:
        pl.geom.ensure_distinct(handed, scale)
    except pl.DuplicatePoints as e:
        return tuple(int(t) for t in re.findall(r"\d+", str(e)))
    return None


def check_distinct(gen, family):
    pts, scale = draw_distinct_instance(gen, family)
    band = pl.EPS_CLASS * scale
    expected = brute_force_pair(pts, band)
    got = [named_pair(pts, scale), named_pair(np.asarray(pts, dtype=complex), scale)]
    return got[0] == got[1] == expected, got, expected, pts, scale


def main_distinct(count, seed):
    gen = np.random.default_rng(seed)
    found = 0
    for trial in range(count):
        family = DISTINCT_FAMILIES[trial % len(DISTINCT_FAMILIES)]
        ok, got, expected, pts, scale = check_distinct(gen, family)
        if not ok:
            print(f"distinct disagrees on trial {trial} ({family}, {len(pts)} points)")
            print(f"  ensure_distinct names {got[0]} on a list and {got[1]} on an array,")
            print(f"  the pair test finds {expected}")
            print(f"  scale  = {scale!r}")
            print(f"  points = {pts!r}")
            return 1
        found += expected is not None
    print(f"distinct: {count} trials, {found} with a pair within the band, both paths name its pair")
    return 0


LINF_FAMILIES = ("generic", "antipodal", "cocircular", "zero-y", "wide")


def draw_linf_instance(gen):
    n = int(gen.integers(1, 8))
    family = str(gen.choice(LINF_FAMILIES))
    turns = [complex(np.exp(1j * v)) for v in gen.uniform(0.0, 2.0 * np.pi, n)]
    x = [complex(*gen.normal(0.0, 1.0, 2)) for _ in range(n)]
    y = [complex(*gen.normal(0.0, 1.0, 2)) for _ in range(n)]
    if family != "generic":
        # the first m entries of x share the largest modulus, the rest below
        m = int(gen.integers(1, n + 1))
        x = [(1.0 if i < m else float(gen.uniform(0.1, 0.9))) * u for i, u in enumerate(turns)]
        if family == "antipodal" and n >= 2:
            x[1], y[1] = -x[0], y[0]
        elif family == "zero-y":
            y[int(gen.integers(0, m))] = 0j
        elif family == "wide":
            # one scale for x, one for y, and now and then one per entry of y
            sx, sy = (10.0 ** float(e) for e in gen.uniform(-300.0, 300.0, 2))
            x = [sx * v for v in x]
            if gen.uniform() < 0.5:
                y = [sy * v for v in y]
            else:
                y = [10.0 ** float(gen.uniform(-300.0, 300.0)) * v for v in y]
    return family, x, y


def caratheodory_zero_in_hull(vals, band):
    """True or False for zero in the hull of vals, None near the boundary.

    Zero is in a planar hull exactly when it is in the hull of one, two or
    three of the points.  An exact zero value or an exactly antipodal pair
    decides at once; otherwise the values are scaled to unit length (which
    keeps the cone) and the decision must hold with the boundary moved by
    ten times the band either way.
    """
    mods = [abs(v) for v in vals]
    if min(mods) <= 0.1 * band:
        return True
    if min(mods) < 10.0 * band:
        return None
    units = [v / m for v, m in zip(vals, mods)]
    if any(a == -b for a, b in combinations(units, 2)):
        return True
    margin = 10.0 * band / max(mods)
    near = False
    for a, b in combinations(units, 2):
        # distance from zero to the segment [a, b]
        s = min(1.0, max(0.0, (-(a.conjugate() * (b - a)).real) / abs(b - a) ** 2))
        near = near or abs(a + s * (b - a)) <= margin
    for a, b, c in combinations(units, 3):
        sides = [(p.conjugate() * q).imag for p, q in ((a, b), (b, c), (c, a))]
        if min(sides) > 0.0 or max(sides) < 0.0:
            edges = [abs(s) / abs(q - p) for s, (p, q) in zip(sides, ((a, b), (b, c), (c, a)))]
            if min(edges) >= margin:
                return True
            near = True
    return None if near else False


def check_linf(gen):
    family, x, y = draw_linf_instance(gen)
    top = max(abs(v) for v in x)
    ratios = [abs(v) / top for v in x]
    if any(1.0 - 10.0 * pl.EPS_CLASS < r < 1.0 - 0.1 * pl.EPS_CLASS for r in ratios):
        return True, family, None, "skipped", x, y
    support = [i for i, r in enumerate(ratios) if r >= 1.0 - pl.EPS_CLASS]
    vals = [(x[i] / abs(x[i])).conjugate() * y[i] for i in support]
    band = pl.EPS_CLASS * max(abs(v) for v in vals)
    expected = caratheodory_zero_in_hull(vals, band)
    cert = pl.is_bj_orthogonal_linf(x, y)
    if expected is None:
        return True, family, cert is not None, "skipped", x, y
    ok = (cert is not None) == expected
    if cert is not None:
        rebuilt = sum(cert.t[i] * cert.d[i] * y[i] for i in support)
        ok = ok and tuple(support) == cert.support and abs(rebuilt) <= band
        ok = ok and all(t >= 0.0 for t in cert.t) and abs(sum(cert.t) - 1.0) <= 1e-12
    return ok, family, cert is not None, expected, x, y


def main_linf(count, seed):
    gen = np.random.default_rng(seed)
    tally = {}
    for trial in range(count):
        ok, family, got, expected, x, y = check_linf(gen)
        if not ok:
            print(f"linf disagrees on trial {trial} ({family})")
            print(f"  is_bj_orthogonal_linf passes: {got}, Caratheodory: {expected}")
            print(f"  x = {x!r}")
            print(f"  y = {y!r}")
            return 1
        tally[expected] = tally.get(expected, 0) + 1
    print(
        f"linf: {count} trials, {tally.get(True, 0)} orthogonal, {tally.get(False, 0)} not, "
        f"{tally.get('skipped', 0)} near the boundary skipped, all agree"
    )
    return 0


CLOSED_FAMILIES = ("near-edge", "boundary", "collinear")


def _on_a_line(gen, m):
    """m points on a random line through the square [-1, 1]^2, and its direction."""
    turn = complex(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)))
    base = complex(*gen.uniform(-1.0, 1.0, 2))
    return [base + float(t) * turn for t in gen.uniform(-1.0, 1.0, m)], turn


def draw_closed_instance(gen):
    """A family name, points and weights next to a closed-form case boundary."""
    family = CLOSED_FAMILIES[int(gen.integers(0, len(CLOSED_FAMILIES)))]
    if family == "near-edge":
        while True:
            tri = draw_points(gen, 3)
            if abs(pl.geom._cross(*tri)) >= 0.05 * pl.spread(tri) ** 2:
                break
        e = int(gen.integers(0, 3))
        a, b = tri[e], tri[(e + 1) % 3]
        side = float(gen.choice([-1.0, 1.0])) * 10.0 ** gen.uniform(-10.0, -5.0)
        p = a + float(gen.uniform(0.1, 0.9)) * (b - a) + side * 1j * (b - a)
        pts = tri[: int(gen.integers(0, 4))]
        pts = pts + [p] + tri[len(pts) :]
        return family, pts, (1.0,) * 4
    if family == "boundary":
        pts, turn = _on_a_line(gen, 3)
        pts[2] += 10.0 ** gen.uniform(-12.0, -6.0) * 1j * turn
        a1, a2 = (float(v) for v in gen.uniform(0.5, 2.0, 2))
        sign = float(gen.choice([-1.0, 1.0]))
        heavy = (a1 + a2) * (1.0 + sign * 10.0 ** gen.uniform(-12.0, -6.0))
        weights = [heavy, a1, a2]
        order = gen.permutation(3)
        pts = [pts[int(i)] for i in order]
        return family, pts, tuple(weights[int(i)] for i in order)
    pts, _ = _on_a_line(gen, 4)
    return family, pts, (1.0,) * 4


def check_closed(gen):
    family, pts, weights = draw_closed_instance(gen)
    config = pl.WeightedConfiguration(tuple(pts), weights)
    try:
        if len(pts) == 3:
            res = pl.solve_ft3_weighted(*pts, weights)
        else:
            res = pl.solve_ft4(*pts)
    except pl.NotOrthogonal as e:
        return False, family, f"NotOrthogonal: {e}", pts, weights
    _, oval = pl.oracle_ft(config)
    gap = 1e-6 * max(1.0, config.diameter * config.total_weight)
    got = f"{res.case.value}, objective {res.objective!r}, oracle {oval!r}"
    return res.objective <= oval + gap, family, got, pts, weights


def main_closed(count, seed):
    gen = np.random.default_rng(seed)
    tally = {}
    for trial in range(count):
        ok, family, got, pts, weights = check_closed(gen)
        if not ok:
            print(f"closed form fails on trial {trial} ({family}): {got}")
            print(f"  points  = {pts!r}")
            print(f"  weights = {weights!r}")
            return 1
        tally[family] = tally.get(family, 0) + 1
    counts = ", ".join(f"{tally.get(f, 0)} {f}" for f in CLOSED_FAMILIES)
    print(f"closed: {count} trials ({counts}), all certified within the oracle gap")
    return 0


L1_FAMILIES = ("optimum", "vertex", "in-band", "arbitrary")


def draw_l1_instance(gen):
    """A family name, a configuration and the location to certify there."""
    top = 2 * pl.fermat.ARRAY_MIN if gen.uniform() < 0.5 else 3000
    n = int(gen.integers(2, top + 1))
    family = L1_FAMILIES[int(gen.integers(0, len(L1_FAMILIES)))]
    pts = [complex(x, y) for x, y in gen.uniform(0.0, 1.0, (n, 2))]
    weights = [float(a) for a in gen.uniform(0.5, 2.0, n)]
    if family == "vertex":
        z0 = pts[0]
        pull = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], weights[1:])))
        weights[0] = float(gen.uniform(1.01, 2.0)) * pull
    config = pl.WeightedConfiguration(tuple(pts), tuple(weights))
    if family == "optimum":
        w = pl.solve_ft_n(config).location
    elif family == "vertex":
        w = pts[0]
    elif family == "in-band":
        turn = complex(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)))
        w = pts[int(gen.integers(0, n))] + 0.5 * pl.EPS_CLASS * config.diameter * turn
    else:
        w = complex(*gen.uniform(-0.5, 1.5, 2))
    return family, config, w


def l1_reference(config, w, tol):
    """The sum-norm functional's forced part, slack and free entries, entry by entry."""
    z = np.asarray(config.points, dtype=complex)
    a = np.asarray(config.weights, dtype=float)
    xy = np.stack([z.real, z.imag])
    band = pl.EPS_CLASS * float(np.hypot(*np.ptp(xy, axis=1)))
    forced, slack, free = 0j, 0.0, []
    for i in range(len(z)):
        x = a[i] * (z[i] - w)
        if abs(z[i] - w) <= band:
            slack += a[i]
            free.append(i)
        else:
            forced += complex(np.conj(x) / abs(x)) * a[i]
    return forced, slack, free, abs(forced) - slack - tol * a.sum()


def check_l1(gen):
    family, config, w = draw_l1_instance(gen)
    total = config.total_weight
    cert = pl.ft_certificate(config, w)
    forced, slack, free, margin = l1_reference(config, w, pl.EPS_REL)
    ok = len(cert.d) == config.n and (cert.gamma is not None) == (len(free) == 1)
    ok = ok and abs(cert.forced - forced) <= 1e-12 * total
    ok = ok and abs(cert.slack - slack) <= 1e-12 * total
    if abs(margin) <= 1e-12 * total:
        return ok, family, cert.passed, "skipped", config, w
    expected = bool(margin <= 0.0)
    return ok and cert.passed == expected, family, cert.passed, expected, config, w


def main_l1(count, seed):
    gen = np.random.default_rng(seed)
    tally = {}
    for trial in range(count):
        ok, family, got, expected, config, w = check_l1(gen)
        if not ok:
            print(f"l1 disagrees on trial {trial} ({family}, {config.n} points)")
            print(f"  ft_certificate passes: {got}, entrywise rebuild: {expected}")
            print(f"  w       = {w!r}")
            print(f"  points  = {config.points!r}")
            print(f"  weights = {config.weights!r}")
            return 1
        side = "arrays" if config.n >= pl.fermat.ARRAY_MIN else "loops"
        tally[side] = tally.get(side, 0) + 1
        tally[expected] = tally.get(expected, 0) + 1
    print(
        f"l1: {count} trials ({tally.get('loops', 0)} on the loops, "
        f"{tally.get('arrays', 0)} on the arrays), {tally.get(True, 0)} pass, "
        f"{tally.get(False, 0)} refuse, {tally.get('skipped', 0)} within rounding "
        f"of the boundary skipped, all agree"
    )
    return 0


PATHS_FAMILIES = ("uniform", "clustered", "collinear", "near-collinear", "vertex-optimum")


def draw_paths_instance(gen, family):
    """A median of 5 to 3000 points, log-uniform in n, from the named family."""
    n = int(round(10.0 ** gen.uniform(math.log10(5), math.log10(3000))))
    if family in ("uniform", "vertex-optimum"):
        pts = [complex(x, y) for x, y in gen.uniform(0.0, 3.0, (n, 2))]
    else:
        pts = draw_median_points(gen, n, family)
    weights = [float(a) for a in gen.uniform(0.5, 2.0, n)]
    if family == "vertex-optimum":
        # point 0 outweighs the others' pull there, so it is the optimum
        z0 = pts[0]
        pull = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], weights[1:])))
        weights[0] = float(gen.uniform(1.01, 2.0)) * pull
    return pl.WeightedConfiguration(tuple(pts), tuple(weights))


def on_path(array_min, fn, *args):
    """fn(*args), or the PlanarLocError it raised, with ARRAY_MIN set."""
    saved, pl.fermat.ARRAY_MIN = pl.fermat.ARRAY_MIN, array_min
    try:
        return fn(*args)
    except pl.PlanarLocError as e:
        return e
    finally:
        pl.fermat.ARRAY_MIN = saved


def answer_gaps(config, w):
    """Whether ft_certificate decides alike at w on both paths, and ft_objective's relative gap."""
    (cert_a, obj_a), (cert_l, obj_l) = (
        (on_path(m, pl.ft_certificate, config, w), on_path(m, pl.ft_objective, config, w))
        for m in (0, sys.maxsize)
    )
    return cert_a.passed == cert_l.passed, abs(obj_a - obj_l) / obj_l


def main_paths(count, seed):
    gen = np.random.default_rng(seed)
    refused, worst, worst_at = 0, 0.0, 0.0
    for trial in range(count):
        family = PATHS_FAMILIES[trial % len(PATHS_FAMILIES)]
        config = draw_paths_instance(gen, family)
        on_arrays = on_path(0, pl.solve_ft_n, config)
        on_loops = on_path(sys.maxsize, pl.solve_ft_n, config)
        certified = [not isinstance(r, pl.PlanarLocError) for r in (on_arrays, on_loops)]
        if certified[0] != certified[1]:
            print(f"paths disagree on trial {trial} ({family}, {config.n} points)")
            print(f"  on the arrays: {on_arrays!r}")
            print(f"  on the loops:  {on_loops!r}")
            print(f"  points  = {config.points!r}")
            print(f"  weights = {config.weights!r}")
            return 1
        if not all(certified):
            refused += 1
            continue
        gap = abs(on_arrays.objective - on_loops.objective) / on_loops.objective
        worst = max(worst, gap)
        for side, res in (("arrays", on_arrays), ("loops", on_loops)):
            alike, at_answer = answer_gaps(config, res.location)
            worst_at = max(worst_at, at_answer)
            if not (alike and at_answer <= 1e-12):
                print(f"paths disagree on trial {trial} ({family}, {config.n} points)")
                print(f"  at the answer on the {side}, {res.location!r}: the certificates decide "
                      f"{'alike' if alike else 'apart'}, objective gap {at_answer:.3e}")
                print(f"  points  = {config.points!r}")
                print(f"  weights = {config.weights!r}")
                return 1
    print(
        f"paths: {count} trials, {count - refused} certified on both paths, "
        f"{refused} refused on both, worst relative objective gap {worst:.3e}; "
        f"at each answer the certificates decide alike and the objectives "
        f"differ by at most {worst_at:.3e}"
    )
    return 0


TYPED = (ValueError, pl.PlanarLocError)


def draw_interior(gen):
    """A configuration of 3 to 40 points and its certified optimum clear of every point."""
    while True:
        n = int(gen.integers(3, 41))
        weights = tuple(float(a) for a in gen.uniform(0.5, 2.0, n))
        config = pl.WeightedConfiguration(tuple(draw_points(gen, n)), weights)
        res = pl.solve_ft_n(config)
        if res.certificate.slack == 0.0:
            return config, res.location


def perturb_probes(gen, config, w, i):
    """Named points to hand the perturbation functions, as new and as query points."""
    ray = config.points[i] - w
    c = float(gen.uniform(0.05, 3.0))
    theta = float(gen.choice([-1.0, 1.0])) * 10.0 ** gen.uniform(-10.0, -1.0)
    probes = {
        "ray": w + c * ray,
        "rotated": w + c * ray * cmath.exp(1j * theta),
        "at-w": w,
        "point": config.points[i],
    }
    far = config.diameter * complex(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)))
    for k in (1e6, 1e12, 1e300):
        probes[f"{k:.0e}-out"] = w + k * far
    probes["largest"] = complex(1.7e308, 1.7e308)  # its offsets' moduli overflow
    probes["inf"], probes["nan"] = complex(math.inf, 0.0), complex(math.nan, 0.0)
    return probes


def moved_passes(config, w, i, s):
    """The certificate of the configuration with point i moved to s, at w."""
    points = list(config.points)
    points[i] = s
    return pl.ft_certificate(pl.WeightedConfiguration(tuple(points), config.weights), w).passed


def perturb_calls(config, w, i, p, alpha):
    """The calls that take p as new point or as query point, by name."""

    def alone():
        return pl.WeightedConfiguration((p,), (alpha,))

    ones = (1.0,) * config.n
    return {
        "addition_preserves(new)": lambda: pl.addition_preserves(config, w, p, alpha),
        "addition_preserves(query)": lambda: pl.addition_preserves(config, p, w, alpha),
        "replacement_preserves(new)": lambda: pl.replacement_preserves(config, w, i, p),
        "replacement_preserves(query)": lambda: pl.replacement_preserves(config, p, i, w),
        "decomposition_equivalence(new)": lambda: pl.decomposition_equivalence(config, w, alone()),
        "decomposition_equivalence(query)": lambda: pl.decomposition_equivalence(
            config, p, alone()
        ),
        "scaled_configuration(query)": lambda: pl.scaled_configuration(config, p, ones),
        "extend_at_vertex(query)": lambda: pl.extend_at_vertex(config, p, alpha),
    }


def outcome(call):
    """The call's answer, or the type of the ValueError or PlanarLocError it raised."""
    try:
        return call()
    except TYPED as e:
        return type(e)


def check_perturb(gen):
    """The instance, and None when every call answers as it must, else a line on the first."""
    config, w = draw_interior(gen)
    i = int(gen.integers(0, config.n))
    alpha = float(gen.uniform(0.5, 2.0))
    instance = (config, w, i, alpha)
    for name, p in perturb_probes(gen, config, w, i).items():
        got = {}
        for call_name, call in perturb_calls(config, w, i, p, alpha).items():
            try:
                got[call_name] = outcome(call)
            except Exception as e:
                return instance, f"{call_name} at the {name} point {p!r} raised {e!r}"
        got = got["replacement_preserves(new)"]
        expected = outcome(lambda: moved_passes(config, w, i, p))
        if got != expected:
            return instance, (
                f"replacement_preserves at the {name} point {p!r} gave {got!r}, "
                f"the certificate of the moved configuration {expected!r}"
            )
    for scale in (float(gen.uniform(0.5, 2.0)), -1.0, 1e6, 1e12, 1e300, math.inf, math.nan):
        try:
            outcome(lambda: pl.scaled_configuration(config, w, (scale,) * config.n))
        except Exception as e:
            return instance, f"scaled_configuration by {scale!r} raised {e!r}"
    return instance, None


def main_perturb(count, seed):
    gen = np.random.default_rng(seed)
    for trial in range(count):
        (config, w, i, alpha), failure = check_perturb(gen)
        if failure is not None:
            print(f"perturb fails on trial {trial}: {failure}")
            print(f"  w = {w!r}, index = {i}, alpha = {alpha!r}")
            print(f"  points  = {config.points!r}")
            print(f"  weights = {config.weights!r}")
            return 1
    print(
        f"perturb: {count} certified optima, every call answered or raised a typed "
        f"error, every replacement as the moved certificate"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument(
        "--kind",
        choices=(
            "fermat", "chebyshev", "both", "distinct", "linf", "closed", "l1", "paths", "perturb"
        ),
        default="both",
    )
    args = ap.parse_args()
    if args.kind == "distinct":
        return main_distinct(args.count, args.seed)
    if args.kind == "linf":
        return main_linf(args.count, args.seed)
    if args.kind == "closed":
        return main_closed(args.count, args.seed)
    if args.kind == "l1":
        return main_l1(args.count, args.seed)
    if args.kind == "paths":
        return main_paths(args.count, args.seed)
    if args.kind == "perturb":
        return main_perturb(args.count, args.seed)
    gen = np.random.default_rng(args.seed)
    checks = []
    if args.kind in ("fermat", "both"):
        checks.append(("median", check_median))
        checks.append(("triangle", check_triangle))
    if args.kind in ("chebyshev", "both"):
        checks.append(("circle", check_circle))
    worst = {name: -math.inf for name, _ in checks}
    for trial in range(args.count):
        n = int(gen.integers(1, args.n_max + 1))
        for name, check in checks:
            ok, gap, instance = check(gen, n)
            if not ok:
                pts, weights = instance
                print(f"{name} disagrees on trial {trial} (gap {gap:.3e})")
                print(f"  points  = {pts!r}")
                print(f"  weights = {weights!r}")
                return 1
            worst[name] = max(worst[name], gap)
    for name, gap in worst.items():
        print(f"{name}: {args.count} trials, worst oracle gap {gap:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
