"""Random sweep of the solvers against the grid refinement oracle.

Draws instances with distinct points and moderate weights, solves each with
the certified solver, and compares objective values with the oracle.  The
median is checked twice: by the general solver on n points and by the
three-point closed form on a triangle.  ``--kind distinct`` instead checks
the duplicate test ``geom.ensure_distinct`` against a numpy brute-force
pair test on 33 to 3000 points: uniform, on an axis-aligned line, on a
lattice at 0.999, 1 or 1.001 of the band, or with a planted pair.  Exits
nonzero on the first disagreement, printing the offending instance so it
can be frozen into a regression test.

    python3 scripts/random_cross_check.py --count 200 --seed 7
    python3 scripts/random_cross_check.py --kind distinct --count 100
"""

import argparse
import re
import sys

import numpy as np

import planarloc as pl


def draw_points(gen, n, box=3.0, min_gap=2e-2):
    pts = []
    while len(pts) < n:
        z = complex(gen.uniform(0.0, box), gen.uniform(0.0, box))
        if all(abs(z - q) > min_gap for q in pts):
            pts.append(z)
    return pts


def check_median(gen, n):
    pts = draw_points(gen, n)
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
    gap = abs(res.radius - oradius)
    diam = max(abs(a - b) for a in pts for b in pts)
    return gap <= 1e-5 * max(diam, 1.0), gap, (pts, weights)


def brute_force_pair(pts, band):
    """First pair (i, j), i < j, with abs(z_i - z_j) <= band, or None."""
    z = np.asarray(pts, dtype=complex)
    for i in range(len(z) - 1):
        hits = np.flatnonzero(np.abs(z[i + 1 :] - z[i]) <= band)
        if hits.size:
            return i, i + 1 + int(hits[0])
    return None


def draw_distinct_instance(gen):
    n = int(gen.integers(pl.geom.PAIR_LOOP_MAX + 1, 3001))
    offset = complex(*gen.uniform(-1.0, 1.0, 2)) * 10.0 ** gen.uniform(0.0, 8.0)
    family = str(gen.choice(["uniform", "vertical", "horizontal", "lattice", "planted"]))
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
    pts = [offset + complex(x, y) for x, y in xy]
    if scale is None:
        scale = pl.spread(pts)
    if family == "planted":
        i, j = (int(v) for v in gen.choice(n, 2, replace=False))
        turn = complex(np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)))
        factor = float(gen.choice([0.5, 0.999, 1.001, 2.0]))
        pts[j] = pts[i] + factor * pl.EPS_CLASS * scale * turn
    return family, pts, scale


def check_distinct(gen):
    family, pts, scale = draw_distinct_instance(gen)
    expected = brute_force_pair(pts, pl.EPS_CLASS * scale)
    try:
        pl.geom.ensure_distinct(pts, scale)
        got = None
    except pl.DuplicatePoints as e:
        got = tuple(int(t) for t in re.findall(r"\d+", str(e)))
    ok = (got is None) == (expected is None)
    if got is not None:
        i, j = got
        ok = ok and i != j and abs(pts[i] - pts[j]) <= pl.EPS_CLASS * scale
    return ok, family, got, expected, pts, scale


def main_distinct(count, seed):
    gen = np.random.default_rng(seed)
    found = 0
    for trial in range(count):
        ok, family, got, expected, pts, scale = check_distinct(gen)
        if not ok:
            print(f"distinct disagrees on trial {trial} ({family}, {len(pts)} points)")
            print(f"  ensure_distinct names {got}, the pair test finds {expected}")
            print(f"  scale  = {scale!r}")
            print(f"  points = {pts!r}")
            return 1
        found += expected is not None
    print(f"distinct: {count} trials, {found} with a pair within the band, all agree")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument(
        "--kind", choices=("fermat", "chebyshev", "both", "distinct"), default="both"
    )
    args = ap.parse_args()
    if args.kind == "distinct":
        return main_distinct(args.count, args.seed)
    gen = np.random.default_rng(args.seed)
    checks = []
    if args.kind in ("fermat", "both"):
        checks.append(("median", check_median))
        checks.append(("triangle", check_triangle))
    if args.kind in ("chebyshev", "both"):
        checks.append(("circle", check_circle))
    worst = {name: 0.0 for name, _ in checks}
    for trial in range(args.count):
        n = int(gen.integers(3, args.n_max + 1))
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
