"""Random sweep of the solvers against the grid refinement oracle.

Draws instances with distinct points and moderate weights, solves each with
the certified solver, and compares objective values with the oracle.  The
median is checked twice: by the general solver on n points and by the
three-point closed form on a triangle.  Exits nonzero on the first
disagreement, printing the offending instance so it can be frozen into a
regression test.

    python3 scripts/random_cross_check.py --count 200 --seed 7
"""

import argparse
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument(
        "--kind", choices=("fermat", "chebyshev", "both"), default="both"
    )
    args = ap.parse_args()
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
