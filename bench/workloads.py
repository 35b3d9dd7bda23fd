"""Seeded instances for the four workloads.

A workload is one *round*: a fixed list of operations that every run
repeats whole.  The seed moves the coordinates and weights; the families,
sizes and order of the operations are fixed here, so two seeds cost about
the same.  README.md in this directory lists the make-up of every round
and the measured effect of the seed.

Everything here is plain numpy and stdlib: the program under test never
sees the generator, only the points and weights it produces.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("median-large", "tiny", "circle", "cli")

# Points closer than this share of the instance's spread are moved apart
# before the instance is used, so no round ever trips the program's
# duplicate check (its band is 1e-7 of the spread).
MIN_SEPARATION = 1e-5


@dataclass(frozen=True)
class Op:
    """One solve: which public solver, on which raw points and weights.

    ``solver`` names the entry point: ``median`` (WeightedConfiguration
    then solve_ft_n), ``ft3``, ``ft4``, ``circle``, ``circle_w`` or
    ``cli``.  ``kind`` is ``fermat`` or ``chebyshev``.  For ``cli`` the
    operation also carries the problem file name and extra arguments.
    """

    label: str
    solver: str
    kind: str
    points: tuple
    weights: Optional[tuple]
    file: Optional[str] = None
    args: tuple = ()


# ---------------------------------------------------------------------------
# point families


def _separate(rng, pts: np.ndarray, redraw) -> np.ndarray:
    """Redraw points until no two sit within MIN_SEPARATION of the spread."""
    for _ in range(100):
        span = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
        band = MIN_SEPARATION * span
        bad = set()
        for lo in range(0, len(pts), 256):
            block = pts[lo:lo + 256]
            d = np.hypot(*(block[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
            for r, c in zip(*np.nonzero(d <= band)):
                if lo + r < c:
                    bad.add(int(c))
        if not bad:
            return pts
        for i in sorted(bad):
            pts[i] = redraw(rng)
    raise RuntimeError("could not separate the generated points")


def uniform(rng, n):
    return _separate(rng, rng.uniform(-1.0, 1.0, (n, 2)),
                     lambda g: g.uniform(-1.0, 1.0, 2))


def clustered(rng, n, k=5, sigma=0.05):
    centers = rng.uniform(-1.0, 1.0, (k, 2))
    which = rng.integers(0, k, n)
    pts = centers[which] + rng.normal(0.0, sigma, (n, 2))
    return _separate(rng, pts, lambda g: centers[g.integers(0, k)] + g.normal(0.0, sigma, 2))


def near_collinear(rng, n, width=1e-4):
    """Points along a random line through the origin, off it by ~width."""
    t = rng.uniform(-1.0, 1.0, n)
    off = rng.normal(0.0, width, n)
    u = cmath.exp(1j * rng.uniform(0.0, math.pi))
    z = (t + 1j * off) * u
    pts = np.column_stack([z.real, z.imag])

    def redraw(g):
        w = (g.uniform(-1.0, 1.0) + 1j * g.normal(0.0, width)) * u
        return np.array([w.real, w.imag])

    return _separate(rng, pts, redraw)


def cocircular(rng, n):
    """Points on one circle, angles jittered around an even spacing.

    The jitter stays below half a spacing, so no gap reaches half a turn
    and the circle itself is the covering circle.
    """
    step = 2.0 * math.pi / n
    theta = np.arange(n) * step + rng.uniform(-0.4, 0.4, n) * step
    center = rng.uniform(-1.0, 1.0, 2)
    r = rng.uniform(0.5, 1.5)
    return center + r * np.column_stack([np.cos(theta), np.sin(theta)])


def weights_for(rng, n):
    return rng.uniform(0.5, 2.0, n)


def _as_points(pts: np.ndarray) -> tuple:
    return tuple(complex(float(x), float(y)) for x, y in pts)


def _as_weights(w) -> tuple:
    return tuple(float(a) for a in w)


# ---------------------------------------------------------------------------
# median-large

# (family, n); two sizes per family so the O(n^2) terms show at both ends.
# An odd count puts the median latency among the samples of the two
# 1000-point instances, not on a boundary between two instances' samples.
MEDIAN_LARGE = (
    ("uniform", 2000), ("uniform", 1000), ("uniform", 700),
    ("clustered", 1600), ("clustered", 500),
    ("near-collinear", 1400), ("near-collinear", 400),
    ("cocircular", 1000), ("cocircular", 800),
    ("vertex-optimum", 1800), ("vertex-optimum", 600),
    ("offset-1e4", 1200), ("offset-1e4", 900),
)


def _median_family(rng, family, n):
    if family == "uniform":
        pts = uniform(rng, n)
    elif family == "clustered":
        pts = clustered(rng, n)
    elif family == "near-collinear":
        pts = near_collinear(rng, n)
    elif family == "cocircular":
        pts = cocircular(rng, n)
    elif family == "vertex-optimum":
        pts = uniform(rng, n)
    elif family == "offset-1e4":
        pts = uniform(rng, n) + 1e4
    else:
        raise ValueError(family)
    w = weights_for(rng, n)
    if family == "vertex-optimum":
        # one weight at least the sum of the others pins the optimum there
        k = int(rng.integers(0, n))
        w[k] = float(w.sum() - w[k])
    return pts, w


def median_large(rng):
    ops = []
    for family, n in MEDIAN_LARGE:
        pts, w = _median_family(rng, family, n)
        ops.append(Op(f"{family}-{n}", "median", "fermat", _as_points(pts), _as_weights(w)))
    return ops


# ---------------------------------------------------------------------------
# tiny


def _triangle(rng, kind):
    """Three points and weights that land in the named solver case."""
    if kind == "vertex":
        # an angle near 150 degrees at the first point beats unit weights
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.5, 1.5)
        half = math.radians(rng.uniform(70.0, 80.0))
        rot = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z0 = complex(*rng.uniform(-1.0, 1.0, 2))
        pts = (z0, z0 + a * rot * cmath.exp(1j * half), z0 + b * rot * cmath.exp(-1j * half))
        return pts, (1.0, 1.0, 1.0)
    # near-equilateral, every angle well below 120 degrees
    z0 = complex(*rng.uniform(-1.0, 1.0, 2))
    rot = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    r = rng.uniform(0.5, 1.5)
    pts = tuple(
        z0 + r * rot * cmath.exp(1j * (2.0 * math.pi * k / 3 + rng.uniform(-0.15, 0.15)))
        for k in range(3)
    )
    w1, w2 = rng.uniform(0.8, 1.2, 2)
    if kind == "dominant":
        return pts, (float(1.5 * (w1 + w2)), float(w1), float(w2))
    if kind == "boundary":
        return pts, (float(w1 + w2), float(w1), float(w2))
    if kind == "interior":
        return pts, (float(rng.uniform(0.8, 1.2)), float(w1), float(w2))
    raise ValueError(kind)


def _quad(rng, convex):
    z0 = complex(*rng.uniform(-1.0, 1.0, 2))
    r = rng.uniform(0.5, 1.5)
    if convex:
        theta = (np.arange(4) + rng.uniform(-0.25, 0.25, 4)) * (math.pi / 2)
        return tuple(z0 + r * cmath.exp(1j * t) for t in theta)
    tri = [z0 + r * cmath.exp(1j * (2.0 * math.pi * k / 3 + rng.uniform(-0.2, 0.2)))
           for k in range(3)]
    t = rng.dirichlet((4.0, 4.0, 4.0))
    inner = sum(float(tk) * zk for tk, zk in zip(t, tri))
    pts = tri + [inner]
    order = rng.permutation(4)
    return tuple(pts[int(i)] for i in order)


# Copies of each tiny instance class per round.  A class's cost moves with
# the seed's geometry (iterations, hull-filtered candidates); drawing many
# instances per class keeps a round's cost and its slowest solves from
# depending on which seed the run was given.
TINY_COPIES = 8


def tiny(rng):
    ops = []
    for kind in ("dominant", "boundary", "vertex", "interior"):
        for _ in range(2 * TINY_COPIES):
            pts, w = _triangle(rng, kind)
            ops.append(Op(f"ft3-{kind}", "ft3", "fermat", tuple(pts), tuple(w)))
    for convex in (True, False):
        for _ in range(2 * TINY_COPIES):
            label = "ft4-convex" if convex else "ft4-nonconvex"
            ops.append(Op(label, "ft4", "fermat", _quad(rng, convex), None))
    for n in (5, 6, 7, 8):
        for _ in range(TINY_COPIES):
            ops.append(Op(f"ftn-{n}", "median", "fermat", _as_points(uniform(rng, n)),
                          _as_weights(weights_for(rng, n))))
    for n in (3, 4, 5, 6):
        for _ in range(TINY_COPIES):
            ops.append(Op(f"circle-{n}", "circle", "chebyshev", _as_points(uniform(rng, n)), None))
    for n in (3, 4, 5, 6):
        for _ in range(TINY_COPIES):
            ops.append(Op(f"circle-w-{n}", "circle_w", "chebyshev", _as_points(uniform(rng, n)),
                          _as_weights(weights_for(rng, n))))
    return ops


# ---------------------------------------------------------------------------
# circle

CIRCLE_PLAIN = (
    ("uniform", 40), ("uniform", 45), ("clustered", 40), ("clustered", 35),
    ("near-collinear", 45), ("near-collinear", 30), ("cocircular", 20),
)
CIRCLE_WEIGHTED = (
    ("uniform", 15), ("uniform", 20), ("uniform", 25),
    ("clustered", 18), ("clustered", 20), ("clustered", 22),
)
_FAMILIES = {"uniform": uniform, "clustered": clustered,
             "near-collinear": near_collinear, "cocircular": cocircular}


# Each (family, n) is drawn this many times per round, for the same
# reason as TINY_COPIES.
CIRCLE_COPIES = 2


def circle(rng):
    ops = []
    for _ in range(CIRCLE_COPIES):
        for family, n in CIRCLE_PLAIN:
            pts = _FAMILIES[family](rng, n)
            ops.append(Op(f"{family}-{n}", "circle", "chebyshev", _as_points(pts), None))
        for family, n in CIRCLE_WEIGHTED:
            pts = _FAMILIES[family](rng, n)
            ops.append(Op(f"w-{family}-{n}", "circle_w", "chebyshev", _as_points(pts),
                          _as_weights(weights_for(rng, n))))
    return ops


# ---------------------------------------------------------------------------
# cli

# (file name, kind, family, n, weighted)
CLI_FILES = (
    ("median-1300.json", "fermat", "uniform", 1300, True),
    ("median-400.csv", "fermat", "clustered", 400, True),
    ("median-3.json", "fermat", "uniform", 3, True),
    ("circle-30.json", "chebyshev", "uniform", 30, False),
    ("circle-w-15.csv", "chebyshev", "uniform", 15, True),
)


def cli(rng):
    ops = []
    for name, kind, family, n, weighted in CLI_FILES:
        pts = _FAMILIES[family](rng, n)
        w = _as_weights(weights_for(rng, n)) if weighted else None
        args = ("--kind", kind) if name.endswith(".csv") else ()
        ops.append(Op(name, "cli", kind, _as_points(pts), w, file=name, args=args))
    return ops


def problem_text(op: Op) -> str:
    """The problem file for a cli operation, JSON or CSV by its name."""
    if op.file.endswith(".csv"):
        rows = []
        for i, z in enumerate(op.points):
            row = [repr(z.real), repr(z.imag)]
            if op.weights is not None:
                row.append(repr(op.weights[i]))
            rows.append(",".join(row))
        return "# x,y[,weight]\n" + "\n".join(rows) + "\n"
    doc = {"kind": op.kind, "points": [[z.real, z.imag] for z in op.points]}
    if op.weights is not None:
        doc["weights"] = list(op.weights)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# rounds and warm-up

_BUILDERS = {"median-large": median_large, "tiny": tiny, "circle": circle, "cli": cli}


def build_round(workload: str, seed: int) -> list:
    """The operations of one round, the same for the same seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


# One fixed small instance per public solver; the warm-up runs each once
# before timing so first-call costs land in set-up, not in the first solve.
_WARM_PTS = (0j, 2 + 0j, 3 + 1j, 1 + 2j, -1 + 1j)
_WARM_W = (1.0, 2.0, 1.0, 1.5, 1.2)
WARMUP = {
    "median": Op("warm-median", "median", "fermat", _WARM_PTS, _WARM_W),
    "ft3": Op("warm-ft3", "ft3", "fermat", _WARM_PTS[:3], _WARM_W[:3]),
    "ft4": Op("warm-ft4", "ft4", "fermat", _WARM_PTS[:4], None),
    "circle": Op("warm-circle", "circle", "chebyshev", _WARM_PTS, None),
    "circle_w": Op("warm-circle-w", "circle_w", "chebyshev", _WARM_PTS, _WARM_W),
}
WARMUP_CLI = (
    Op("warm-median-3", "cli", "fermat", _WARM_PTS[:3], _WARM_W[:3], file="warm-median-3.json"),
    Op("warm-median-5", "cli", "fermat", _WARM_PTS, _WARM_W, file="warm-median-5.json"),
    Op("warm-circle", "cli", "chebyshev", _WARM_PTS, None, file="warm-circle.json"),
    Op("warm-circle-w", "cli", "chebyshev", _WARM_PTS, _WARM_W, file="warm-circle-w.json"),
)

WARMUP_SOLVERS = {
    "median-large": ("median",),
    "tiny": ("median", "ft3", "ft4", "circle", "circle_w"),
    "circle": ("circle", "circle_w"),
}
