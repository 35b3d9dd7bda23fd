"""Shared generators for the suite.

Random data is drawn through the ``rng`` fixture, which seeds a fresh
generator from the test id so each test owns a stable stream and renaming
or reordering one test never reshuffles another's data.  The module level
helpers build the structured inputs several files need: weight triples
satisfying the triangle condition, convex quadrilaterals, parallelograms,
configurations whose optimum sits strictly inside, configurations whose
optimum is one of their own points, and parametric samplers for each
orthogonality type.  ``run_planarloc`` starts the command line in a child
process, and ``run_python`` any other child interpreter.  ``FAR_TRIANGLE``
with ``FAR_WEIGHTS`` is a frozen triangle far from the origin whose
interior point the three-point solver cannot certify, so it must refuse
it; ``light_vertex_instance`` is a frozen median whose vertex optimum
passes only a loose tolerance.
"""

import cmath
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import planarloc
from planarloc import (
    FtCase,
    WeightedConfiguration,
    solve_ft3_weighted,
    solve_ft_n,
)


@pytest.fixture
def rng(request):
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


def run_python(args, cwd, timeout):
    """Run ``python *args`` in a child process and capture it.

    The child's PYTHONPATH starts with the directory that holds the
    ``planarloc`` imported here, so it runs the package under test whether
    or not another copy is installed.  ``-m`` and ``-c`` put the working
    directory ahead of PYTHONPATH, so pass a ``cwd`` that holds no
    ``planarloc``.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(planarloc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_planarloc(args, cwd, timeout):
    """Run ``python -m planarloc *args`` in a child process, as run_python."""
    return run_python(["-m", "planarloc", *args], cwd, timeout)


def triangle_weights(gen, low=0.5, high=2.0):
    """Weight triple in [low, high] with every entry below the sum of the others."""
    while True:
        a, b, c = (float(v) for v in gen.uniform(low, high, 3))
        if a < b + c and b < a + c and c < a + b:
            return (a, b, c)


def distinct_points(gen, n, box=1.0, min_gap=1e-2):
    """n points uniform in [0, box]^2 with pairwise gap at least min_gap."""
    while True:
        xy = gen.uniform(0.0, box, (n, 2))
        z = xy[:, 0] + 1j * xy[:, 1]
        if n == 1:
            return [complex(z[0])]
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        if float(d.min()) >= min_gap:
            return [complex(v) for v in z]


def convex_quad(gen):
    """Four points in convex position, listed in traversal order.

    Points on a circle stay convex under any invertible affine map, which
    is how the generator escapes the purely cyclic shapes.
    """
    while True:
        ang = np.sort(gen.uniform(0.0, 2.0 * math.pi, 4))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        if float(gaps.min()) < 0.2:
            continue
        m = gen.uniform(-1.0, 1.0, (2, 2))
        if abs(float(np.linalg.det(m))) < 0.25:
            continue
        z = np.exp(1j * ang)
        xy = m @ np.stack([z.real, z.imag])
        shift = complex(*gen.uniform(-1.0, 1.0, 2))
        return tuple(complex(x, y) + shift for x, y in zip(xy[0], xy[1]))


def parallelogram(gen):
    a = complex(*gen.uniform(-1.0, 1.0, 2))
    while True:
        u = complex(*gen.uniform(-1.0, 1.0, 2))
        v = complex(*gen.uniform(-1.0, 1.0, 2))
        if abs(u) > 0.2 and abs(v) > 0.2 and abs((u.conjugate() * v).imag) > 0.1:
            return (a, a + u, a + u + v, a + v)


def interior_instance(gen, n):
    """Configuration plus its certified optimum, away from every point."""
    while True:
        pts = distinct_points(gen, n, box=2.0, min_gap=0.2)
        wts = tuple(float(x) for x in gen.uniform(0.8, 1.25, n))
        config = WeightedConfiguration(tuple(pts), wts)
        res = solve_ft_n(config)
        w = res.location
        if res.certificate.passed and min(abs(z - w) for z in pts) > 0.05:
            return config, w


def vertex_instance(gen, n=3):
    """Configuration whose optimum is its own first point, plus the result.

    The first point carries the largest weight and the others spread around
    it, which keeps their direction sum short; instances where the dispatch
    still lands elsewhere are rejected.
    """
    while True:
        base = complex(*gen.uniform(-1.0, 1.0, 2))
        ang = np.sort(gen.uniform(0.0, 2.0 * math.pi, n - 1))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        if float(gaps.min()) < 0.25:
            continue
        others = [
            base + float(gen.uniform(0.6, 1.4)) * cmath.exp(1j * float(a))
            for a in ang
        ]
        wts = [float(gen.uniform(1.1, 1.5))]
        wts += [float(gen.uniform(0.45, 0.75)) for _ in others]
        config = WeightedConfiguration(tuple([base] + others), tuple(wts))
        if n == 3:
            res = solve_ft3_weighted(*config.points, config.weights)
        else:
            res = solve_ft_n(config)
        if res.case is FtCase.VERTEX and res.vertex == 0 and res.certificate.passed:
            return config, res


FAR_TRIANGLE = (
    991874.5069742983 - 9448817.19699532j,
    991874.0831929061 - 9448816.946709929j,
    991874.0566560188 - 9448817.281640742j,
)
FAR_WEIGHTS = (0.764, 0.5, 0.591)


def light_vertex_instance():
    """Frozen 20 points whose point 0 weighs just under the others' pull.

    Points uniform in the unit square and weights in [0.5, 2]
    (``default_rng(2)``), then point 0's weight set to (1 - 1e-8) times the
    modulus of the other points' weighted unit pull there.  Point 0 passes
    the slack test at the relative tolerance 1e-6 but not at 1e-10.
    """
    gen = np.random.default_rng(2)
    pts = tuple(complex(*p) for p in gen.uniform(0.0, 1.0, (20, 2)))
    wts = [float(a) for a in gen.uniform(0.5, 2.0, 20)]
    z0 = pts[0]
    pull = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], wts[1:])))
    wts[0] = pull * (1.0 - 1e-8)
    return pts, tuple(wts)


def unit(gen):
    return cmath.exp(1j * float(gen.uniform(0.0, 2.0 * math.pi)))


def _threshold(ai, aj, ak):
    # cosine bound a slot pair (i, j) must meet when k is the empty slot
    return (ak * ak - ai * ai - aj * aj) / (2.0 * ai * aj)


def sample_type3(gen, tag, weights):
    """Vector of the requested type, orthogonal to the given weight triple."""
    a1, a2, a3 = weights
    lam = float(gen.uniform(0.3, 3.0))
    if tag == "I":
        slot = int(gen.integers(0, 3))
        out = [0j, 0j, 0j]
        out[slot] = lam * unit(gen)
        return tuple(out)
    if tag == "II":
        i, j = [(0, 1), (0, 2), (1, 2)][int(gen.integers(0, 3))]
        k = 3 - i - j
        top = _threshold(weights[i], weights[j], weights[k])
        # stay a little inside the admissible cosine range [-1, top]
        c = -1.0 + (top + 1.0) * float(gen.uniform(0.0, 0.995))
        theta = math.acos(max(-1.0, min(1.0, c)))
        mu = unit(gen)
        sigma = mu * cmath.exp(1j * theta * (1 if gen.uniform() < 0.5 else -1))
        t = float(gen.uniform(0.1, 0.9))
        out = [0j, 0j, 0j]
        out[i] = lam * t * mu
        out[j] = lam * (1.0 - t) * sigma
        return tuple(out)
    # three live slots: the direction triple is rigid up to rotation, so
    # build it from the first angle equality and close the sum exactly
    u1 = unit(gen)
    theta = math.acos(max(-1.0, min(1.0, _threshold(a1, a2, a3))))
    u2 = u1 * cmath.exp(1j * theta)
    u3 = -(a1 * u1 + a2 * u2) / a3
    t = gen.dirichlet((2.0, 2.0, 2.0))
    return tuple(lam * float(ti) * uk.conjugate() for ti, uk in zip(t, (u1, u2, u3)))


def sample_type4(gen, tag):
    """Vector of the requested type, orthogonal to unit weights in length 4."""
    lam = float(gen.uniform(0.3, 3.0))
    out = [0j, 0j, 0j, 0j]
    if tag == "I":
        out[int(gen.integers(0, 4))] = lam * unit(gen)
        return tuple(out)
    if tag == "II":
        slots = gen.permutation(4)[:2]
        t = float(gen.uniform(0.1, 0.9))
        out[int(slots[0])] = lam * t * unit(gen)
        out[int(slots[1])] = lam * (1.0 - t) * unit(gen)
        return tuple(out)
    if tag == "III":
        empty = int(gen.integers(0, 4))
        while True:
            mu, sigma = unit(gen), unit(gen)
            if not 0.2 < abs(mu + sigma) < 1.9:
                continue
            jitter = float(gen.uniform(-0.3, 0.3))
            gamma = -(mu + sigma) / abs(mu + sigma) * cmath.exp(1j * jitter)
            if abs(mu + sigma + gamma) <= 0.95:
                break
        t = gen.dirichlet((2.0, 2.0, 2.0))
        vals = [lam * float(ti) * u for ti, u in zip(t, (mu, sigma, gamma))]
        k = 0
        for slot in range(4):
            if slot != empty:
                out[slot] = vals[k]
                k += 1
        return tuple(out)
    # two antipodal pairs, a rectangle of directions
    mu, sigma = unit(gen), unit(gen)
    t = gen.dirichlet((2.0, 2.0, 2.0, 2.0))
    dirs = (mu, sigma, -mu, -sigma)
    return tuple(lam * float(ti) * u for ti, u in zip(t, dirs))
