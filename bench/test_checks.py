"""Self-test of the benchmark's own answer checks and its metric table.

The checks must accept right answers and reject the near misses a fast,
broken solver could return: a weighted centroid given as a median, a
circle center moved by 1% of the radius, and a radius shrunk by 1%.
"""

import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads


def _weiszfeld(z, w, steps=5000):
    x = complex((w * z).sum() / w.sum())
    for _ in range(steps):
        inv = w / np.abs(z - x)
        x = complex((inv * z).sum() / inv.sum())
    return x


def _min_circle(z):
    """Least covering circle by exhaustive pairs and triples (small n only)."""
    best = None
    cands = [0.5 * (a + b) for a, b in itertools.combinations(z, 2)]
    for a, b, c in itertools.combinations(z, 3):
        d = 2.0 * ((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
        if abs(d) > 1e-12:
            ab, ac = abs(b) ** 2 - abs(a) ** 2, abs(c) ** 2 - abs(a) ** 2
            cands.append(complex(((c - a).imag * ab - (b - a).imag * ac) / d,
                                 ((b - a).real * ac - (c - a).real * ab) / d))
    for c in cands:
        r = float(np.abs(z - c).max())
        if best is None or r < best[1]:
            best = (c, r)
    return best


@pytest.fixture
def cloud():
    rng = np.random.default_rng(7)
    z = rng.uniform(-1.0, 1.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    return z, rng.uniform(0.5, 2.0, 40)


def test_median_accepts_optima(cloud):
    z, w = cloud
    x = _weiszfeld(z, w)
    assert checks.median(z, w, x, float(np.abs(z - x) @ w)) is None
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    assert checks.median(square, None, 0j, 4.0 * math.sqrt(2.0)) is None
    # a weight at least the sum of the others pins the optimum to its point
    pts, wts = [0j, 1 + 0j, 1j, -1 - 1j], [3.0, 1.0, 1.0, 1.0]
    assert checks.median(pts, wts, 0j, 2.0 + math.sqrt(2.0)) is None
    # two points of equal weight: the whole segment between them is optimal
    assert checks.median([0j, 2 + 0j], None, (0j, 2 + 0j), 2.0) is None


def test_median_rejects_weighted_centroid(cloud):
    z, w = cloud
    c = complex((w * z).sum() / w.sum())
    assert checks.median(z, w, c, float(np.abs(z - c) @ w)) is not None


def test_median_rejects_wrong_objective_and_segment(cloud):
    z, w = cloud
    x = _weiszfeld(z, w)
    assert checks.median(z, w, x, 1.001 * float(np.abs(z - x) @ w)) is not None
    assert checks.median([0j, 2 + 0j], None, (0j, 3 + 0j), 2.0) is not None


def test_circle_accepts_optima(cloud):
    z, _ = cloud
    c, r = _min_circle(z[:12])
    assert checks.circle(z[:12], None, c, r) is None
    tri = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    assert checks.circle(tri, None, 0j, 1.0) is None
    # weighted pair: the circle centers where the weighted distances meet
    assert checks.circle([0j, 3 + 0j], [2.0, 1.0], 1 + 0j, 2.0) is None


def test_circle_rejects_moved_center(cloud):
    z, _ = cloud
    c, r = _min_circle(z[:12])
    for k in range(8):
        moved = c + 0.01 * r * cmath.exp(2j * math.pi * k / 8)
        radius = float(np.abs(z[:12] - moved).max())  # honest radius at the moved center
        assert checks.circle(z[:12], None, moved, radius) is not None


def test_circle_rejects_shrunk_radius(cloud):
    z, _ = cloud
    c, r = _min_circle(z[:12])
    assert checks.circle(z[:12], None, c, 0.99 * r) is not None
    assert checks.circle(z[:12], None, c, 1.01 * r) is not None


def test_cli_document_needs_a_passed_certificate():
    op = workloads.Op("pair", "cli", "chebyshev", (0j, 2 + 0j), None, file="p.json")
    doc = {"solution": {"type": "point", "location": [1.0, 0.0]}, "radius": 1.0,
           "certificate": {"passed": True}}
    assert checks.cli_document(op, doc) is None
    doc["certificate"]["passed"] = False
    assert checks.cli_document(op, doc) is not None


def test_tail_percentile_leaves_ten_samples():
    for pct in run.TAIL_PERCENTILE.values():
        n = run._min_samples(pct)
        _, beyond = run._nearest_rank(list(range(n)), pct)
        assert beyond >= 10


def test_metric_table_matches_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
