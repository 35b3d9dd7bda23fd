"""Spans and call counts at the module boundaries, recorded from outside.

The traced run replaces the module attributes that planarloc calls
through (``geom.ensure_distinct``, ``fermat.ft_certificate``, the name
``build_l1_certificate`` that fermat imported, ...) with wrappers.  Each
wrapped call is a span: name, start, end, the span that was open when it
began, and the solve it belongs to.  Spans live in flat arrays in memory
and are written out once, when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.  Wrappers record
nothing while no solve is open, so warm-up and answer checks stay out.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, module attribute the program calls through, span or count only);
# several attributes may share one span name, which then sums them
BOUNDARIES = (
    ("geom.ensure_distinct", "geom.ensure_distinct", "span"),
    ("geom.hull_membership", "geom.convex_hull_membership", "span"),
    ("geom.circumcenter3", "geom.circumcenter3", "count"),
    ("geom.apollonius_locus", "geom.apollonius_locus", "count"),
    ("bjorth.build_l1", "fermat.build_l1_certificate", "span"),
    ("fermat.config", "fermat.WeightedConfiguration.__post_init__", "span"),
    ("fermat.solve", "fermat.solve_ft_n", "span"),
    ("fermat.solve", "fermat.solve_ft3_weighted", "span"),
    ("fermat.solve", "fermat.solve_ft4", "span"),
    ("fermat.certify", "fermat.ft_certificate", "span"),
    ("chebyshev.solve", "chebyshev.solve_chebyshev", "span"),
    ("chebyshev.solve", "chebyshev.solve_chebyshev_weighted", "span"),
    ("chebyshev.certify", "chebyshev.cheby_certificate", "span"),
    ("documents.load", "documents.load_problem", "span"),
    ("documents.emit", "documents.fermat_result_document", "span"),
    ("documents.emit", "documents.cheby_result_document", "span"),
    ("documents.emit", "documents.ResultDocument.to_json", "span"),
    ("cli.main", "cli.main", "span"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.solve = array("q")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.bytes_out = 0
        self.solve_id = -1
        self._open: list[list] = []  # [span index, seconds covered by children]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call inside a solve records one span."""
        nid = self._name_id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.solve_id < 0:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            idx = len(tr.start)
            tr.parent.append(tr._open[-1][0] if tr._open else -1)
            tr.name.append(nid)
            tr.solve.append(tr.solve_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            frame = [idx, 0.0]
            tr._open.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._open.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
                tr.self_s[name] += (t1 - t0) - frame[1]
                if tr._open:
                    tr._open[-1][1] += t1 - t0

        return traced

    def count(self, name: str, fn):
        """Wrap fn so that each call inside a solve is counted, no span."""
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tr.solve_id >= 0:
                tr.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict) -> None:
        """Replace the boundary attributes in the given planarloc modules.

        ``modules`` maps a short module name (``geom``, ``fermat``, ...) to
        the imported module; boundaries of absent modules are skipped.
        """
        for name, path, how in BOUNDARIES:
            head, *rest = path.split(".")
            if head not in modules:
                continue
            owner = modules[head]
            for part in rest[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, rest[-1])
            wrapped = self.span(name, fn) if how == "span" else self.count(name, fn)
            if path == "documents.ResultDocument.to_json":
                wrapped = self._counting_bytes(wrapped)
            setattr(owner, rest[-1], wrapped)

    def _counting_bytes(self, to_json):
        tr = self

        @functools.wraps(to_json)
        def emitted(*args, **kwargs):
            text = to_json(*args, **kwargs)
            if tr.solve_id >= 0:
                tr.bytes_out += len(text.encode("utf-8"))
            return text

        return emitted

    def dump(self, path: str) -> None:
        """Write every span and the call counts to a compressed .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            solve=np.frombuffer(self.solve, dtype=np.int64),
            call_names=np.array(sorted(self.calls)),
            call_counts=np.array([self.calls[k] for k in sorted(self.calls)], dtype=np.int64),
        )

    def print_table(self, solves: int, out=sys.stderr) -> None:
        """Per-layer self time and calls, in total and per solve."""
        print(f"{'layer':<24}{'calls':>12}{'calls/solve':>14}"
              f"{'self ms':>14}{'self ms/solve':>16}", file=out)
        for name in sorted(set(self.calls) | set(self.self_s)):
            calls = self.calls[name]
            ms = 1e3 * self.self_s.get(name, 0.0)
            print(f"{name:<24}{calls:>12}{calls / solves:>14.3f}"
                  f"{ms:>14.3f}{ms / solves:>16.4f}", file=out)
