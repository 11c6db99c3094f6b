"""Span recorder for the traced run.

The library modules import each other's functions by name (`from .sixj
import sixj_log`), so a layer boundary is wrapped where it is called:
the name is replaced in every module that calls it, and restored when
the recorder is uninstalled.  Nothing in the library changes.

Spans live in memory as (id, parent id, name, thread id, start, end).
A span's parent is the innermost open span of its own thread; a span
opened in a thread with no open span (a pool worker of a level scan) is
parented to the open scan span (`growth_series` or
`prism_conjecture_check`), which the benchmark's single client never
nests.  Self time is a span's duration minus the union of its children's
intervals, clipped to the span, so overlapping pool threads are not
subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

from sixjvol.sixj import SumBounds

# (module, name, span name, kind).  Kinds: "span" times the call; "scan"
# also adopts pool-thread spans; "sixj" also counts z-sum terms; "build"
# also counts tables and their bytes; "count" only counts calls.
CALL_SITES = (
    ("sixjvol.qnum", "LevelTables", "qnum.LevelTables", "build"),
    ("sixjvol.qnum", "level_tables", "qnum.level_tables", "span"),
    ("sixjvol.sixj", "level_tables", "qnum.level_tables", "span"),
    ("sixjvol.growth", "sixj_log", "sixj.sixj_log", "sixj"),
    ("sixjvol.graphs", "sixj_log", "sixj.sixj_log", "sixj"),
    ("sixjvol.cli", "_sixj_log", "sixj.sixj_log", "sixj"),
    ("sixjvol.growth", "growth_series", "growth.growth_series", "scan"),
    ("sixjvol.cli", "growth_series", "growth.growth_series", "scan"),
    ("sixjvol.growth", "colors_for_r", "growth.colors_for_r", "span"),
    ("sixjvol.growth", "fit_growth", "growth.fit_growth", "span"),
    ("sixjvol.graphs", "fit_growth", "growth.fit_growth", "span"),
    ("sixjvol.cli", "fit_growth", "growth.fit_growth", "span"),
    ("sixjvol.graphs", "bracket_blowup", "graphs.bracket_blowup", "span"),
    ("sixjvol.graphs", "prism_conjecture_check",
     "graphs.prism_conjecture_check", "scan"),
    ("sixjvol.cli", "prism_conjecture_check",
     "graphs.prism_conjecture_check", "scan"),
    ("sixjvol.gram", "signature", "gram.signature", "span"),
    ("sixjvol.tetra", "signature", "gram.signature", "span"),
    ("sixjvol.volfun", "signature", "gram.signature", "span"),
    ("sixjvol.growth", "signature", "gram.signature", "span"),
    ("sixjvol.cli", "signature", "gram.signature", "span"),
    ("sixjvol.tetra", "cofactor_matrix", "gram.cofactor_matrix", "span"),
    ("sixjvol.volfun", "cofactor_matrix", "gram.cofactor_matrix", "span"),
    ("sixjvol.growth", "cofactor_matrix", "gram.cofactor_matrix", "span"),
    ("sixjvol.cli", "cofactor_matrix", "gram.cofactor_matrix", "span"),
    ("sixjvol.gram", "classify", "gram.classify", "span"),
    ("sixjvol.cli", "classify", "gram.classify", "span"),
    ("sixjvol.tetra", "reconstruct", "tetra.reconstruct", "span"),
    ("sixjvol.cli", "reconstruct", "tetra.reconstruct", "span"),
    ("sixjvol.tetra", "edge_length_tuple", "tetra.edge_length_tuple", "span"),
    ("sixjvol.volfun", "edge_length_tuple", "tetra.edge_length_tuple",
     "span"),
    ("sixjvol.growth", "edge_length_tuple", "tetra.edge_length_tuple",
     "span"),
    ("sixjvol.cli", "edge_length_tuple", "tetra.edge_length_tuple", "span"),
    ("sixjvol.tetra", "case_label", "tetra.case_label", "span"),
    ("sixjvol.volfun", "volume", "volfun.volume", "span"),
    ("sixjvol.growth", "volume", "volfun.volume", "span"),
    ("sixjvol.graphs", "volume", "volfun.volume", "span"),
    ("sixjvol.cli", "volume", "volfun.volume", "span"),
    ("sixjvol.volfun", "volume_by_max", "volfun.volume_by_max", "span"),
    ("sixjvol.volfun", "critical_xi", "volfun.critical_xi", "span"),
    ("sixjvol.cli", "critical_xi", "volfun.critical_xi", "span"),
    ("sixjvol.volfun", "lobachevsky", "volfun.lobachevsky", "count"),
    ("sixjvol.cli", "lobachevsky", "volfun.lobachevsky", "count"),
)


def _z_terms(t) -> int:
    """Terms of the 6j z-sum, from the public SumBounds of the tuple."""
    b = SumBounds.of(t)
    return max(0, min(min(b.Q), t.level.r - 2) - max(b.T) + 1)


class Tracer:
    """In-memory spans and counters at the wrapped call sites."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopter = None
        self._saved: list[tuple] = []

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.add(name + ".calls")
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if kind == "sixj":
                self.add("sixj.zterms", _z_terms(args[0]))
            stack = self._stack()
            parent = stack[-1] if stack else self._adopter
            sid = next(self._ids)
            stack.append(sid)
            if kind == "scan":
                outer, self._adopter = self._adopter, sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add(name + ".raised")
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if kind == "scan":
                    self._adopter = outer
                self.records.append(
                    (sid, parent, name, threading.get_ident(), t0, t1))
            if kind == "build":
                self.add("qnum.tables_built")
                self.add("qnum.table_bytes", sum(
                    getattr(v, "nbytes", 0) for v in vars(result).values()))
            elif kind == "scan" and name == "growth.growth_series":
                self.add("growth.levels_skipped",
                         len(args[0].r_list) - len(result))
            return result
        return spanned

    def install(self) -> None:
        for module, attr, name, kind in CALL_SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, kind))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> Counter:
        """Flat, mergeable totals: "calls:<span>", "self_s:<span>", the
        counters, and "wall_s:"/"child_s:" of growth_series spans (their
        own duration and their direct children's summed durations)."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.records:
            if parent is not None:
                children[parent].append((t0, t1))
        out = Counter(self.counts)
        for sid, _, name, _, t0, t1 in self.records:
            kids = children.get(sid, ())
            out["calls:" + name] += 1
            out["self_s:" + name] += (t1 - t0) - union_length(kids, t0, t1)
            if name == "growth.growth_series":
                out["wall_s:" + name] += t1 - t0
                out["child_s:" + name] += sum(b - a for a, b in kids)
        return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
