"""Spans around the public functions of every ``bianchi`` module, installed
from outside the program.

``Tracer.install`` rebinds each public module-level function of every
loaded ``bianchi`` module, in every ``bianchi`` module that holds a
reference to it, to a wrapper that records a span: name, start, end and
parent span. Calls inside a module go through its globals, so they are
caught too. The ``__post_init__`` validation of each public dataclass is
wrapped the same way and traced under the class name, which counts how
often a value such as ``ImagQuadField`` is built.

Spans are kept in memory for one CLI call at a time. ``end_item`` folds
them into exact counts and self times (a span's duration minus that of its
children) and keeps the raw spans, up to ``SPAN_CAP``, for ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

#: spans kept for the spans file, the first of the run; counts and times
#: are folded from every span and never depend on it
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(int)
        self.kept: list[tuple[int, array, array, array, array]] = []
        self._kept_spans = 0

    def span(self, qualname: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "bianchi" or n.startswith("bianchi.")) and m is not None
        ]
        spans: dict[str, tuple[Callable, Callable]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qualname = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    spans[qualname] = (obj, self.span(qualname, obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self.span(qualname, obj.__post_init__)
        wrapped = dict(spans.values())
        self._add_result_counters(spans, wrapped)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _add_result_counters(
        self,
        by_name: dict[str, tuple[Callable, Callable]],
        wrapped: dict[Callable, Callable],
    ) -> None:
        """Counters read off return values, for the oracle ratios.

        ``find_subgroup`` is preceded by the public
        ``enumerate_torsion_elements(d, H)``, which fills the oracle's torsion
        cache, so that the search span no longer contains the enumeration.
        """
        counters = self.counters
        clock = time.perf_counter

        if "localtree.enumerate_vertices" in by_name:
            fn, vertices = by_name["localtree.enumerate_vertices"]

            def enumerate_vertices(*args, **kwargs):
                out = vertices(*args, **kwargs)
                counters["localtree.vertices"] += len(out)
                return out

            wrapped[fn] = functools.wraps(fn)(enumerate_vertices)

        if "localtree.count_maximal_orders_local" in by_name:
            fn, count = by_name["localtree.count_maximal_orders_local"]

            def count_maximal_orders_local(*args, **kwargs):
                n = count(*args, **kwargs)
                # the count is made at two precisions, each matching n vertices
                counters["localtree.matched"] += 2 * n
                return n

            wrapped[fn] = functools.wraps(fn)(count_maximal_orders_local)

        if "subgroups.find_subgroup" in by_name:
            fn, search = by_name["subgroups.find_subgroup"]
            _, torsion = by_name["subgroups.enumerate_torsion_elements"]

            def find_subgroup(kind, d, H):
                t0 = clock()
                elements = torsion(d, H)
                t1 = clock()
                witness = search(kind, d, H)
                counters["subgroups.torsion_s"] += t1 - t0
                counters["subgroups.search_s"] += clock() - t1
                counters["subgroups.torsion_elements"] += len(elements)
                counters["subgroups.witnesses"] += witness is not None
                return witness

            wrapped[fn] = functools.wraps(fn)(find_subgroup)

    def end_item(self, item_id: int) -> dict:
        """Fold the spans of one finished CLI call into counts and times."""
        name, parent, start, end = self._name, self._parent, self._start, self._end
        n = len(name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        report_us = []
        names = self.names
        for i in range(n):
            key = names[name[i]]
            dur = end[i] - start[i]
            calls[key] += 1
            total[key] += dur
            self_s[key] += dur - child[i]
            if key == "classify.classify_report":
                report_us.append(dur * 1e6)
        stats = {
            "spans": n,
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "classify_report_us": report_us,
        }
        keep = min(n, SPAN_CAP - self._kept_spans)
        if keep > 0:
            self.kept.append((item_id, name[:keep], parent[:keep], start[:keep], end[:keep]))
            self._kept_spans += keep
        for arr in (name, parent, start, end):
            del arr[:]
        self.counters.clear()
        return stats

    def write_spans(self, path: str) -> None:
        """One CSV line per kept span: item, span, name, start, end, parent.

        ``span`` and ``parent`` index the spans of one item (parent -1 for a
        root); start and end are microseconds since the item's first span.
        """
        with open(path, "w", encoding="utf-8") as f:
            f.write("item,span,name,start_us,end_us,parent\n")
            for item_id, name, parent, start, end in self.kept:
                t0 = start[0]
                for i in range(len(name)):
                    f.write(
                        f"{item_id},{i},{self.names[name[i]]},"
                        f"{(start[i] - t0) * 1e6:.3f},{(end[i] - t0) * 1e6:.3f},{parent[i]}\n"
                    )

