"""Timing shims around apsa's public functions, installed from outside the package.

:func:`install` wraps every public function of the package's modules and
re-binds each wrapped function wherever an apsa module imported it by name
(``apsa.cli.synth``, ``apsa.enumeration.suffix_array`` and so on).  A wrapper
records one span per call: name, parent span, the workload call it belongs
to, and the intervals during which it ran (a generator runs in several).
Spans stay in memory; :func:`layer_metrics` turns them into per-layer busy
times and counts, and :meth:`Tracer.write` saves them when the run ends.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as parent, so the entries corpus
generation writes on its thread pool hang under ``corpus.generate_corpus``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from math import comb

LAYERS = ("core", "synthesis", "textindex", "christoffel", "lyndonlab", "enumeration", "corpus", "cli")

# canonical_residue runs once per element inside ap_materialize and friends; a
# span per element would cost more than the work it measures.  In cli only
# main is a layer boundary: parsing and printing count as cli self time.
SKIP = {"core.canonical_residue", "cli.build_parser"}


class Span:
    __slots__ = ("id", "parent", "call", "pass_", "name", "intervals", "items", "attrs")

    def __init__(self, span_id, parent, call, pass_, name):
        self.id = span_id
        self.parent = parent
        self.call = call
        self.pass_ = pass_
        self.name = name
        self.intervals = []
        self.items = 0
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = None
        self.pass_index = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident

    def start(self, name: str) -> Span:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) or [None]
            parent = main_stack[-1]
        span = Span(next(self._ids), parent.id if parent else None, self.call_id, self.pass_index, name)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        self._stacks.setdefault(threading.get_ident(), []).append(span)
        span.intervals.append([time.perf_counter_ns(), 0])

    def exit(self, span: Span) -> None:
        span.intervals[-1][1] = time.perf_counter_ns()
        self._stacks[threading.get_ident()].pop()

    def write(self, path: str) -> None:
        """One JSON object per span; times in microseconds from the first span."""
        origin = min((s.intervals[0][0] for s in self.spans if s.intervals), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id, "parent": s.parent, "call": s.call, "pass": s.pass_, "name": s.name,
                    "us": [[(a - origin) // 1000, (b - origin) // 1000] for a, b in s.intervals],
                }
                if s.items:
                    record["items"] = s.items
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record) + "\n")


def _count_corpus(name, span, args, result):
    """Bytes the corpus layer wrote or checked, taken at the span boundary."""
    if name in ("corpus.entry_text_bytes", "corpus.entry_sa_array"):
        span.attrs["bytes_written"] = len(result) if isinstance(result, bytes) else int(result.nbytes)
    elif name == "corpus.verify_sa_file":
        span.attrs["bytes_verified"] = 8 * (args[1] if result.ok else result.first_bad)
    elif name == "corpus.verify_bwt_file":
        span.attrs["bytes_verified"] = sum(c for _, c in args[1]) if result.ok else result.first_bad


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span = tracer.start(name)
            if name == "enumeration.enumerate_strings":
                perm, sigma = args[0], args[1]
                span.attrs["multisets"] = comb(perm.n + sigma - 1, sigma - 1)
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(span)
                    span.items += 1
                    yield item
            finally:
                gen.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if name.startswith("corpus."):
            _count_corpus(name, span, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and re-bind them everywhere."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"apsa.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or name in SKIP
            ):
                continue
            wrappers[obj] = _wrap(tracer, name, obj)
    for module_name, module in list(sys.modules.items()):
        if module_name == "apsa" or module_name.startswith("apsa."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def _length(intervals) -> int:
    return sum(b - a for a, b in intervals)


def _covered(parent_intervals, child_intervals) -> int:
    """Length of the parent's intervals covered by the union of child intervals."""
    merged: list[list[int]] = []
    for a, b in sorted(child_intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    total = 0
    for pa, pb in parent_intervals:
        for a, b in merged:
            total += max(0, min(pb, b) - max(pa, a))
    return total


# Self time is reported for these spans: cli.main minus every layer call it
# made, and generate_corpus minus the spans under it, which leaves the file
# writes and the manifest.
SELF_TIME = {"cli.main": "cli.self_ms", "corpus.generate_corpus": "corpus.write_self_ms"}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Busy milliseconds per function, self times, and counts, for one pass."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def has_ancestor(span: Span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    out: dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        if not has_ancestor(s, s.name):
            out[f"{s.name}_ms"] = out.get(f"{s.name}_ms", 0.0) + _length(s.intervals) / 1e6
        if s.name in SELF_TIME:
            kids = [iv for c in children.get(s.id, []) for iv in c.intervals]
            self_ns = _length(s.intervals) - _covered(s.intervals, kids)
            key = SELF_TIME[s.name]
            out[key] = out.get(key, 0.0) + self_ns / 1e6
        if s.name == "textindex.suffix_array" and has_ancestor(s, "enumeration.enumerate_strings"):
            if not has_ancestor(s, s.name):
                out["enumeration.oracle_ms"] = out.get("enumeration.oracle_ms", 0.0) + _length(s.intervals) / 1e6
        if s.name == "enumeration.candidate_strings":
            out["enumeration.candidates"] = out.get("enumeration.candidates", 0) + s.items
        if s.name == "enumeration.enumerate_strings":
            out["enumeration.yielded"] = out.get("enumeration.yielded", 0) + s.items
            out["enumeration.multisets"] = out.get("enumeration.multisets", 0) + s.attrs["multisets"]
        for key in ("bytes_written", "bytes_verified"):
            if key in s.attrs:
                out[f"corpus.{key}"] = out.get(f"corpus.{key}", 0) + s.attrs[key]
    multisets = out.get("enumeration.multisets", 0)
    out["enumeration.useful_ratio"] = out.get("enumeration.yielded", 0) / multisets if multisets else 0.0
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over passes of each per-pass figure; a figure absent in a pass counts 0."""
    passes: dict[int, list[Span]] = {}
    for s in spans:
        passes.setdefault(s.pass_, []).append(s)
    per_pass = [pass_metrics(group) for _, group in sorted(passes.items())]
    keys = sorted({k for m in per_pass for k in m})
    return {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}
