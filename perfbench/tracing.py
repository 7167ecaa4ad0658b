"""Timing wrappers installed around the program's public layer functions.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces each function in the module namespaces that call it, records one
span per call, and keeps the spans in memory until :meth:`Tracer.dump`
writes them out at exit; :func:`summarise` folds them per layer.  A span's
self time is its duration minus the time of the spans nested directly
inside it on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: (span name, module path, attribute) — the attribute is looked up in the
#: module that *calls* it, because callers bind names at import time.
FUNCTIONS = [
    ("seq.parse", "repro.core.engine", "read_sequences"),
    ("seq.encode", "repro.seq.io_fasta", "encode"),
    ("seq.encode", "repro.seq.io_fastq", "encode"),
    ("seq.encode", "repro.seq.records", "encode"),
    ("seq.encode", "repro.service.service", "encode"),
    ("core.segments", "repro.core.mapper", "extract_end_segments"),
    ("core.segments", "repro.service.service", "extract_end_segments"),
    ("sketch.minimizers", "repro.core.mapper", "query_minimizer_concat"),
    ("sketch.subject_sketch", "repro.core.mapper", "subject_sketch_pairs"),
    ("sketch.subject_sketch", "repro.core.lsm", "subject_sketch_pairs"),
    ("core.store_build", "repro.core.mapper", "build_store"),
    ("core.store_build", "repro.core.persist", "build_store"),
    ("core.kernel", "repro.core.mapper", "count_hits_fused"),
    ("core.vote", "repro.core.mapper", "count_hits_vectorised"),
    ("core.persist.load", "repro.core.persist", "load_index"),
    ("netserve.respond", "repro.netserve.frontend", "response_for_mapping"),
]

#: (span name, module path, class, method)
METHODS = [
    ("core.lsm.add", "repro.core.lsm", "MutableSketchStore", "add_contigs"),
    ("core.lsm.remove", "repro.core.lsm", "MutableSketchStore", "remove_contigs"),
    ("core.lsm.compact", "repro.core.lsm", "MutableSketchStore", "compact"),
    ("service.submit", "repro.service.service", "MappingService", "submit"),
    ("netserve.lookup_trial", "repro.netserve.router", "ScatterGatherStore", "lookup_trial"),
    ("netserve.install", "repro.netserve.replica", "ReplicaSet", "add_contigs"),
    ("netserve.install", "repro.netserve.replica", "ReplicaSet", "remove_contigs"),
    ("netserve.install", "repro.netserve.replica", "ReplicaSet", "compact_index"),
]


def _work_counts(name, args, kwargs, out) -> dict:
    """Work counts recorded at the layer boundary, beside the span."""
    if out is None:
        return {}
    if name == "sketch.minimizers":
        _has, _nonempty, values, _starts = out
        return {"segments": len(args[0]), "minimizers": int(np.asarray(values).size)}
    if name == "core.kernel":
        return {"segments": int(kwargs.get("n_queries") or 0)}
    if name == "core.vote":
        return {"segments": int(np.asarray(args[1]).shape[1])}
    return {}


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: [name, start, duration, self time, work counts or None]
        self.spans: list[list] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time of nested spans, filled in by children
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                duration = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                span = [name, t0, duration, duration - nested,
                        _work_counts(name, args, kwargs, out) or None]
                with self._lock:
                    self.spans.append(span)

        return traced

    def snapshot(self) -> list[list]:
        with self._lock:
            return list(self.spans)

    def dump(self, path: str, **extra) -> None:
        """Write every span (and ``extra`` fields) as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.snapshot(), **extra}, fh)


def summarise(
    spans, start: float = float("-inf"), end: float = float("inf"), *, windows=None
) -> dict:
    """Per-name calls, total and self seconds, per-call times and counts.

    Only spans that start inside ``[start, end)`` count, or inside one of
    the ``(start, end)`` pairs of ``windows`` when given; the clock is
    ``time.perf_counter``, which is system-wide monotonic on Linux, so a
    window measured in the benchmark process can cut the server's spans.
    """
    windows = [(start, end)] if windows is None else windows
    out: dict[str, dict] = {}
    for name, t0, duration, self_time, counts in spans:
        if not any(lo <= t0 < hi for lo, hi in windows):
            continue
        entry = out.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "self_times": [], "counts": defaultdict(int)},
        )
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_time
        entry["durations"].append(duration)
        entry["self_times"].append(self_time)
        for key, value in (counts or {}).items():
            entry["counts"][key] += value
    return out


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method (the modules must import)."""
    for name, module_path, attr in FUNCTIONS:
        module = importlib.import_module(module_path)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    for name, module_path, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module_path), cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
