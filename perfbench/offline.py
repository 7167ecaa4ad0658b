"""``offline_map`` worker: batch mapping in a fresh interpreter.

Runs the path ``jem map -s CONTIGS -q READS`` takes: import the CLI, parse
both inputs, build the index (``MappingEngine.use_subjects``), then map the
whole read set inline (``map_queries``), round after round, until the time
is up.  Besides its pass, each round maps the next reads in batches of 512,
one ``map_queries`` call each (the batch ``MappingEngine.map_stream``
maps by default), and adds and removes the held-out contigs on the index made mutable the way the server does it
(``MutableSketchStore.in_memory``).  Builds, passes, batches and mutations
are timed in wall-clock time minus the time stolen from this process's
CPUs (:mod:`steal`).  Usage (the benchmark starts it; the argument is a
JSON object)::

    python3 perfbench/offline.py '{"src": ..., "contigs": ..., "reads": ..., ...}'

Writes its measurements as JSON to the ``out`` path.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


INDEX_BUILDS = 5
MIN_ROUNDS = 3
#: reads per latency batch (``MappingEngine.map_stream``'s default batch)
#: and batches per round; each round maps the next batches of the read set.
#: Calls of a few reads are so short that a hiccup of the shared host sets
#: their tail: 64-read calls put p99 at 1.2-1.5x p50, its spread over ten
#: runs at 0.23-0.27 of its median
LATENCY_BATCH = 512
LATENCY_ROUND = 4
#: the mutation cycle of a round, as one round of ``serve_hot_mutating`` sends it
MUTATIONS = ("add_contigs", "remove_contigs", "add_contigs", "remove_contigs", "compact")


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401 - `jem map` starts by importing the CLI

    import_s = time.perf_counter() - t0
    from repro.core import engine as engine_mod

    from steal import Clock, stolen_s

    clock = Clock(os.sched_getaffinity(0))
    tracer = None
    if cfg["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    contigs = engine_mod.read_sequences(cfg["contigs"])
    reads = engine_mod.read_sequences(cfg["reads"])
    out = {
        "t_parsed": time.perf_counter(),
        "stolen_at_parsed": stolen_s(clock.cpus),
        "import_s": import_s,
    }
    if not cfg["setup_only"]:
        held_out = engine_mod.read_sequences(cfg["held_out"])
        out.update(_map(engine_mod, contigs, reads, held_out, cfg["seconds"], clock))
    else:
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["spans"] = tracer.snapshot()
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def index_builds(engine_mod, contigs, n: int, clock) -> tuple[list[float], object]:
    """Build the index over ``contigs`` ``n`` times, as ``jem index`` does.

    Returns the time of each build on ``clock`` and the last engine.
    """
    builds = []
    for _ in range(n):
        engine = engine_mod.MappingEngine(engine_mod.PipelineConfig()).use_subjects(contigs)
        t = clock()
        engine.mapper  # first access builds the index
        builds.append(clock() - t)
    return builds, engine


def _map(engine_mod, contigs, reads, held_out, seconds: float, clock) -> dict:
    """Index builds, then rounds of a map pass, batch calls and mutations.

    Every round maps the whole read set once (every pass must equal the
    warm-up pass), maps LATENCY_ROUND batches one call each (each answer
    must equal the reads' answers in that pass), and runs one cycle of
    MUTATIONS.  Rounds repeat until ``seconds`` have passed, so the three
    parts sample the same stretches of time.  Peak RSS is read after the
    warm-up pass, before any batch call or mutation: it is the footprint of
    what ``jem map`` does.  One untimed round of the last two parts goes
    first.  The pass is timed on ``clock``; batch calls and mutations are
    timed in wall-clock time and scaled by the unstolen share of their
    round, since a mutation is shorter than the steal counter's tick.
    """
    t_index = time.perf_counter()
    builds, engine = index_builds(engine_mod, contigs, INDEX_BUILDS, clock)
    t_index_end = time.perf_counter()
    mapper = engine.mapper
    first = engine.map_queries(reads).mapping  # warm-up; every pass must match it
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batches = [
        (lo, reads.slice(lo, lo + LATENCY_BATCH))
        for lo in range(0, len(reads) - LATENCY_BATCH + 1, LATENCY_BATCH)
    ]
    mutable = _Mutations(mapper, held_out)
    _latency_round(engine, batches, 0, first)
    mutable.cycle()
    passes, pass_windows, latency, mismatched = [], [], [], 0
    cycles, wrong_batches = [], 0
    t_start = time.perf_counter()
    while len(passes) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        t_window, t = time.perf_counter(), clock()
        mapping = engine.map_queries(reads).mapping
        passes.append(clock() - t)
        pass_windows.append([t_window, time.perf_counter()])
        if not (
            (mapping.subject == first.subject).all()
            and (mapping.hit_count == first.hit_count).all()
        ):
            mismatched += 1
        times, wrong = _latency_round(engine, batches, len(passes) * LATENCY_ROUND, first)
        wrong_batches += wrong
        cycle = mutable.cycle()
        share = (clock() - t) / (time.perf_counter() - t_window)  # unstolen share
        latency.append([x * share for x in times])
        cycles.append(cycle * share)
    names = mapper.subject_names
    return {
        "index_s": builds,
        "index_window": [t_index, t_index_end],
        "pass_s": passes,
        "pass_windows": pass_windows,
        "reads_per_pass": len(reads),
        "mismatched_passes": mismatched,
        "latency_rounds": latency,
        "latency_calls": len(latency) * LATENCY_ROUND,
        "latency_reads": len(latency) * LATENCY_ROUND * LATENCY_BATCH,
        "mismatched_batches": wrong_batches,
        "rss_mb": rss_mb,
        "mutation_s": cycles,
        "mutations": len(cycles) * len(MUTATIONS),
        "wrong_mutations": mutable.wrong,
        "contig": [names[int(s)] if s >= 0 else None for s in first.subject],
        "hits": [int(h) for h in first.hit_count],
        "store_entries": int(mapper.table.total_entries),
        "store_bytes": int(mapper.table.nbytes),
    }


def _latency_round(engine, batches, start: int, first) -> tuple[list[float], int]:
    """One ``map_queries`` call per batch for LATENCY_ROUND batches from ``start``.

    Returns the wall-clock time of each call and how many batches answered
    differently from their reads' answers in ``first``.
    """
    times, wrong = [], 0
    for j in range(LATENCY_ROUND):
        lo, batch = batches[(start + j) % len(batches)]
        t = time.perf_counter()
        mapping = engine.map_queries(batch).mapping
        times.append(time.perf_counter() - t)
        seg = slice(2 * lo, 2 * (lo + LATENCY_BATCH))
        if not (
            (mapping.subject == first.subject[seg]).all()
            and (mapping.hit_count == first.hit_count[seg]).all()
        ):
            wrong += 1
    return times, wrong


class _Mutations:
    """The held-out batch added and removed on the index made mutable.

    The static index becomes the generation-0 segment of an in-memory
    :class:`MutableSketchStore`, as the server wraps it on its first
    mutation; the engine keeps mapping over its own static index.
    """

    def __init__(self, mapper, held_out) -> None:
        from repro.core.lsm import MutableSketchStore

        self.handle = MutableSketchStore.in_memory(
            mapper.config, base_store=mapper.table, subject_names=mapper.subject_names
        )
        base = self.handle.current.live_subjects
        self.live_after = {
            "add_contigs": base + len(held_out), "remove_contigs": base, "compact": base,
        }
        names = list(held_out.names)
        self.apply = {
            "add_contigs": lambda: self.handle.add_contigs(held_out),
            "remove_contigs": lambda: self.handle.remove_contigs(names),
            "compact": self.handle.compact,
        }
        self.wrong = 0  # mutations that left the wrong number of live contigs

    def cycle(self) -> float:
        """One cycle of MUTATIONS; returns its mean wall-clock time per mutation."""
        times = []
        for op in MUTATIONS:
            t = time.perf_counter()
            self.apply[op]()
            times.append(time.perf_counter() - t)
            self.wrong += self.handle.current.live_subjects != self.live_after[op]
        return statistics.mean(times)


if __name__ == "__main__":
    sys.exit(main())
