"""The benchmark's three workloads, driven against the program from outside.

* ``offline_map`` runs :mod:`offline` in a fresh interpreter: the path of
  ``jem map`` (``MappingEngine.use_subjects`` → ``map_queries``, inline).
* ``serve_cold`` and ``serve_hot_mutating`` run
  ``jem serve --index IDX --listen 127.0.0.1:0`` as a subprocess and drive
  it over TCP with :mod:`loadgen`.

Every run repeats whole rounds of a plan fixed in advance, so the share of
cache hits and of mutations per read does not depend on how fast the
program is.  Each workload checks every answer (:mod:`check`) and scores
quality against the benchmark's own truth (:mod:`inputs`).
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import tracing
from check import Timeline, altered, check_maps, reference_answers
from inputs import READS, Inputs, Truth, read_segments, true_ranges
from loadgen import LoadGenerator, Op, map_line
from steal import Clock, stolen_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is measured this many times per run; the median is reported
SETUP_SPAWNS = 5
CONNECTIONS = 2
#: mutation cycles sent to the idle ``serve_cold`` server after its timed
#: rounds, so the rounds themselves run on the saved index as loaded; one
#: untimed cycle goes first
COLD_MUTATION_CYCLES = 12
#: requests each connection keeps in flight: deep enough that the server's
#: 64-read micro-batches fill (a window of 8 swung 343..882 reads/s)
WINDOW = 64
WARMUP_ROUNDS = 1
#: reads per connection per ``serve_cold`` round: enough that each round's
#: own p99 has ten samples beyond it
COLD_ROUND = 512
#: hot read set, far below the 4,096-entry result cache
HOT_READS = 32
#: reads the mutating connection sends between two mutations
HOT_PHASE = 192
#: the other connection's reads per round
HOT_READER_ROUND = 4 * HOT_PHASE
#: index builds timed in each served run (the offline worker times five)
SERVED_INDEX_BUILDS = 3
#: reads sent once to the ``serve_hot_mutating`` server before its warm-up
#: round, to score the served answers against the truth
QUALITY_READS = 1024
#: quality floors for the end-to-end check (see README)
PRECISION_FLOOR = 0.97
RECALL_FLOOR = 0.95
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 170.0
BANNER = re.compile(rb"listening on ([0-9.]+):(\d+)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Report:
    """What one workload run measured and found."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    ops: dict = field(default_factory=lambda: {"map": [0, 0], "mutation": [0, 0]})
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


@dataclass
class Context:
    inputs: Inputs
    paths: dict
    workdir: str
    seconds: float
    _index: str | None = None

    def index_path(self) -> str:
        """``jem index`` over the contigs, once per run (outside every metric)."""
        if self._index is None:
            path = os.path.join(self.workdir, "index.npz")
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "index", "-s", self.paths["contigs"],
                 "-o", path],
                cwd=ROOT, env=child_env(), check=True, capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
            self._index = path
        return self._index


def _quantiles(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _quality(report: Report, truth: Truth, answers) -> None:
    """Precision/recall of (segment index, contig) answers, with floors."""
    quality = truth.score(answers)
    report.add("precision", quality.precision, "ratio")
    report.add("recall", quality.recall, "ratio")
    if quality.precision < PRECISION_FLOOR:
        report.errors.append(f"precision {quality.precision:.4f} < {PRECISION_FLOOR}")
    if quality.recall < RECALL_FLOOR:
        report.errors.append(f"recall {quality.recall:.4f} < {RECALL_FLOOR}")


# -- offline_map -------------------------------------------------------------


def _offline_child(ctx: Context, *, setup_only: bool, trace: bool) -> tuple[dict, float]:
    out = os.path.join(ctx.workdir, "offline.json")
    cfg = {
        "src": SRC, "contigs": ctx.paths["contigs"], "reads": ctx.paths["reads"],
        "held_out": ctx.paths["held_out"], "seconds": ctx.seconds, "setup_only": setup_only, "trace": trace, "out": out,
    }
    t0, stolen0 = time.perf_counter(), stolen_s(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "offline.py"), json.dumps(cfg)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"offline worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, (result["t_parsed"] - t0) - (result["stolen_at_parsed"] - stolen0)


def _offline_rps(res: dict) -> float:
    """Reads mapped per second over all the timed passes."""
    return res["reads_per_pass"] * len(res["pass_s"]) / sum(res["pass_s"])


def offline_map(ctx: Context, trace: bool) -> tuple[Report, dict | None]:
    report = Report()
    setups = []
    for _ in range(0 if trace else SETUP_SPAWNS - 1):
        setups.append(_offline_child(ctx, setup_only=True, trace=False)[1])
    res, setup = _offline_child(ctx, setup_only=False, trace=False)
    setups.append(setup)
    rps = _offline_rps(res)
    report.add("setup_s", statistics.median(setups), "s")
    report.add("index_s", statistics.median(res["index_s"]), "s")
    report.add("reads_per_s", rps, "reads/s")
    # p50 is a mean over rounds, not a median: each round runs in a fast or
    # a slow stretch of the host, and a median over rounds jumps between the
    # two.  p99 is the median over rounds, as on the served workloads: a
    # round's tail is its slowest call, which the median leaves out when
    # most rounds have no hiccup.
    calls = [_quantiles(r) for r in res["latency_rounds"]]
    report.add("p50_ms", statistics.fmean(p50 for p50, _p99 in calls) * 1000.0, "ms")
    report.add("p99_ms", statistics.median(p99 for _p50, p99 in calls) * 1000.0, "ms")
    report.add("mutation_ms", statistics.fmean(res["mutation_s"]) * 1000.0, "ms")
    report.add("rss_mb", res["rss_mb"], "MB")
    _quality(report, Truth.for_reads(ctx.inputs), enumerate(res["contig"]))
    if res["mismatched_passes"]:
        report.errors.append(f"{res['mismatched_passes']} map passes differ from the first")
    if res["mismatched_batches"]:
        report.errors.append(f"{res['mismatched_batches']} batch calls differ from the pass")
    if res["wrong_mutations"]:
        report.errors.append(f"{res['wrong_mutations']} mutations left a wrong live contig count")
    report.ops["map"][0] = res["reads_per_pass"] * len(res["pass_s"]) + res["latency_reads"]
    report.ops["mutation"][0] = res["mutations"]
    report.notes.append(
        f"{len(res['pass_s'])} timed passes of {res['reads_per_pass']} reads; "
        f"{res['latency_calls']} calls of 512 reads in {len(res['latency_rounds'])} rounds; "
        f"{len(res['mutation_s'])} timed mutation cycles; "
        f"{len(res['index_s'])} index builds; {len(setups)} set-ups"
    )
    report.notes.append("per round: mutation ms " + " ".join(
        f"{x * 1000.0:.1f}" for x in res["mutation_s"]
    ) + "; batch p50/p99 ms " + " ".join(f"{a * 1000.0:.1f}/{b * 1000.0:.1f}" for a, b in calls))
    if not trace:
        return report, None
    traced, _ = _offline_child(ctx, setup_only=False, trace=True)
    traced_rps = _offline_rps(traced)
    # the read-path layers over the map passes only, not the one-read calls
    timed = tracing.summarise(traced["spans"], windows=traced["pass_windows"])
    build = tracing.summarise(traced["spans"], *traced["index_window"])
    whole = tracing.summarise(traced["spans"])
    reads = traced["reads_per_pass"] * len(traced["pass_s"])
    layers = layer_metrics(timed, reads)
    layers.update({
        "cli.import_s": traced["import_s"],
        "seq.parse_s": _total(whole, "seq.parse"),
        # reads and contigs are encoded once, while they are parsed
        "seq.encode_s": _total(whole, "seq.encode", self_time=True) * 1000 / len(ctx.inputs.reads),
        "sketch.subject_sketch_s": _median(build, "sketch.subject_sketch"),
        "core.store_build_s": _median(build, "core.store_build"),
        "core.lsm.add_s": _median(whole, "core.lsm.add"),
        "core.lsm.remove_s": _median(whole, "core.lsm.remove"),
        "core.lsm.compact_s": _median(whole, "core.lsm.compact"),
        "core.store_entries": traced["store_entries"],
        "core.store_mb": traced["store_bytes"] / 1e6,
        "trace.overhead_pct": (rps / traced_rps - 1.0) * 100.0,
    })
    return report, layers


# -- per-layer metrics -------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.import_s", "s"),
    ("core.persist.load_s", "s"),
    ("seq.parse_s", "s"),
    ("seq.encode_s", "s"),
    ("core.segments_s", "s"),
    ("sketch.minimizers_s", "s"),
    ("sketch.minimizers_per_segment", "count"),
    ("sketch.subject_sketch_s", "s"),
    ("core.store_build_s", "s"),
    ("core.store_entries", "count"),
    ("core.store_mb", "MB"),
    ("core.kernel_s", "s"),
    ("core.vote_s", "s"),
    ("core.fused_share", "ratio"),
    ("core.lsm.add_s", "s"),
    ("core.lsm.remove_s", "s"),
    ("core.lsm.compact_s", "s"),
    ("service.submit_us", "us"),
    ("service.batch_size_mean", "reads"),
    ("service.queue_wait_ms", "ms"),
    ("service.map_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("netserve.lookup_trial_ms", "ms"),
    ("netserve.fallbacks", "count"),
    ("netserve.hedged", "count"),
    ("netserve.install_ms", "ms"),
    ("netserve.respond_us", "us"),
    ("trace.overhead_pct", "%"),
]


def _total(summary: dict, name: str, *, self_time: bool = False) -> float:
    entry = summary.get(name)
    if entry is None:
        return 0.0
    return entry["self_s"] if self_time else entry["total_s"]


def _median(summary: dict, name: str, *, self_time: bool = False) -> float:
    entry = summary.get(name)
    if entry is None:
        return 0.0
    return statistics.median(entry["self_times"] if self_time else entry["durations"])


def layer_metrics(timed: dict, reads: int) -> dict:
    """Hot-path layer metrics over the timed window, per 1,000 reads answered."""
    per_k = 1000.0 / max(reads, 1)
    minis = timed.get("sketch.minimizers", {}).get("counts", {})
    fused = timed.get("core.kernel", {}).get("counts", {}).get("segments", 0)
    voted = timed.get("core.vote", {}).get("counts", {}).get("segments", 0)
    batches = timed.get("core.vote", {}).get("calls", 0)
    out = {name: 0.0 for name, _unit in PER_LAYER}
    out.update({
        "core.segments_s": _total(timed, "core.segments", self_time=True) * per_k,
        "sketch.minimizers_s": _total(timed, "sketch.minimizers", self_time=True) * per_k,
        "sketch.minimizers_per_segment": (
            minis.get("minimizers", 0) / minis["segments"] if minis.get("segments") else 0.0
        ),
        "core.kernel_s": _total(timed, "core.kernel", self_time=True) * per_k,
        "core.vote_s": _total(timed, "core.vote", self_time=True) * per_k,
        "core.fused_share": fused / (fused + voted) if fused + voted else 0.0,
        "netserve.lookup_trial_ms": (
            _total(timed, "netserve.lookup_trial") * 1000.0 / batches if batches else 0.0
        ),
    })
    return out


# -- the served workloads ----------------------------------------------------


def cpu_split() -> tuple[set, set] | None:
    """One CPU for the server, another for the load generator (None: one CPU).

    Pinned apart, the two never compete, the server's threads never hand
    the interpreter lock across CPUs, and the steal on the server's CPU is
    exactly the time taken from the server.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


def server_clock() -> Clock:
    """Wall time minus the time stolen from the server's CPU(s)."""
    split = cpu_split()
    return Clock(split[0] if split else os.sched_getaffinity(0))


class Server:
    """One ``jem serve --listen`` subprocess, timed from spawn to its banner."""

    def __init__(self, cmd: list[str], log_path: str) -> None:
        self._log_path = log_path
        self._log = open(log_path, "wb")
        split, clock = cpu_split(), server_clock()
        t0 = clock()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
            preexec_fn=(lambda: os.sched_setaffinity(0, split[0])) if split else None,
        )
        while True:
            with open(log_path, "rb") as fh:
                match = BANNER.search(fh.read())
            if match:
                self.setup_s = clock() - t0
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                return
            if self.proc.poll() is not None or clock() - t0 > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"server did not start:\n{self.log_tail()}")
            time.sleep(0.002)

    def log_tail(self) -> str:
        with open(self._log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


def _serve_cmd(ctx: Context, spans_path: str | None) -> list[str]:
    args = ["serve", "--index", ctx.index_path(), "--listen", "127.0.0.1:0"]
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, os.path.join(HERE, "serve_traced.py"), spans_path, *args]


@dataclass(frozen=True)
class RoundStats:
    reads_per_s: float
    p50_s: float
    p99_s: float
    mutation_s: float  # mean acknowledgement time of the round's mutations
    stolen: float  # share of the round's wall time stolen from the server's CPU


@dataclass
class Phase:
    """One server lifetime: warm-up round(s), then timed rounds."""

    records: list
    timed: list
    window: tuple[float, float]
    rounds: list  # RoundStats of every timed round
    cycle_mutation_s: list  # mean acknowledgement time of each timed ``after`` cycle
    metrics: tuple[dict, dict]  # front-door registry before / after the timed rounds
    scatter: tuple[dict, dict]
    stats: dict
    rss_mb: float
    setup_s: float
    spans: dict | None

    @property
    def elapsed(self) -> float:
        return self.window[1] - self.window[0]

    def timed_of(self, kind: str) -> list:
        return [r for r in self.timed if r.op.kind == kind]


def _front(metrics_response: dict) -> dict:
    """The scatter front door's registry: it batches, caches and votes."""
    for snap in metrics_response["replicas"]:
        if snap.get("labels", {}).get("replica") == "front":
            return snap
    raise RuntimeError("metrics carry no front-door registry")


def run_served(ctx: Context, rounds, *, traced: bool, tag: str, before=(), after=None) -> Phase:
    """Start a server, run the plan's rounds against it, stop it.

    ``before`` rounds are sent first, ahead of the warm-up.  ``after``, one
    cycle of mutations, is sent 1 + COLD_MUTATION_CYCLES times once the
    timed rounds are over and the program's counters and peak RSS have
    been read; the first cycle is not timed.
    """
    spans_path = os.path.join(ctx.workdir, f"spans-{tag}.json") if traced else None
    server = Server(_serve_cmd(ctx, spans_path), os.path.join(ctx.workdir, f"serve-{tag}.log"))
    split, own_cpus = cpu_split(), os.sched_getaffinity(0)
    try:
        if split:
            os.sched_setaffinity(0, split[1])
        gen = LoadGenerator(server.host, server.port, connections=CONNECTIONS, window=WINDOW)
        try:
            records: list = []
            for plans in before:
                gen.run_round(plans, records)
            clock = server_clock()
            for _ in range(WARMUP_ROUNDS):
                gen.run_round(next(rounds), records)
            first_timed = len(records)
            m0, h0 = gen.request({"op": "metrics"}), gen.request({"op": "health"})
            t0 = t1 = time.perf_counter()
            u1 = clock()
            rounds_seen, cycles = [], []
            while t1 - t0 < ctx.seconds:
                before = len(records)
                gen.run_round(next(rounds), records)
                (t_round, t1), (u_round, u1) = (t1, time.perf_counter()), (u1, clock())
                # times in the round count only while the server had its CPU
                unstolen = (u1 - u_round) / (t1 - t_round)
                latency = [r.t_recv - r.t_send for r in records[before:] if r.op.kind == "map"]
                acks = [r.t_recv - r.t_send for r in records[before:] if r.op.kind == "mutation"]
                p50, p99 = _quantiles(latency)
                rounds_seen.append(RoundStats(
                    len(latency) / (u1 - u_round), p50 * unstolen, p99 * unstolen,
                    statistics.mean(acks) * unstolen if acks else 0.0, 1.0 - unstolen,
                ))
            m1, h1 = gen.request({"op": "metrics"}), gen.request({"op": "health"})
            stats = gen.request({"op": "stats"})
            rss = server.peak_rss_mb()
            if after:
                _mutation_cycle(gen, after, records)
                t_cycles, u_cycles = time.perf_counter(), clock()
                cycles = [_mutation_cycle(gen, after, records) for _ in range(COLD_MUTATION_CYCLES)]
                # one cycle is far shorter than the steal counter's tick:
                # scale them all by the unstolen share of the whole stretch
                unstolen = (clock() - u_cycles) / (time.perf_counter() - t_cycles)
                cycles = [c * unstolen for c in cycles]
        finally:
            gen.close()
    finally:
        os.sched_setaffinity(0, own_cpus)
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited {code}:\n{server.log_tail()}")
    spans = None
    if spans_path is not None:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    return Phase(
        records=records, timed=records[first_timed:], window=(t0, t1),
        rounds=rounds_seen, cycle_mutation_s=cycles,
        metrics=(_front(m0), _front(m1)), scatter=(h0["scatter"], h1["scatter"]),
        stats=stats["stats"], rss_mb=rss, setup_s=server.setup_s, spans=spans,
    )


def _mutation_cycle(gen: LoadGenerator, plans, records: list) -> float:
    """Send one cycle of mutations; returns its mean acknowledgement time."""
    before = len(records)
    gen.run_round(plans, records)
    return statistics.mean(r.t_recv - r.t_send for r in records[before:])


def _setup_only(ctx: Context, tag: str) -> float:
    server = Server(_serve_cmd(ctx, None), os.path.join(ctx.workdir, f"setup-{tag}.log"))
    server.stop()
    return server.setup_s


def _served_report(phase: Phase, setups: list[float]) -> Report:
    report = Report()
    # medians over rounds are robust to bursts of CPU taken by other tenants
    report.add("setup_s", statistics.median(setups + [phase.setup_s]), "s")
    report.add("reads_per_s", statistics.median(r.reads_per_s for r in phase.rounds), "reads/s")
    report.add("p50_ms", statistics.median(r.p50_s for r in phase.rounds) * 1000.0, "ms")
    report.add("p99_ms", statistics.median(r.p99_s for r in phase.rounds) * 1000.0, "ms")
    report.add("rss_mb", phase.rss_mb, "MB")
    for kind in ("map", "mutation"):
        ops = phase.timed_of(kind)
        report.ops[kind] = [len(ops), sum(1 for r in ops if "error" in r.response)]
    maps = len(phase.timed_of("map"))
    report.notes.append(
        f"latency samples: {maps} maps in {len(phase.rounds)} rounds of "
        f"{maps // len(phase.rounds)} over {phase.elapsed:.2f}s; {1 + len(setups)} set-ups; "
        f"median {statistics.median(r.stolen for r in phase.rounds):.1%} of a round "
        f"stolen from the server's CPU"
    )
    return report


def _served_layers(untraced: Phase, traced: Phase) -> dict:
    """Per-layer metrics: spans of the traced server, counters of the untraced one."""
    spans = traced.spans["spans"]
    timed = tracing.summarise(spans, *traced.window)
    whole = tracing.summarise(spans)
    layers = layer_metrics(timed, len(traced.timed_of("map")))
    before, after = untraced.metrics
    counter = lambda snap, name: snap["counters"][name]  # noqa: E731
    hist = lambda snap, name: snap["histograms"][name]  # noqa: E731
    batches = hist(after, "batch_size_reads")["count"] - hist(before, "batch_size_reads")["count"]
    batch_reads = hist(after, "batch_size_reads")["sum"] - hist(before, "batch_size_reads")["sum"]
    hits = counter(after, "cache_hits_total") - counter(before, "cache_hits_total")
    misses = counter(after, "cache_misses_total") - counter(before, "cache_misses_total")
    s0, s1 = untraced.scatter
    layers.update({
        "cli.import_s": traced.spans["import_s"],
        "core.persist.load_s": _total(whole, "core.persist.load"),
        "seq.encode_s": (
            _total(timed, "seq.encode", self_time=True) * 1000.0
            / max(len(traced.timed_of("map")), 1)
        ),
        "core.store_build_s": _median(whole, "core.store_build"),
        "core.store_entries": traced.stats["total_entries"],
        "core.store_mb": traced.stats["nbytes"]["total"] / 1e6,
        # mutations, timed or not (serve_cold sends its own after the rounds)
        "sketch.subject_sketch_s": _median(whole, "sketch.subject_sketch"),
        "core.lsm.add_s": _median(whole, "core.lsm.add"),
        "core.lsm.remove_s": _median(whole, "core.lsm.remove"),
        "core.lsm.compact_s": _median(whole, "core.lsm.compact"),
        "service.submit_us": _median(timed, "service.submit") * 1e6,
        "service.batch_size_mean": batch_reads / batches if batches else 0.0,
        "service.queue_wait_ms": hist(after, "queue_wait_seconds")["p50"] * 1000.0,
        "service.map_ms": hist(after, "map_latency_seconds")["p50"] * 1000.0,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "netserve.fallbacks": s1["fallbacks"] - s0["fallbacks"],
        "netserve.hedged": s1["hedged"] - s0["hedged"],
        "netserve.install_ms": _median(whole, "netserve.install", self_time=True) * 1000.0,
        "netserve.respond_us": _median(timed, "netserve.respond") * 1e6,
        "trace.overhead_pct": (
            statistics.median(r.reads_per_s for r in untraced.rounds)
            / statistics.median(r.reads_per_s for r in traced.rounds) - 1.0
        ) * 100.0,
    })
    return layers


def _check_served(report: Report, phase: Phase, references, live, timeline, read_pos) -> None:
    """Check every answer, then show the checker an altered one, which must fail."""
    report.errors += check_maps(phase.records, references, live, timeline, read_pos)
    sample = next(r for r in phase.records if "results" in r.response)
    if not check_maps([altered(sample)], references, live, timeline, read_pos):
        report.errors.append("the checker accepted an altered answer")


def _run_phases(ctx: Context, make_rounds, trace: bool, **extra):
    """Untraced phase (plus extra set-ups), and a traced one when asked."""
    setups = [] if trace else [_setup_only(ctx, str(i)) for i in range(SETUP_SPAWNS - 1)]
    untraced = run_served(ctx, make_rounds(), traced=False, tag="plain", **extra)
    traced = run_served(ctx, make_rounds(), traced=True, tag="traced", **extra) if trace else None
    return setups, untraced, traced


def _index_s(ctx: Context) -> float:
    """Median time to build the index over the contigs, in this process."""
    from offline import index_builds
    from repro.core import engine as engine_mod

    builds, _engine = index_builds(
        engine_mod, ctx.inputs.contigs, SERVED_INDEX_BUILDS, Clock(os.sched_getaffinity(0))
    )
    return statistics.median(builds)


#: the mutation cycle of one ``serve_hot_mutating`` round, in send order
MUTATION_CYCLE = ("add_contigs", "remove_contigs", "add_contigs", "remove_contigs", "compact")


def _mutation_lines(inputs: Inputs) -> dict[str, bytes]:
    """Serialized add/remove of the held-out batch, and compact."""
    held = inputs.held_out
    ops = {
        "add_contigs": {
            "op": "add_contigs", "names": list(held.names),
            "seqs": [held[i].sequence for i in range(len(held))],
        },
        "remove_contigs": {"op": "remove_contigs", "names": list(held.names)},
        "compact": {"op": "compact"},
    }
    return {k: (json.dumps(v) + "\n").encode() for k, v in ops.items()}


def _check_mutations(report: Report, phase: Phase) -> None:
    for rec in phase.records:
        if rec.op.kind == "mutation" and rec.response.get("op") != rec.op.key:
            report.errors.append(f"mutation {rec.op.key} answered {rec.response}")


# -- serve_cold --------------------------------------------------------------


def _cold_rounds(lines: list[bytes]):
    """Each connection cycles through its half of the reads, in order.

    A read comes back only after every other read has been sent, and there
    are more reads than the server's cache holds, so no read ever hits.
    """
    halves = [list(range(c, len(lines), CONNECTIONS)) for c in range(CONNECTIONS)]
    cursors = [0] * CONNECTIONS
    while True:
        plans = []
        for c, half in enumerate(halves):
            idx = [half[(cursors[c] + j) % len(half)] for j in range(COLD_ROUND)]
            cursors[c] += COLD_ROUND
            plans.append([Op("map", lines[i], i) for i in idx])
        yield plans


def serve_cold(ctx: Context, trace: bool) -> tuple[Report, dict | None]:
    from repro.core.persist import load_index

    reads = ctx.inputs.reads
    if len(reads) <= 4096 + CONNECTIONS * WINDOW:
        raise RuntimeError(f"{len(reads)} reads cannot cycle past the result cache")
    lines = [map_line(i, reads.names[i], reads[i].sequence) for i in range(len(reads))]
    reference = reference_answers(load_index(ctx.index_path()), reads)
    mutations = _mutation_lines(ctx.inputs)
    cycle = [[Op("mutation", mutations[op], op) for op in MUTATION_CYCLE], []]
    index_s = _index_s(ctx)
    setups, untraced, traced = _run_phases(
        ctx, lambda: _cold_rounds(lines), trace, after=cycle
    )
    report = _served_report(untraced, setups)
    report.add("index_s", index_s, "s")
    # the idle server's mutation latency: every read has been answered
    report.add("mutation_ms", statistics.median(untraced.cycle_mutation_s) * 1000.0, "ms")
    phases = [untraced] + ([traced] if traced else [])
    read_pos = {i: i for i in range(len(reads))}
    for phase in phases:
        _check_mutations(report, phase)
        _check_served(
            report, phase, {"base": reference},
            {"base": frozenset(ctx.inputs.contigs.names)}, Timeline("base"), read_pos,
        )
        before, after = phase.metrics
        hits = after["counters"]["cache_hits_total"] - before["counters"]["cache_hits_total"]
        if hits:
            report.errors.append(f"{hits} result-cache hits in a workload of unique reads")
    answered = {}
    for rec in untraced.records:
        if "results" in rec.response:
            answered[rec.op.key] = rec.response["results"]
    truth = Truth.for_reads(ctx.inputs)
    _quality(report, truth, (
        (2 * i + s, results[s]["contig"]) for i, results in answered.items() for s in (0, 1)
    ))
    report.notes.append(f"{len(answered)} distinct reads answered")
    if traced is None:
        return report, None
    return report, _served_layers(untraced, traced)


# -- serve_hot_mutating ------------------------------------------------------


def hot_read_set(inputs: Inputs, n: int = HOT_READS) -> list[int]:
    """Hot reads of near-median length; half end over a held-out contig.

    The length window keeps the per-read cost (JSON, encode) the same for
    every seed; the held-out half makes mutations change answers.
    """
    lo, hi = true_ranges(*read_segments(inputs), inputs.held_start, inputs.held_end)
    over_held = (hi > lo).reshape(-1, 2).any(axis=1)
    lengths = np.diff(inputs.reads.offsets)
    typical = np.abs(lengths - READS.median_length) <= READS.median_length // 10
    rng = np.random.default_rng([inputs.seed, 7])
    cand, rest = np.flatnonzero(typical & over_held), np.flatnonzero(typical & ~over_held)
    take = min(n // 2, cand.size)
    chosen = np.concatenate([
        rng.choice(cand, take, replace=False), rng.choice(rest, n - take, replace=False)
    ])
    return sorted(int(i) for i in chosen)


def _hot_rounds(lines: dict[int, bytes], hot: list[int], mutations: dict[str, bytes]):
    """Connection 0 mutates on a fixed cadence of its own reads; 1 only reads.

    Per round, connection 0 sends HOT_PHASE reads before each of
    add, remove, add, remove, and then a compact; connection 1 sends
    HOT_READER_ROUND reads.  Both cycle through the hot read set.
    """
    cursors = [0, len(hot) // 2]

    def reads(c: int, count: int) -> list[Op]:
        idx = [hot[(cursors[c] + j) % len(hot)] for j in range(count)]
        cursors[c] += count
        return [Op("map", lines[i], i) for i in idx]

    def mutation(op: str) -> Op:
        return Op("mutation", mutations[op], op)

    while True:
        plan0: list[Op] = []
        for op in ("add_contigs", "remove_contigs", "add_contigs", "remove_contigs"):
            plan0 += reads(0, HOT_PHASE) + [mutation(op)]
        plan0.append(mutation("compact"))
        yield [plan0, reads(1, HOT_READER_ROUND)]


#: live contig set after each mutation op (compaction keeps it)
_STATE_AFTER = {"add_contigs": "added", "remove_contigs": "base"}


def _timeline(phase: Phase) -> Timeline:
    timeline = Timeline("base")
    state = "base"
    for rec in phase.records:
        if rec.op.kind == "mutation":
            state = _STATE_AFTER.get(rec.op.key, state)
            timeline.changes.append((rec.t_send, rec.t_recv, state))
    return timeline


def serve_hot_mutating(ctx: Context, trace: bool) -> tuple[Report, dict | None]:
    from repro.core.mapper import JEMMapper
    from repro.core.persist import load_index
    from repro.seq.records import SequenceSetBuilder

    inputs = ctx.inputs
    hot = hot_read_set(inputs)
    # the quality reads are the first reads of the set (their order is random)
    scored = list(range(min(QUALITY_READS, len(inputs.reads))))
    ids = hot + sorted(set(scored) - set(hot))
    checked = inputs.reads.subset(ids)
    base = load_index(ctx.index_path())
    both = SequenceSetBuilder()
    for seqs in (inputs.contigs, inputs.held_out):
        for i in range(len(seqs)):
            both.add(seqs.names[i], seqs.codes_of(i))
    rebuilt = JEMMapper(base.config)
    rebuilt.index(both.build())  # from scratch over the live set after an add
    references = {
        "base": reference_answers(base, checked),
        "added": reference_answers(rebuilt, checked),
    }
    live = {
        "base": frozenset(inputs.contigs.names),
        "added": frozenset(inputs.contigs.names) | frozenset(inputs.held_out.names),
    }
    mutations = _mutation_lines(inputs)
    lines = {i: map_line(i, inputs.reads.names[i], inputs.reads[i].sequence) for i in ids}
    sweep = [[Op("map", lines[i], i) for i in scored[c::CONNECTIONS]] for c in range(CONNECTIONS)]
    index_s = _index_s(ctx)
    setups, untraced, traced = _run_phases(
        ctx, lambda: _hot_rounds(lines, hot, mutations), trace, before=[sweep]
    )
    report = _served_report(untraced, setups)
    report.add("index_s", index_s, "s")
    # every round sends the same five mutations (two adds, two removes, a
    # compact): the median over rounds of their mean does not depend on
    # which op type the middle sample falls on
    mutation_s = statistics.median(r.mutation_s for r in untraced.rounds)
    report.add("mutation_ms", mutation_s * 1000.0, "ms")
    acks = untraced.timed_of("mutation")
    read_pos = {i: j for j, i in enumerate(ids)}
    for phase in [untraced] + ([traced] if traced else []):
        _check_mutations(report, phase)
        _check_served(report, phase, references, live, _timeline(phase), read_pos)
    # the sweep went first, before any mutation: scored against the base contigs
    answered = {rec.op.key: rec.response["results"] for rec in untraced.records[:len(scored)]
                if "results" in rec.response}
    _quality(report, Truth.for_reads(inputs), (
        (2 * i + s, results[s]["contig"]) for i, results in answered.items() for s in (0, 1)
    ))
    report.notes.append(
        f"{len(acks)} timed mutations; hot set of {len(hot)} reads, "
        f"{sum(1 for i in hot if references['base'][read_pos[i]] != references['added'][read_pos[i]])}"
        f" of them answered differently once the held-out contigs are added; "
        f"{len(answered)} reads scored"
    )
    if traced is None:
        return report, None
    return report, _served_layers(untraced, traced)


WORKLOADS = {
    "offline_map": offline_map,
    "serve_cold": serve_cold,
    "serve_hot_mutating": serve_hot_mutating,
}
