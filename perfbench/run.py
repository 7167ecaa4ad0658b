"""The mapper's benchmark: one workload, one seed, one JSON result line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload offline_map --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then with the timing wrappers of :mod:`tracing`, and
prints the per-layer metrics plus ``trace.overhead_pct``.  The last line of
standard output is the result object; everything above it is a readable
summary.  Inputs are generated from the seed into ``.bench_work/`` and
removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline_map", "serve_cold", "serve_hot_mutating"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed rounds repeat until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    # a terminated run still stops its servers and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from repro.sketch import _native

    import workloads
    from inputs import make_inputs

    # compile the native kernels (cached in the checkout) before any timing
    _native.load()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = make_inputs(args.seed)
        ctx = workloads.Context(inputs, inputs.write(workdir), workdir, args.seconds)
        report, layers = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in report.notes:
        print(f"# {note}")
    for kind, (attempted, failed) in report.ops.items():
        print(f"# ops {kind}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in report.metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for error in report.errors:
        print(f"# CHECK FAILED: {error}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if args.trace:
        units = dict(workloads.PER_LAYER)
        measured = {name: (float(layers[name]), units[name]) for name in units}
        for name, (value, unit) in measured.items():
            print(f"# {name} = {value:.6g} {unit}")
        declared = manifest["per_layer"]
    else:
        measured = report.metrics
        declared = manifest["end_to_end"]
    # every metric the manifest declares, in its order and unit, or no result
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured or measured[entry["name"]][1] != entry["unit"]:
            print(f"error: {args.workload} measured no {entry['name']} in {entry['unit']}",
                  file=sys.stderr)
            return 3
        metrics[entry["name"]] = {"value": measured[entry["name"]][0], "unit": entry["unit"]}
    result = {
        "correct": not report.errors,
        "attempted": sum(a for a, _f in report.ops.values()),
        "failed": sum(f for _a, f in report.ops.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
