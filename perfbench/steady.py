"""Steadiness check: run each workload on several seeds, report the spread.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 [--workloads offline_map,serve_cold] \
        [--first-seed 1] [--json results.json]

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a share
of the median, and the metric's bound from ``BENCHMARK.json``.  A spread
above the bound (``setup_s`` excepted), a run that fails its checks, or a
result that does not hold every end-to-end metric of the manifest, in its
unit and above 0, makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="also write every run's result here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    ok = True
    everything = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}", file=sys.stderr)
        everything[workload] = results
        ok &= all(r["correct"] for r in results)
        for r in results:
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            zero = [name for name, m in r["metrics"].items() if not m["value"] > 0]
            if got != units or zero:
                ok = False
                print(f"{workload}: metrics {sorted(got.items())} do not match the "
                      f"manifest, or read 0: {zero}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] or name == "setup_s" else "  OVER BOUND"
            ok &= not flag
            print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                  f"{bounds[name]:>7.3f}{flag}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(everything, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
