"""Run the benchmark on several seeds and report how far its end-to-end
metrics spread: the check a benchmark must pass to be steady.

    python3 perfbench/spread.py --workloads exact_dense,window_sparse \
        --seeds 101-110 [--out FILE]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
workload and seed, one after the other, and prints for each metric the
median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.
``--out`` writes the same summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    report = {"seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["run_s"] = seed, time.monotonic() - start
            runs.append(result)
            print(f"{workload} seed {seed}: {result['run_s']:.1f} s, " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        report["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": [r["run_s"] for r in runs],
            "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload} {name}: median {m['median']:.6g}, q1 {m['q1']:.6g}, "
                  f"q3 {m['q3']:.6g}, spread {m['spread']:.3f} (bound {m['bound']})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
