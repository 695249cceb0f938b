"""flowtree benchmark: one workload, one seed, one tracing mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: each operation of a workload
waits for the previous one.  A pass runs every operation once, in its
fixed order, in a fresh interpreter (``worker.py``), because CLI users pay
import time and cold caches on every command.  Passes repeat until S
seconds have gone, at least MIN_PASSES of them; a traced run alternates
untraced and traced passes.  In an untraced run, set-up-only starts
bring the number of set-ups measured to at least MIN_SETUPS.

End-to-end metrics (``--trace 0``), medians over passes:
  wall_s       end of set-up to the last checked result of a pass
  setup_s      interpreter start to ready (import, seeded inputs, windows)
  peak_rss_mb  peak resident memory of a pass (ru_maxrss)
  ok_ratio     operations that passed / operations attempted
The two times are rescaled to the reference machine speed by the host
probe that runs in every pass (hostprobe.py); the unscaled medians are
printed above the JSON line and kept in the record.  Per-layer metrics
(``--trace 1``) come from the traced passes; see tracing.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes a record with the
machine fingerprint to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostprobe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("exact_dense", "window_sparse", "ancestor_profile")
MIN_PASSES = 2
MIN_SETUPS = 3
RUN_BUDGET_S = 150     # start no pass that would likely end past this
RUN_DEADLINE_S = 170   # kill a pass still running at this point of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def thread_caps() -> dict:
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in THREAD_VARS}


def run_worker(args, start: float, pass_id: int, traced: bool,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--run-dir", RUN_DIR, "--pass-id", str(pass_id)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **thread_caps())
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT,
                              timeout=max(1.0, start + RUN_DEADLINE_S - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {pass_id} still running {RUN_DEADLINE_S} s "
                         "into the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {pass_id} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready"] - spawned
    result["setup_s"] = hostprobe.rescale(result["setup_raw_s"],
                                          result["setup_probe_s"])
    if not setup_only:
        result["wall_s"] = hostprobe.rescale(result["wall_raw_s"],
                                             result["wall_probe_s"])
    return result


def run_passes(args) -> tuple[list, list]:
    """Passes until the time is up, then set-up-only starts; returns
    (passes, results whose set-up times count: the passes and those starts)."""
    start = time.monotonic()
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_worker(args, start, len(passes), traced))
        elapsed = time.monotonic() - start
        if len(passes) < MIN_PASSES:
            continue
        longest = max(p["wall_raw_s"] + p["setup_raw_s"] for p in passes)
        if elapsed >= args.seconds or elapsed + longest > RUN_BUDGET_S:
            break
    setups = list(passes)
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(args, start, len(setups), False, True))
    return passes, setups


def check_outputs(passes) -> tuple[bool, list]:
    """Correct means no operation missed its oracle or raised, and every
    pass (traced or not) produced identical outputs; README commands that
    exit non-zero count as failed operations without making the run
    incorrect."""
    problems = []
    first = passes[0]["ops"]
    for p in passes:
        for rec, ref in zip(p["ops"], first):
            if rec["status"] in ("wrong", "error"):
                problems.append(f"{rec['op']}: {rec['status']} {rec['detail']}")
            if rec["digest"] != ref["digest"]:
                problems.append(f"{rec['op']}: output differs between passes")
        if len(p["ops"]) != len(first):
            problems.append("passes ran different operation lists")
    return not problems, sorted(set(problems))


def end_to_end_metrics(passes, setups, attempted, failed) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer_metrics(passes, attempted, failed) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: (statistics.median(p["layers"][name][0] for p in traced), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (
        traced_wall - statistics.median(p["wall_s"] for p in plain), "s")
    out["ops.failed_ratio"] = (failed / attempted, "ratio")
    return out


RATIO_BASES = {
    "localops.support_fraction": "localops.window_vertices_swept",
    "localops.ns_per_output": "localops.outputs_nonzero",
    "zline.bessel_distinct_ratio": "zline.bessel_calls",
    "ops.failed_ratio": "attempted",
    "ok_ratio": "attempted",
}


def fingerprint(passes) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "git_revision": rev or "unknown (not a git checkout)",
            "thread_caps": thread_caps(), **versions}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run kills and reaps the pass it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "flowtree", "__init__.py")):
        print(f"error: no flowtree sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        passes, setups = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(rec["status"] != "ok" for p in passes for rec in p["ops"])
    correct, problems = check_outputs(passes)
    if args.trace:
        metrics = per_layer_metrics(passes, attempted, failed)
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in
                   end_to_end_metrics(passes, setups, attempted, failed).items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": fingerprint(passes),
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_ops": {rec["op"]: rec["detail"] for p in passes
                       for rec in p["ops"] if rec["status"] != "ok"},
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "wall_raw_s": p["wall_raw_s"], "wall_probe_s": p["wall_probe_s"],
                    "setup_s": p["setup_s"], "setup_raw_s": p["setup_raw_s"],
                    "setup_probe_s": p["setup_probe_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "op_seconds": {r["op"]: r["seconds"] for r in p["ops"]},
                    "spans_file": p.get("spans_file")} for p in passes],
        "setups": [{k: p[k] for k in ("setup_s", "setup_raw_s", "setup_probe_s")}
                   for p in setups],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(RUN_DIR, f"record-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(setups)} set-ups, record {os.path.relpath(path, ROOT)}")
    for problem in problems:
        print(f"  problem: {problem}")
    plain = [p for p in passes if not p["traced"]]
    print(f"  unscaled: wall {statistics.median(p['wall_raw_s'] for p in plain):.6g} s, "
          f"set-up {statistics.median(p['setup_raw_s'] for p in setups):.6g} s; "
          f"probe {1e6 * statistics.median(p['wall_probe_s'] for p in plain):.4g} us "
          f"(reference {1e6 * hostprobe.REFERENCE_S:.4g} us)")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio "
          f"(base: {failed} failed of {attempted} attempted)")
    for name, (value, unit) in sorted(metrics.items()):
        base = RATIO_BASES.get(name)
        suffix = f"  (base: {base})" if base else ""
        print(f"  {name} = {value:.6g} {unit}{suffix}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
