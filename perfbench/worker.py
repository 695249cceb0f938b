"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --run-dir DIR --pass-id K [--setup-only]

Sets up (imports flowtree from the checkout's ``src``, generates the
inputs from the seed, builds the windows), stamps ``ready`` on the
monotonic clock, runs the workload's operations in order and prints one
JSON object as the last line of standard output.  ``run.py`` starts it
and reads that line; ``--setup-only`` stops after the stamp.  A
``hostprobe.HostProbe`` samples the machine's speed throughout; the
medians of its samples over set-up and over the operations go into the
result, for ``run.py`` to rescale the two times with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_ops(ops, tracer=None) -> tuple[list, list]:
    """Run the operations in order; returns (records, outputs)."""
    records, outputs = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id, tracer.command = i, op.command
        start = time.perf_counter()
        detail = ""
        try:
            ok, output = op.call()
            status = "ok" if ok else ("exit" if op.kind == "cli" else "wrong")
            if not ok and op.kind == "cli":
                detail = output[2]
        except Exception:  # a failed operation is reported, not fatal
            status, output = "error", None
            detail = traceback.format_exc(limit=3)[-400:]
        records.append({"op": op.name, "status": status,
                        "seconds": time.perf_counter() - start, "detail": detail})
        outputs.append(output)
    return records, outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # samples the machine's speed from here to the last result
    import hostprobe
    probe = hostprobe.HostProbe()
    probe.start()

    sys.path.insert(0, SRC)
    import flowtree
    if not os.path.abspath(flowtree.__file__).startswith(SRC + os.sep):
        print(f"flowtree imported from {flowtree.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        # installed before set-up, so the window builds and anchor searches
        # of set-up are traced too (as run id -1)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    scratch = tempfile.mkdtemp(prefix="pass-", dir=args.run_dir)
    ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
    ready = time.monotonic()
    setup_probe = statistics.median(probe.take())
    if args.setup_only:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return 0

    start = time.perf_counter()
    records, outputs = run_ops(ops, tracer)
    wall = time.perf_counter() - start
    wall_probe = statistics.median(probe.take())
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(scratch, ignore_errors=True)

    for rec, out in zip(records, outputs):
        rec["digest"] = workloads.digest(out)
    import numpy
    import scipy
    result = {
        "ready": ready,
        "setup_probe_s": setup_probe,
        "wall_raw_s": wall,
        "wall_probe_s": wall_probe,
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(args.trace),
        "ops": records,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "flowtree": flowtree.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        result["trace"] = summary
        result["layers"] = tracing.layer_metrics(summary, workloads.CLI_COMMANDS)
        # one span file per workload and pass number: a later traced run
        # of the workload overwrites it, which bounds the disk they take
        spans = os.path.join(args.run_dir,
                             f"spans-{args.workload}-pass{args.pass_id}.npz")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
