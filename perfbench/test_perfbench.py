"""Self-tests of the benchmark: tracing changes no output, self times fit in
the traced set-up plus wall time, every metric is printed with its unit, a
corrupted oracle shows up as failed operations, and the host probe samples
and rescales as documented.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostprobe  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flowtree import abel  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_pass(name, seed, scratch, traced):
    """One pass as worker.py runs it; returns (records, outputs, tracer,
    seconds from tracer installation to the last result)."""
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        ops = workloads.WORKLOADS[name](seed, str(scratch))
        records, outputs = worker.run_ops(ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    return records, outputs, tracer, time.perf_counter() - start


@pytest.mark.parametrize("name", ["exact_dense", "window_sparse"])
def test_traced_outputs_equal_untraced(name, tmp_path):
    # exact_dense outputs are Fractions (bit-equal); window_sparse adds floats
    plain, plain_out, _, _ = run_pass(name, 7, tmp_path, False)
    traced, traced_out, tracer, seconds = run_pass(name, 7, tmp_path, True)
    assert [r["status"] for r in plain] == [r["status"] for r in traced]
    assert all(r["status"] == "ok" for r in plain)
    assert plain_out == traced_out
    # self times of all layers fit inside the traced set-up plus wall time
    summary = tracer.summary()
    assert 0 < sum(summary["module_self_s"].values()) <= seconds
    if name == "exact_dense":   # its set-up builds 21 windows, as run id -1
        built = [tracer.names[n] for n, r in zip(tracer.spans["name"], tracer.spans["run"])
                 if r == -1 and tracer.names[n] in tracing.BUILDERS]
        assert len(built) == 21
    # every span is kept and written
    assert len(tracer.spans["run"]) == summary["spans_total"] > 0
    path = tmp_path / "spans.npz"
    tracer.write_spans(str(path))
    with np.load(path) as spans:
        assert len(spans["start"]) == summary["spans_total"]
        assert (spans["end"] >= spans["start"]).all()


def test_uninstall_restores_every_function():
    from flowtree import localops, trees
    before = (localops.apply_laplacian, trees.TreeWindow.lca, abel.e_f_exact)
    tracer = tracing.Tracer()
    tracer.install()
    assert localops.apply_laplacian is not before[0]
    tracer.uninstall()
    assert (localops.apply_laplacian, trees.TreeWindow.lca, abel.e_f_exact) == before


def test_corrupted_oracle_raises_failed_ratio(tmp_path, monkeypatch):
    records, _, _, _ = run_pass("exact_dense", 5, tmp_path, False)
    assert not any(r["status"] != "ok" for r in records)

    original = abel.e_f_exact

    def corrupted(q, coeffs, kmax):
        a = original(q, coeffs, kmax)
        a[0] += 1
        return a

    monkeypatch.setattr(abel, "e_f_exact", corrupted)
    records, _, _, _ = run_pass("exact_dense", 5, tmp_path, False)
    statuses = [r["status"] for r in records]
    assert statuses.count("wrong") == 21          # every L^k column
    assert "exit" in statuses                     # abel-check exits 1
    assert sum(s != "ok" for s in statuses) / len(statuses) > 0


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_dense",
         "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, group):
    proc = _run_bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.strip().startswith(f"{name} = ") and f" {unit}" in line
                   for line in lines[:-1]), name
    assert any("failed_ratio" in line for line in lines[:-1])
    record = os.path.join(ROOT, ".perfbench-out",
                          f"record-exact_dense-seed3-trace{trace}.json")
    with open(record, encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    for p in passes:   # the end-to-end times are the raw ones rescaled
        assert p["wall_s"] == hostprobe.rescale(p["wall_raw_s"], p["wall_probe_s"])
        assert p["setup_s"] == hostprobe.rescale(p["setup_raw_s"], p["setup_probe_s"])


def test_host_probe_samples_and_rescales():
    import signal
    probe = hostprobe.HostProbe()
    probe.start()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
        samples = probe.take()
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert len(samples) >= 10 and all(0 < s < 0.05 for s in samples)
    assert probe.take() and not probe.samples   # one sample on demand
    assert hostprobe.rescale(3.0, hostprobe.REFERENCE_S) == 3.0
    assert hostprobe.rescale(3.0, 2 * hostprobe.REFERENCE_S) == 1.5


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
