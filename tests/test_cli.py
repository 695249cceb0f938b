"""CLI subcommands: exit codes, artifacts, reproducibility."""

import json
import os

import pytest

from flowtree import ball_window
from flowtree.cli import main


def run(args):
    return main(args)


def test_abel_check_exit_zero(tmp_path):
    out = tmp_path / "o"
    assert run(["abel-check", "--q", "3", "--degree", "4", "--out", str(out)]) == 0
    assert (out / "abel_check.csv").exists()
    meta = json.loads((out / "abel_check.csv.meta.json").read_text())
    assert meta["exact"] is True


def test_malformed_tree_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": 0, "pred": null}]}')  # no measure
    code = run(["kernel", "--tree", str(bad), "--coeffs", "0,1",
                "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("measure", [True, float("nan"), float("inf"), "1/0"])
def test_bad_measure_entry_exit_two(tmp_path, capsys, measure):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [
        {"id": 0, "pred": None, "measure": measure, "complete": False}]}))
    assert run(["kernel", "--tree", str(bad), "--coeffs", "0,1",
                "--out", str(tmp_path / "o")]) == 2
    assert "bad vertex record" in capsys.readouterr().err


def test_missing_tree_file_exit_two(tmp_path, capsys):
    assert run(["kernel", "--tree", str(tmp_path / "missing.json"),
                "--coeffs", "0,1", "--out", str(tmp_path / "o")]) == 2
    assert "cannot read tree file" in capsys.readouterr().err


def test_flow_violation_exit_two(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"apex_level": 0, "vertices": [
        {"id": 0, "pred": None, "measure": "1", "complete": True},
        {"id": 1, "pred": 0, "measure": "1/2", "complete": False},
        {"id": 2, "pred": 0, "measure": "1/3", "complete": False},
    ]}))
    assert run(["kernel", "--tree", str(bad), "--coeffs", "0,1",
                "--out", str(tmp_path / "o")]) == 2


def test_kernel_csv_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["kernel", "--q", "2", "--coeffs", "1/3,-1,1/2",
                    "--backend", "rational", "--out", str(out)]) == 0
    assert (a / "kernel.csv").read_bytes() == (b / "kernel.csv").read_bytes()


def test_kernel_metadata_sidecar(tmp_path):
    out = tmp_path / "o"
    assert run(["kernel", "--q", "2", "--coeffs", "0,1", "--out", str(out)]) == 0
    meta = json.loads((out / "kernel.csv.meta.json").read_text())
    assert "window_size" in meta and "err_bound" in meta


def test_kernel_multiplier_default_degree(tmp_path):
    """One default degree sets both the Chebyshev degree and the window
    radius (degree + 1), so the anchor has the margin the model needs."""
    out = tmp_path / "o"
    assert run(["kernel", "--q", "2", "--multiplier", "exp(-t*x)", "--t", "1",
                "--out", str(out)]) == 0
    meta = json.loads((out / "kernel.csv.meta.json").read_text())
    assert meta["window_size"] == len(ball_window(2, 9)[0])
    assert meta["err_bound"] < 1e-6


def test_kernel_multiplier_missing_parameter_names_flag(tmp_path, capsys):
    assert run(["kernel", "--q", "2", "--multiplier", "exp(-t*x)",
                "--out", str(tmp_path / "o")]) == 2
    assert "needs --t" in capsys.readouterr().err


def test_heat_too_large_names_radius_and_remedy(tmp_path, capsys):
    """heat --t 10 on the binary tree needs a radius-18 ball, past the
    vertex cap: exit 2 with the radius, the vertex count and what to do."""
    assert run(["heat", "--q", "2", "--t", "10",
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "radius 18" in err and "4,980,755 vertices" in err
    assert "smaller --t" in err and "--tree" in err
    assert "max_vertices" not in err


def test_heat_command(tmp_path):
    out = tmp_path / "o"
    assert run(["heat", "--q", "2", "--t", "2.0", "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert abs(meta["mass"] - 1.0) < 1e-6  # window truncation leaks mass


def test_heat_ball_grows_with_t(tmp_path):
    """heat sizes its ball from t: radius 10 at t = 1 (the README
    artifacts), radius 12 at t = 4, where radius 10 leaks 1.1e-5 of mass."""
    for t, radius in (("1", 10), ("4", 12)):
        out = tmp_path / t
        assert run(["heat", "--q", "2", "--t", t, "--out", str(out)]) == 0
        meta = json.loads((out / "heat.csv.meta.json").read_text())
        assert abs(meta["mass"] - 1.0) < 1e-6
        assert meta["window_size"] == len(ball_window(2, radius)[0])


def test_riesz_skew_check_command(tmp_path):
    out = tmp_path / "o"
    assert run(["riesz-skew-check", "--window", "zline", "--dmax", "4",
                "--tol", "1e-6", "--out", str(out)]) == 0
    assert (out / "riesz_skew_check.csv").exists()


def test_riesz_skew_check_failure_record(tmp_path):
    out = tmp_path / "o"
    code = run(["riesz-skew-check", "--window", "zline", "--dmax", "4",
                "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    rec = json.loads((out / "failure.json").read_text())
    assert rec["command"] == "riesz-skew-check"


def test_config_file_and_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": 3, "degree": 3}))
    out = tmp_path / "o"
    assert run(["abel-check", "--config", str(conf), "--out", str(out)]) == 0
    meta = json.loads((out / "abel_check.csv.meta.json").read_text())
    assert meta["q"] == 3 and meta["max_degree"] == 3
    out2 = tmp_path / "o2"
    assert run(["abel-check", "--config", str(conf), "--q", "2",
                "--out", str(out2)]) == 0
    meta2 = json.loads((out2 / "abel_check.csv.meta.json").read_text())
    assert meta2["q"] == 2


def test_config_unknown_key_exit_two(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"nope": 1}))
    assert run(["abel-check", "--config", str(conf),
                "--out", str(tmp_path / "o")]) == 2


def test_transfer_check_command(tmp_path):
    out = tmp_path / "o"
    assert run(["transfer-check", "--q", "2", "--ratios", "1/2,1/2",
                "--degree", "3", "--trials", "5", "--out", str(out)]) == 0


def test_rationalize_command(tmp_path):
    out = tmp_path / "o"
    assert run(["rationalize", "--window", "golden", "--q", "64",
                "--depth", "5", "--out", str(out)]) == 0
    text = (out / "rationalize.csv").read_text().splitlines()
    assert text[0].split(",")[:2] == ["vertex", "child_index"]


def test_level_sum_command(tmp_path):
    out = tmp_path / "o"
    assert run(["level-sum", "--q", "2", "--t-grid", "1:64:4log",
                "--out", str(out)]) == 0
    meta = json.loads((out / "level_sum.csv.meta.json").read_text())
    assert "fit" in meta


def test_divergence_command(tmp_path):
    out = tmp_path / "o"
    assert run(["divergence", "--d-grid", "8,16", "--out", str(out)]) == 0


def test_spectrum_command(tmp_path):
    out = tmp_path / "o"
    assert run(["spectrum", "--theta-grid", "0,pi/3,pi", "--d-grid", "20,40",
                "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.csv.meta.json").read_text())
    assert meta["rayleigh"][0] >= -1e-10
