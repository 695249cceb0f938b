"""CLI subcommands: exit codes, artifacts, reproducibility."""

import cmath
import csv
import functools
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import threading
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree import (analysis, ball_window, cli, constant_ratio_window, flowkernel,
                      reports, trees, zline)
from flowtree.cli import main

from conftest import heat_z_kernel


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


@pytest.fixture(scope="module")
def saved_ball(tmp_path_factory):
    """ball_window(2, 9) saved as a tree file, and its document."""
    w, m, _ = ball_window(2, 9)
    doc = trees.window_to_json(w, m)
    path = tmp_path_factory.mktemp("ball") / "ball.json"
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.mark.parametrize("scale", [Fraction(1, 10 ** 400), Fraction(1, 10 ** 310),
                                   Fraction(10 ** 306), Fraction(10 ** 400)],
                         ids=["1e-400", "1e-310", "1e306", "1e400"])
def test_masses_outside_double_range_exit_two(tmp_path, capsys, saved_ball, scale):
    """A saved ball whose rational masses are scaled past the normal doubles
    (some mass underflows to a subnormal or to 0, or overflows) is bad
    input for every command that loads it, not a traceback or a NaN."""
    doc = json.loads(json.dumps(saved_ball[1]))
    for rec in doc["vertices"]:
        rec["measure"] = str(Fraction(rec["measure"]) * scale)
    tree = tmp_path / "scaled.json"
    tree.write_text(json.dumps(doc))
    for argv in (["kernel", "--coeffs", "0,1"], ["heat"], ["riesz"]):
        assert run([*argv, "--tree", str(tree), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad vertex record" in err and "normal doubles" in err


def test_loaded_ball_anchors_in_its_deepest_safe_region(tmp_path, saved_ball):
    """A loaded window anchors a command at the middle of the vertices safe
    at its radius, or at the deepest defect distance the window has: the
    degree-8 multiplier column of a saved ball_window(2, 9) sits at the
    centre, the one vertex safe at 9, with the built-in ball's bytes.  heat
    reads radius 0, so it keeps the middle of every vertex."""
    tree, doc = saved_ball
    flags = ["--multiplier", "exp(-t*x)", "--t", "1"]
    assert run(["kernel", "--tree", str(tree), *flags, "--out", str(tmp_path / "a")]) == 0
    assert run(["kernel", "--q", "2", *flags, "--out", str(tmp_path / "b")]) == 0
    for name in ("kernel.csv", "kernel.csv.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert json.loads((tmp_path / "a" / "kernel.csv.meta.json").read_text())["anchor"] == \
        ball_window(2, 9)[2]
    assert run(["heat", "--tree", str(tree), "--out", str(tmp_path / "h")]) == 0
    ids = sorted(rec["id"] for rec in doc["vertices"])
    assert json.loads((tmp_path / "h" / "heat.csv.meta.json").read_text())["anchor"] == \
        ids[len(ids) // 2]


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


@pytest.mark.parametrize("argv, route, flag", [
    (["--q", "2", "--coeffs", "0,1", "--multiplier", "exp(-t*x)"],
     "kernel --coeffs", "--multiplier"),
    (["--q", "2", "--coeffs", "0,1", "--t", "1"], "kernel --coeffs", "--t"),
    (["--q", "2", "--coeffs", "0,1", "--k", "2"], "kernel --coeffs", "--k"),
    (["--q", "2", "--coeffs", "0,1", "--alpha", "1"], "kernel --coeffs", "--alpha"),
    (["--q", "2", "--coeffs", "0,1", "--dmax", "20"], "kernel --coeffs", "--dmax"),
    (["--window", "zline", "--coeffs", "0,1", "--dmax", "20"], "kernel --coeffs", "--dmax"),
    (["--q", "2", "--multiplier", "exp(-t*x)", "--t", "1", "--dmax", "20"],
     "kernel --multiplier off the line", "--dmax"),
    (["--window", "golden", "--multiplier", "exp(-t*x)", "--t", "1", "--dmax", "20"],
     "kernel --multiplier off the line", "--dmax"),
], ids=["coeffs-multiplier", "coeffs-t", "coeffs-k", "coeffs-alpha", "coeffs-dmax",
        "coeffs-dmax-line", "multiplier-dmax-q2", "multiplier-dmax-golden"])
def test_kernel_refuses_the_flags_of_its_other_route(tmp_path, capsys, argv, route, flag):
    """A polynomial column reads no multiplier flag, and a multiplier
    column off the line writes no line kernel, so reads no --dmax: exit 2
    before anything is built, naming the route and the flag."""
    out = tmp_path / "o"
    assert run(["kernel", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{route} does not read {flag}" in err and "Traceback" not in err
    assert not any(out.iterdir())


def test_kernel_on_the_line_reads_dmax(tmp_path):
    """On the line, --dmax sets the line kernel's nmax."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "exp(-t*x)",
                "--t", "1", "--dmax", "5", "--out", str(out)]) == 0
    meta = json.loads((out / "zkernel.csv.meta.json").read_text())
    assert meta["nmax"] == 5


def test_kernel_on_the_line_doubles_the_grid_for_the_wave_packet(tmp_path):
    """The wave packet at t = 2 fails the default grid for --dmax 16 and
    passes at twice it: the line kernel comes from 2048 points."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "schrodinger",
                "--t", "2", "--out", str(out)]) == 0
    assert (out / "zkernel.csv").exists()
    meta = json.loads((out / "zkernel.csv.meta.json").read_text())
    assert meta["grid"] == 2048


def test_kernel_on_the_line_past_the_largest_grid_exits_one(tmp_path):
    """The wave packet at t = 100000 oscillates faster than the largest
    grid resolves, so no grid passes the aliasing guard: exit 1, and the
    failure record names the largest grid."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "schrodinger",
                "--t", "100000", "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())["failure"]
    assert failure["error"] == "AliasingError"
    assert failure["message"].startswith(f"grid {zline.MAX_GRID} insufficient")
    assert zline.MAX_GRID == 65536


def _line_kernel(out):
    with open(out / "zkernel.csv", encoding="utf-8") as fh:
        return {int(r["n"]): complex(float(r["re"]), float(r["im"]))
                for r in csv.DictReader(fh)}


@pytest.mark.parametrize("alpha", [1.0, -2.0, 16.0])
def test_kernel_on_the_line_takes_the_imaginary_power_closed_form(tmp_path, alpha):
    """lambda^(i alpha) is singular at 0, so on the line its kernel is the
    Gamma quotient of zline.imaginary_power_kernel, value for value: exit
    0, grid 0 and the quadrature discrepancy in the sidecar."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "x^{i*alpha}",
                "--alpha", str(alpha), "--out", str(out)]) == 0
    kern, _, worst = zline.imaginary_power_kernel(alpha, 16)
    assert _line_kernel(out) == {n: kern.value(n) for n in range(-16, 17)}
    meta = json.loads((out / "zkernel.csv.meta.json").read_text())
    assert meta == {"multiplier": "x^{i*alpha}", "nmax": 16, "grid": 0,
                    "quad_discrepancy": worst}
    assert worst <= zline.CONSISTENCY_TOL


def test_kernel_on_the_line_imaginary_power_discrepancy_exits_one(tmp_path, monkeypatch):
    """A quadrature discrepancy above CONSISTENCY_TOL (here 0) exits 1 with
    a failure record that holds it."""
    monkeypatch.setattr(zline, "CONSISTENCY_TOL", 0.0)
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "x^{i*alpha}",
                "--alpha", "1", "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())["failure"]
    meta = json.loads((out / "zkernel.csv.meta.json").read_text())
    assert failure == {"check": "imaginary power quadrature",
                       "discrepancy": meta["quad_discrepancy"]}
    assert failure["discrepancy"] > 0


def test_kernel_on_the_line_imaginary_power_zero_exits_two(tmp_path, capsys):
    """alpha = 0 is refused by the closed form: exit 2, no line kernel."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "x^{i*alpha}",
                "--alpha", "0", "--out", str(out)]) == 2
    assert "alpha must be finite and nonzero" in capsys.readouterr().err
    assert not (out / "zkernel.csv").exists() and not (out / "failure.json").exists()


def test_kernel_on_the_line_past_the_largest_default_grid_exits_two(tmp_path, capsys):
    """--dmax 16304 is the largest nmax whose default grid is MAX_GRID; one
    past it is refused as bad input before any grid is built."""
    assert run(["kernel", "--window", "zline", "--multiplier", "exp(-t*x)",
                "--t", "1", "--dmax", "16304", "--out", str(tmp_path / "o")]) == 0
    assert run(["kernel", "--window", "zline", "--multiplier", "exp(-t*x)",
                "--t", "1", "--dmax", "17000", "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "nmax 17000" in err and "MAX_GRID = 65536" in err
    assert not (tmp_path / "p" / "failure.json").exists()


def test_kernel_over_the_vertex_cap_names_its_size_and_the_cap(tmp_path, capsys):
    """The degree-20 ball of the 3-ary tree exits 2 before it is built; the
    message names both numbers and offers no way around the cap."""
    assert run(["kernel", "--q", "3", "--multiplier", "exp(-t*x)", "--t", "1",
                "--degree", "20", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "20,920,706,405 vertices" in err and "cap of 2,000,000" in err
    assert "max_vertices" not in err


def _kernel_values(out) -> dict:
    with open(out / "kernel.csv", encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        return {int(r["x_id"]): complex(float(r["value_re"]), float(r["value_im"]))
                for r in rows}


def test_kernel_on_the_line_writes_the_line_kernel(tmp_path):
    """On the line, a multiplier column also writes the trapezoid line
    kernel, n = -16..16 by default: for exp(-t*x) it is e^-t I_n(t)."""
    out = tmp_path / "o"
    assert run(["kernel", "--window", "zline", "--multiplier", "exp(-t*x)",
                "--t", "1", "--out", str(out)]) == 0
    with open(out / "zkernel.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == list(range(-16, 17))
    want = heat_z_kernel(1.0, 16)
    for r in rows:
        got = complex(float(r["re"]), float(r["im"]))
        assert abs(got - want[abs(int(r["n"]))]) < 1e-12


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_kernel_power_multiplier_matches_the_polynomial_column(tmp_path, backend):
    """x^k with k = 2 through the Chebyshev route, on the stencils (rational)
    and the ball sweep (float), is the exact column of L^2, on the same
    radius-4 ball, within the certified error."""
    cheb, exact = tmp_path / "cheb", tmp_path / "exact"
    assert run(["kernel", "--q", "2", "--multiplier", "x^k", "--k", "2",
                "--degree", "3", "--backend", backend, "--out", str(cheb)]) == 0
    assert run(["kernel", "--q", "2", "--coeffs", "0,0,1", "--out", str(exact)]) == 0
    metas = [json.loads((d / "kernel.csv.meta.json").read_text()) for d in (cheb, exact)]
    assert metas[0]["window_size"] == metas[1]["window_size"] == len(ball_window(2, 4)[0])
    got, want = _kernel_values(cheb), _kernel_values(exact)
    for x in set(got) | set(want):
        assert abs(got.get(x, 0) - want.get(x, 0)) <= metas[0]["err_bound"] + 1e-12


@pytest.mark.parametrize("argv", [["--multiplier", "x^{i*alpha}", "--alpha", "1"],
                                  ["--multiplier", "schrodinger", "--t", "2"]],
                         ids=["imaginary-power", "schrodinger"])
def test_kernel_oscillating_multipliers(tmp_path, argv):
    out = tmp_path / "o"
    assert run(["kernel", "--q", "2", *argv, "--out", str(out)]) == 0
    values = _kernel_values(out)
    assert values and all(cmath.isfinite(v) for v in values.values())


@pytest.mark.parametrize("argv", [
    ["heat", "--q", "8", "--t", "1024"], ["heat", "--q", "64", "--t", "256"],
    ["heat", "--q", "512", "--t", "4096"], ["level-sum", "--q", "64", "--t-grid", "4096"]],
    ids=["heat-q8-t1024", "heat-q64-t256", "heat-q512-t4096", "level-sum-q64-t4096"])
def test_group_sums_run_where_the_measures_leave_double_range(tmp_path, argv):
    """Columns whose ancestor measures pass 1e308 (512^644 at q = 512, t =
    4096) are summed on the measures' ratios: exit 0, heat's sidecar mass
    within 1e-12 of 1, and a finite, positive level sum."""
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    if argv[0] == "heat":
        meta = json.loads((out / "heat.csv.meta.json").read_text())
        assert abs(meta["mass"] - 1.0) <= 1e-12 and meta["truncated"] is False
    else:
        with open(out / "level_sum.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert 0 < float(row["value"]) < math.inf and row["chain_truncated"] == "False"


def test_heat_command(tmp_path):
    out = tmp_path / "o"
    assert run(["heat", "--q", "2", "--t", "2.0", "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert abs(meta["mass"] - 1.0) <= 1e-12


def test_heat_writes_one_row_per_group_from_the_anchor_alone(tmp_path):
    """heat --q 3 --t 4 reads the anchor's chain only: a 1-vertex window
    and 990 (level, meeting level) rows out to distance 43, mass 1."""
    out = tmp_path / "o"
    assert run(["heat", "--q", "3", "--t", "4", "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert meta["window_size"] == 1 and meta["truncated"] is False
    assert abs(meta["mass"] - 1.0) <= 1e-12
    with open(out / "heat.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 990
    assert list(rows[0]) == ["level", "meeting_level", "distance", "log10_value",
                             "log10_mass", "value_mass"]
    assert max(int(r["distance"]) for r in rows) == 43


@pytest.mark.parametrize("argv", [
    ["--window", "spine", "--t", "1"], ["--q", "3", "--t", "1024"]],
    ids=["spine", "q3-1024"])
def test_heat_runs_where_no_ball_holds_the_column(tmp_path, argv):
    """The spine (whose anchor's sibling is a leaf of the window) and the
    3-ary column at t = 1024 (whose ball would hold about 1.5e86 vertices)
    hold their mass: exit 0."""
    out = tmp_path / "o"
    assert run(["heat", *argv, "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert abs(meta["mass"] - 1.0) <= 1e-12


def test_heat_refuses_a_column_of_too_many_groups(tmp_path, capsys, monkeypatch):
    """At ratios 999/1000, 1/1000 and t = 1e6 the chain stays in double
    range and all ~41.6M groups are nonempty: exit 2 naming the cap, before
    any kernel value is evaluated."""
    def no_values(*args):
        raise AssertionError("heat evaluated a column over the cap")
    monkeypatch.setattr(flowkernel, "_suffix_sums", no_values)
    assert run(["heat", "--ratios", "999/1000,1/1000", "--t", "1e6",
                "--out", str(tmp_path / "o")]) == 2
    assert "cap of 2,000,000" in capsys.readouterr().err


def test_heat_on_a_short_loaded_chain_flags_truncation(tmp_path):
    """A loaded file whose apex sits below the levels the column reads:
    the sidecar says truncated, and the lost mass fails the check."""
    w, m, _ = constant_ratio_window((Fraction(3, 4), Fraction(1, 4)), depth=4, up=2)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(trees.window_to_json(w, m)))
    out = tmp_path / "o"
    assert run(["heat", "--tree", str(tree), "--t", "4", "--out", str(out)]) == 1
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert meta["truncated"] is True
    assert json.loads((out / "failure.json").read_text())["failure"]["check"] == \
        "heat mass conservation"


def test_riesz_skew_check_command(tmp_path):
    out = tmp_path / "o"
    assert run(["riesz-skew-check", "--window", "zline", "--dmax", "4",
                "--tol", "1e-6", "--out", str(out)]) == 0
    assert (out / "riesz_skew_check.csv").exists()


def test_riesz_skew_check_failure_record(tmp_path):
    """A tolerance below the golden flow's rounding fails the check (on the
    line the deviation is exactly 0)."""
    out = tmp_path / "o"
    code = run(["riesz-skew-check", "--window", "golden", "--dmax", "4",
                "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    rec = json.loads((out / "failure.json").read_text())
    assert rec["command"] == "riesz-skew-check"


def test_riesz_skew_check_records_the_applied_tol(tmp_path):
    """With --tol unset the check applies 1e-6, and the sidecar says so."""
    out = tmp_path / "o"
    assert run(["riesz-skew-check", "--window", "zline", "--dmax", "4",
                "--out", str(out)]) == 0
    meta = json.loads((out / "riesz_skew_check.csv.meta.json").read_text())
    assert meta["tol"] == 1e-6


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


def test_config_values_go_through_the_parser(tmp_path):
    """A string number is converted by the flag's type, not passed on."""
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": "3", "degree": "3"}))
    out = tmp_path / "o"
    assert run(["abel-check", "--config", str(conf), "--out", str(out)]) == 0
    meta = json.loads((out / "abel_check.csv.meta.json").read_text())
    assert meta["q"] == 3 and meta["max_degree"] == 3


def test_config_keys_are_flag_names(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"multiplier": "exp(-t*x)", "t": 1, "q-grid": None}))
    assert run(["kernel", "--config", str(conf), "--q", "2",
                "--out", str(tmp_path / "o")]) == 0
    conf.write_text(json.dumps({"t_param": 1}))
    assert run(["kernel", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2


def test_config_loses_to_explicit_flag_equal_to_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"out": "from-config", "q": 3, "degree": 2}))
    assert run(["abel-check", "--config", str(conf), "--out", "flowtree-out"]) == 0
    assert (tmp_path / "flowtree-out" / "abel_check.csv").exists()
    assert not (tmp_path / "from-config").exists()


README_CONFIG = {"q": 3, "t": 4, "t-grid": "1:64:4log"}


def test_config_keys_a_command_does_not_read_are_ignored(tmp_path, capsys):
    """The README's example config serves heat (q, t) and level-sum (q,
    t-grid), and abel-check (q) ignores its t; a key that names no flag, a
    value its flag refuses, and an explicit flag the command does not read
    still exit 2."""
    assert json.dumps(README_CONFIG) in README.read_text(encoding="utf-8")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(README_CONFIG))
    for cmd in ("heat", "level-sum", "abel-check"):
        assert run([cmd, "--config", str(conf), "--out", str(tmp_path / cmd)]) == 0
    heat = json.loads((tmp_path / "heat" / "heat.csv.meta.json").read_text())
    radial = json.loads((tmp_path / "heat" / "radial.csv.meta.json").read_text())
    assert heat["t"] == 4.0 and radial["q"] == 3
    with open(tmp_path / "level-sum" / "level_sum.csv", newline="") as fh:
        ts = [float(r["t"]) for r in csv.DictReader(fh)]
    assert ts == pytest.approx([1, 4, 16, 64])
    want = tmp_path / "want"
    assert run(["level-sum", "--q", "3", "--t-grid", "1:64:4log", "--out", str(want)]) == 0
    for name in ("level_sum.csv", "level_sum.csv.meta.json"):
        assert (tmp_path / "level-sum" / name).read_bytes() == (want / name).read_bytes()
    assert json.loads((tmp_path / "abel-check" / "abel_check.csv.meta.json")
                      .read_text())["q"] == 3
    capsys.readouterr()
    conf.write_text(json.dumps({**README_CONFIG, "nope": 1}))
    assert run(["heat", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'nope'" in capsys.readouterr().err
    conf.write_text(json.dumps({**README_CONFIG, "depth": -1}))
    assert run(["abel-check", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert "--depth must be >= 0" in capsys.readouterr().err
    conf.write_text(json.dumps(README_CONFIG))
    assert run(["abel-check", "--config", str(conf), "--t", "4",
                "--out", str(tmp_path / "o")]) == 2
    assert "abel-check does not read --t" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, [3], {"q": 3}])
def test_config_rejects_structured_values(tmp_path, capsys, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": value}))
    assert run(["abel-check", "--config", str(conf),
                "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def _parses(kind, text) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


FLAGS = {a.option_strings[0][2:]: a for a in cli.build_parser()._actions
         if a.option_strings and a.dest not in ("help", "config")}
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
STRUCTURED = st.one_of(st.booleans(), st.lists(st.integers(), max_size=2),
                       st.dictionaries(TEXT, st.integers(), max_size=1))


def _ill_typed(key):
    action = FLAGS[key]
    if action.choices:
        return st.one_of(STRUCTURED, TEXT.filter(lambda t: t not in action.choices))
    if action.type is int:
        return st.one_of(STRUCTURED, st.floats(),
                         TEXT.filter(lambda t: not _parses(int, t)))
    if action.type is float:
        return st.one_of(STRUCTURED, TEXT.filter(lambda t: not _parses(float, t)))
    return STRUCTURED


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FLAGS)).flatmap(
    lambda key: st.tuples(st.just(key), _ill_typed(key))))
def test_config_ill_typed_value_exits_two(item):
    key, value = item
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "conf.json")
        with open(conf, "w", encoding="utf-8") as fh:
            json.dump({key: value}, fh)
        assert run(["abel-check", "--config", conf,
                    "--out", os.path.join(tmp, "o")]) == 2


def test_jobs_flag_is_gone(tmp_path):
    assert run(["abel-check", "--jobs", "2", "--out", str(tmp_path / "o")]) == 2


# each command with each flag it does not read, and a value the flag parses
UNREAD = [(cmd, f"--{flag}", action.choices[0] if action.choices else "1")
          for cmd, reads in cli.READS.items() for flag, action in FLAGS.items()
          if flag != "out" and action.dest not in reads]


def test_every_command_refuses_each_flag_it_does_not_read(tmp_path, capsys):
    """Exit 2 before the command runs, naming the command and the flag; the
    last two cases once ran the 3-ary ball and the spine."""
    cases = UNREAD + [("abel-check", "--ratios", "1/3,2/3"),
                      ("divergence", "--window", "golden")]
    for i, (cmd, flag, value) in enumerate(cases):
        out = tmp_path / str(i)
        assert run([cmd, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cmd} does not read {flag}" in err and "Traceback" not in err
        assert not any(out.iterdir())


# the commands whose ball has degree --q, and the window routes that leave a
# flag unread: the route's flags, what the refusal names it, and the flags
ROUTE_COMMANDS = ("kernel", "heat", "riesz", "riesz-skew-check", "level-sum")
ROUTES = [
    (["--ratios", "3/4,1/4"], "--ratios", ["--q 3", "--depth 9"]),
    (["--window", "golden"], "--window golden", ["--q 3", "--depth 9", "--backend float"]),
    (["--window", "zline"], "--window zline", ["--q 3", "--depth 9"]),
    (["--window", "spine"], "--window spine", ["--q 3", "--backend rational"]),
    (["--window", "homog"], "--window homog", ["--depth 9"]),
    (["--tree", "TREE"], "--tree", ["--q 3", "--depth 9", "--backend float",
                                    "--window homog"]),
]


def test_window_routes_refuse_each_flag_they_do_not_read(tmp_path, capsys):
    """Exit 2 before anything is built, naming the route and the flag, on
    every command whose window route leaves the flag unread; rationalize
    reads --q as its denominator on every route, and kernel --coeffs takes
    its degree from the coefficients.  heat and level-sum read the anchor's
    chain only, so --depth exits 2 on every route, the spine's too, naming
    the command."""
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(trees.window_to_json(*ball_window(2, 3)[:2])))
    cases = [(cmd, [str(tree) if a == "TREE" else a for a in route] + extra.split(),
              f"{cmd} {how}" if flag[2:] in cli.READS[cmd] else cmd, flag)
             for cmd in ROUTE_COMMANDS + ("rationalize",)
             for route, how, flags in ROUTES for extra in flags
             for flag in [extra.split()[0]]
             if not (cmd == "rationalize" and flag == "--q")]
    cases.append(("kernel", ["--coeffs", "0,1", "--degree", "5"],
                  "kernel --coeffs", "--degree"))
    cases += [(cmd, ["--window", "spine", "--depth", "10"], cmd, "--depth")
              for cmd in ("heat", "level-sum")]
    assert len(cases) == 6 * 14 - 5 + 1 + 2
    for i, (cmd, argv, route, flag) in enumerate(cases):
        out = tmp_path / str(i)
        assert run([cmd, *argv, "--out", str(out)]) == 2, (cmd, argv)
        err = capsys.readouterr().err
        assert f"{route} does not read {flag}" in err and "Traceback" not in err
        assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["riesz", "--window", "zline", "--backend", "float", "--dmax", "2"],
    ["riesz", "--window", "spine", "--depth", "40", "--dmax", "2"],
    ["heat", "--ratios", "3/4,1/4", "--backend", "float"],
    ["rationalize", "--ratios", "3/4,1/4", "--q", "8"],
], ids=["zline-backend", "spine-depth", "ratios-backend", "rationalize-ratios"])
def test_window_routes_read_their_flags(tmp_path, argv):
    """Each flag here is read by the route beside it (rationalize's --q is
    its denominator), so the command runs."""
    assert run([*argv, "--out", str(tmp_path / "o")]) == 0


def test_config_keys_a_route_does_not_read_are_ignored(tmp_path):
    """A config's q, depth and backend beside --window golden change
    nothing: the route never reads them."""
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": 3, "depth": 9, "backend": "rational"}))
    argv = ["riesz", "--window", "golden", "--dmax", "2"]
    assert run([*argv, "--config", str(conf), "--out", str(tmp_path / "conf")]) == 0
    assert run([*argv, "--out", str(tmp_path / "flags")]) == 0
    for name in ("riesz.csv", "riesz.csv.meta.json"):
        assert (tmp_path / "conf" / name).read_bytes() == \
            (tmp_path / "flags" / name).read_bytes()


def test_reads_names_every_command_and_only_parser_flags():
    assert list(cli.READS) == list(cli.COMMANDS)
    dests = {a.dest for a in FLAGS.values()} - {"out"}
    for reads in cli.READS.values():
        assert set(reads) <= dests


def _readme_entry(tokens) -> dict:
    """The flags of one README flag-list row, by dest: the value after each
    flag, read by the flag's type, or None when another flag follows."""
    entry = {}
    for i, tok in enumerate(tokens):
        if tok.startswith("--"):
            action = FLAGS[tok[2:]]
            val = tokens[i + 1] if i + 1 < len(tokens) else "--"
            entry[action.dest] = (None if val.startswith("--")
                                  else (action.type or str)(val))
    return entry


def test_readme_flag_list_is_the_reads_table():
    """The README's list of each command's flags and defaults is cli.READS."""
    text = README.read_text(encoding="utf-8").split("Each command reads the flags")[1]
    rows = {ln.split()[0]: ln.split()[1:]
            for ln in text.split("```")[1].splitlines() if ln.strip()}
    groups = {}   # the rows a row may start with, each standing for its flags
    for name, want in (("chain", cli.CHAIN), ("window", cli.WINDOW)):
        tokens = rows.pop(name)
        groups[name] = {**groups.get(tokens[0], {}), **_readme_entry(tokens)}
        assert groups[name] == want
    got = {cmd: {**groups.get(tokens[0], {}), **_readme_entry(tokens)}
           for cmd, tokens in rows.items()}
    assert got == cli.READS


@pytest.mark.parametrize("error", [zline.AliasingError, zline.ConsistencyError])
def test_numerical_failure_exits_one_with_record(tmp_path, monkeypatch, error):
    def fail(args, out):
        raise error("grid too coarse for the kernel")
    monkeypatch.setitem(cli.COMMANDS, "kernel", fail)
    out = tmp_path / "o"
    assert run(["kernel", "--out", str(out)]) == 1
    rec = json.loads((out / "failure.json").read_text())
    assert rec["command"] == "kernel"
    assert rec["failure"]["error"] == error.__name__
    assert rec["failure"]["message"] == "grid too coarse for the kernel"


@pytest.mark.parametrize("epsilon, error, message", [
    ("5", "DominatedTailError", "dominated-tail check failed"),
    ("40", "NumericalError", "overflows"),
])
def test_weighted_sweep_numerical_failure_exits_one(tmp_path, capsys, epsilon,
                                                    error, message):
    """A tail that does not decay, and a weight past the float range, are
    numerical failures with a record, not bad input or a traceback."""
    out = tmp_path / "o"
    assert run(["weighted-sweep", "--epsilon", epsilon, "--t-grid", "1,4",
                "--q-grid", "2", "--out", str(out)]) == 1
    rec = json.loads((out / "failure.json").read_text())
    assert rec["command"] == "weighted-sweep"
    assert rec["failure"]["check"] == "numerical"
    assert rec["failure"]["error"] == error
    assert message in rec["failure"]["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_transfer_check_command(tmp_path):
    out = tmp_path / "o"
    assert run(["transfer-check", "--q", "2", "--ratios", "1/2,1/2",
                "--degree", "3", "--trials", "5", "--out", str(out)]) == 0


def test_rationalize_command(tmp_path):
    out = tmp_path / "o"
    assert run(["rationalize", "--window", "golden", "--q", "64",
                "--out", str(out)]) == 0
    text = (out / "rationalize.csv").read_text().splitlines()
    assert text[0].split(",")[:2] == ["vertex", "child_index"]


def test_level_sum_command(tmp_path):
    out = tmp_path / "o"
    assert run(["level-sum", "--q", "2", "--t-grid", "1:64:4log",
                "--out", str(out)]) == 0
    meta = json.loads((out / "level_sum.csv.meta.json").read_text())
    assert "fit" in meta


def test_level_sum_builds_no_ball(tmp_path):
    """level-sum reads only the anchor's ancestor chain, so a 64-ary flow
    runs on a one-vertex window."""
    out = tmp_path / "o"
    assert run(["level-sum", "--q", "64", "--t-grid", "64",
                "--out", str(out)]) == 0
    assert json.loads((out / "level_sum.csv.meta.json").read_text())["window_size"] == 1


def test_divergence_command(tmp_path):
    out = tmp_path / "o"
    assert run(["divergence", "--d-grid", "8,16", "--out", str(out)]) == 0


def test_divergence_on_a_saved_spine_probes_from_x1(tmp_path, capsys):
    """A saved spine, whose apex is incomplete, is probed from x1, the
    highest vertex with a cone complete 2 max(D) levels down: the same rows
    as the built-in spine.  A cone too shallow for the grid exits 2."""
    w, m, x1 = trees.spine_window(depth=140)
    tree = tmp_path / "spine.json"
    tree.write_text(json.dumps(trees.window_to_json(w, m)))
    grid = ["--d-grid", "16,32,64"]
    for sub, extra in (("saved", ["--tree", str(tree)]), ("built-in", [])):
        assert run(["divergence", *extra, *grid, "--out", str(tmp_path / sub)]) == 0
    meta = json.loads((tmp_path / "saved" / "divergence.csv.meta.json").read_text())
    assert meta["x1"] == x1
    assert (tmp_path / "saved" / "divergence.csv").read_bytes() == \
        (tmp_path / "built-in" / "divergence.csv").read_bytes()
    assert run(["divergence", "--tree", str(tree), "--d-grid", "71",
                "--out", str(tmp_path / "o")]) == 2
    assert "complete 142 levels down" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    out = tmp_path / "o"
    assert run(["spectrum", "--theta-grid", "0,pi/3,pi", "--d-grid", "20,40",
                "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.csv.meta.json").read_text())
    assert meta["rayleigh"][0] >= -1e-10


@pytest.mark.parametrize("argv, message", [
    (["transfer-check", "--ratios", "1/0"], "zero denominator"),
    (["weighted-sweep", "--q-grid", "inf", "--t-grid", "1"], "not finite"),
    (["heat", "--t", "inf"], "must be finite"),
    (["transfer-check", "--degree", "-1"], "must be >= 0"),
    (["divergence", "--d-grid", "0,8"], "below 1"),
    (["heat", "--q", "0"], "need q >= 1"),
    (["transfer-check", "--q", "0"], "needs q >= 1"),
    # a radius-0 ball holds no pair besides the anchor
    (["riesz-skew-check", "--dmax", "0"], "--dmax must be >= 1"),
    # the radial route needs q >= 2; neither command reads --window
    (["mh-norms", "--q", "1"], "--q must be >= 2"),
    (["sharpness", "--q", "1"], "--q must be >= 2"),
    # a line kernel past the grid cap names the flag that set its nmax
    (["kernel", "--window", "zline", "--multiplier", "schrodinger", "--t", "2",
      "--dmax", "20000"], "error: --dmax: nmax 20000 needs a grid of 131072"),
])
def test_bad_numeric_flag_exits_two(tmp_path, capsys, argv, message):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "2,2", "0"])
def test_mh_norms_l_grid_needs_two_distinct_levels(tmp_path, capfd, value):
    """A negative level, a repeated level or a single level exit 2 naming
    the flag, before any fit runs (no LAPACK message, no traceback)."""
    assert run(["mh-norms", f"--l-grid={value}", "--out", str(tmp_path / "o")]) == 2
    out, err = capfd.readouterr()
    assert "--l-grid" in err
    assert "DLASCL" not in out + err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["sharpness", "--t-grid", "1"], "--t-grid"),
    (["divergence", "--d-grid", "0,8"], "--d-grid"),
    (["weighted-sweep", "--q-grid", "0"], "--q-grid"),
    (["weighted-sweep", "--q-grid", "1"], "--q-grid"),
    (["spectrum", "--d-grid", "0"], "--d-grid"),
    (["weighted-sweep", "--t-grid", "0"], "--t-grid"),
    (["level-sum", "--t-grid", "inf"], "--t-grid"),
    (["spectrum", "--theta-grid", "x"], "--theta-grid"),
    (["level-sum", "--t-grid=-1,2"], "--t-grid"),
    # a line kernel past the grid cap: l = 40, t = 20000
    (["mh-norms", "--l-grid", "0,40"], "--l-grid"),
    (["sharpness", "--t-grid", "2,20000"], "--t-grid"),
], ids=["sharpness-t1", "divergence-d0", "weighted-sweep-q0", "weighted-sweep-q1",
        "spectrum-d0", "weighted-sweep-t0", "level-sum-inf", "spectrum-theta-x",
        "level-sum-t-1", "mh-norms-l-past-grid-cap", "sharpness-t-past-grid-cap"])
def test_bad_grid_names_its_flag(tmp_path, capsys, argv, flag):
    """A grid refused for its form, its range or a line kernel past the grid
    cap exits 2, its message starting with the flag."""
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "Traceback" not in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, sidecar, slopes", [
    (["sharpness", "--t-grid", "10"], "sharpness.csv.meta.json",
     lambda m: [m["fit"]["slope"]]),
    (["level-sum", "--t-grid", "4"], "level_sum.csv.meta.json",
     lambda m: [m["fit"]["slope"]]),
    (["weighted-sweep", "--t-grid", "4"], "weighted_sweep.csv.meta.json",
     lambda m: [s for name in ("grad_heat", "heat_gradstar", "grad_heat_gradstar")
                for s in m["fits"][name].values()]),
    (["spectrum", "--d-grid", "25"], "spectrum.csv.meta.json",
     lambda m: list(m["fit"]["slopes"].values())),
    # a repeated point is one abscissa too
    (["sharpness", "--t-grid", "2,2"], "sharpness.csv.meta.json",
     lambda m: [m["fit"]["slope"]]),
    (["level-sum", "--t-grid", "4,4"], "level_sum.csv.meta.json",
     lambda m: [m["fit"]["slope"]]),
    (["spectrum", "--d-grid", "5,5"], "spectrum.csv.meta.json",
     lambda m: list(m["fit"]["slopes"].values())),
], ids=["sharpness", "level-sum", "weighted-sweep", "spectrum", "sharpness-repeated",
        "level-sum-repeated", "spectrum-repeated"])
def test_one_point_fit_sidecars_are_strict_json(tmp_path, argv, sidecar, slopes):
    """A fit through one grid point has no slope: the sidecar says null,
    and it parses under a parser that refuses NaN and Infinity.  No fit
    warns."""
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(out)]) == 0
    meta = _strict_json((out / sidecar).read_text())
    got = slopes(meta)
    assert got and all(s is None for s in got)


def test_int_grid_rounds_log_points_and_rejects_fractions():
    assert cli._int_grid("25:200:4log") == [25, 50, 100, 200]
    assert cli._int_grid("10:40:31") == list(range(10, 41))
    with pytest.raises(ValueError, match="integers"):
        cli._int_grid("1.5")
    for text in ("1:8:0log", "1:8:0", "", "0:8:3log"):
        with pytest.raises(ValueError):
            cli.parse_grid(text)


# Values that are not finite, have a zero denominator, or lie out of range,
# by the kind of flag.
NONFINITE = ("inf", "-inf", "nan", "1/0")
BAD_VALUES = {
    int: NONFINITE + ("-1", "-7"),
    float: NONFINITE + ("-1",),
    "grid": NONFINITE + ("1:inf:3", "nan:2:3", "1:8:0log", "0:8:3log", "-1", "0", "1.5"),
    "fractions": ("1/0", "1/0,1", "0,1", "-1/2,3/2", "inf", "nan"),
}
DESTS = {a.dest: a for a in FLAGS.values()}


def _kind(dest):
    """The kind of a numeric flag, None for any other flag."""
    if dest in ("ratios", "coeffs"):
        return "fractions"
    if dest.endswith("_grid"):
        return "grid"
    return DESTS[dest].type


# every numeric flag each command reads, with each bad value of its kind
BAD_CASES = [(cmd, DESTS[dest].option_strings[0], value)
             for cmd, reads in cli.READS.items() for dest in reads if _kind(dest)
             for value in BAD_VALUES[_kind(dest)]]


def test_bad_numeric_values_never_raise(capsys):
    """Exit 0, 1 or 2 with no traceback, whatever the numeric flag holds:
    every case of BAD_CASES, so what runs does not move with edits to
    cli.READS (303 cases, every (command, flag) pair; 0.5 s on 2 CPUs)."""
    for cmd, flag, value in BAD_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            rc = run([cmd, f"{flag}={value}", "--out", os.path.join(tmp, "o")])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (cmd, flag, value, rc)
        assert "Traceback" not in err, (cmd, flag, value)


@pytest.mark.parametrize("command", ["heat", "riesz-skew-check"])
def test_negative_tol_exits_two(tmp_path, capsys, command):
    """A negative --tol is bad input, not a failed check; --tol 0 is a
    strict check, which the line's skew identity (deviation 0) passes."""
    out = tmp_path / "o"
    assert run([command, "--tol", "-1", "--out", str(out)]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not (out / "failure.json").exists()
    assert run(["riesz-skew-check", "--window", "zline", "--dmax", "2", "--tol", "0",
                "--out", str(tmp_path / "zero")]) == 0


def _never(*args, **kwargs):
    raise AssertionError("built past the cap")


@pytest.mark.parametrize("argv, builder, size", [
    (["heat", "--q", "2", "--t", "1e16"], (analysis, "heat_z_gradkernel"), "t = 1e+16"),
    (["level-sum", "--t-grid", "1e16"], (analysis, "heat_z_gradkernel"), "t = 1e+16"),
    (["weighted-sweep", "--t-grid", "1e11", "--q-grid", "2"],
     (analysis, "heat_z_gradkernel"), "t = 1e+11"),
    (["divergence", "--d-grid", "1000000"], (trees, "_Builder"), "2,000,009 vertices"),
    (["riesz", "--window", "spine", "--depth", "3000000"], (trees, "_Builder"),
     "3,000,005 vertices"),
], ids=["heat", "level-sum", "weighted-sweep", "divergence", "spine"])
def test_sizes_over_the_cap_exit_two_before_building(tmp_path, capsys, monkeypatch,
                                                     argv, builder, size):
    """A heat time whose line kernel, or a spine whose window, would pass
    DEFAULT_VERTEX_CAP exits 2 naming its size.  The builder it would call
    fails the test instead, so nothing of that size is ever allocated."""
    monkeypatch.setattr(*builder, _never)
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert size in err and "over the cap" in err and "Traceback" not in err


def test_transfer_check_zero_trials(tmp_path):
    """--trials 0 runs no trial: a header-only CSV, exit 0."""
    out = tmp_path / "o"
    assert run(["transfer-check", "--trials", "0", "--out", str(out)]) == 0
    assert (out / "transfer_check.csv").read_text().splitlines() == \
        ["trial,degree,match"]


def test_transfer_check_degree_zero(tmp_path):
    """--degree 0 runs constant (identity) polynomials, and every row agrees."""
    out = tmp_path / "o"
    assert run(["transfer-check", "--degree", "0", "--trials", "5",
                "--out", str(out)]) == 0
    with open(out / "transfer_check.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(r["degree"] == "0" and r["match"] == "1" for r in rows)


def test_heat_golden_window(tmp_path):
    """heat runs on the golden flow and conserves mass."""
    out = tmp_path / "o"
    assert run(["heat", "--window", "golden", "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert abs(meta["mass"] - 1.0) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["--window", "zline", "--t", "8"], ["--window", "zline", "--t", "16"],
    ["--window", "golden", "--t", "4"], ["--window", "golden", "--t", "8"],
    ["--ratios", "3/4,1/4", "--t", "4"],
], ids=["zline-8", "zline-16", "golden-4", "golden-8", "ratios-4"])
def test_heat_sizes_every_built_in_ball_from_t(tmp_path, argv):
    """Line, golden and --ratios columns keep their mass like q-ary ones."""
    out = tmp_path / "o"
    assert run(["heat", *argv, "--out", str(out)]) == 0
    meta = json.loads((out / "heat.csv.meta.json").read_text())
    assert abs(meta["mass"] - 1.0) <= 1e-12


def test_heat_degree_names_the_chebyshev_route(tmp_path, capsys):
    """heat has one route, the ancestor profile; a Chebyshev heat column is
    kernel --multiplier."""
    assert run(["heat", "--degree", "9", "--out", str(tmp_path / "o")]) == 2
    assert "kernel --multiplier" in capsys.readouterr().err


def test_ratios_with_another_window_exits_two(tmp_path, capsys):
    assert run(["riesz", "--window", "golden", "--ratios", "1/2,1/2",
                "--out", str(tmp_path / "o")]) == 2
    assert "--ratios" in capsys.readouterr().err


def test_rationalize_q_is_the_denominator(tmp_path):
    """--q 64 sets the denominator, not the degree of the ball to rationalize."""
    out = tmp_path / "o"
    assert run(["rationalize", "--q", "64", "--out", str(out)]) == 0
    assert json.loads((out / "rationalize.csv.meta.json").read_text())["q"] == 64


def test_level_sum_reads_the_window_flag(tmp_path):
    """level-sum --window golden sums over the golden anchor's chain."""
    out = tmp_path / "o"
    assert run(["level-sum", "--window", "golden", "--t-grid", "1,4,16",
                "--out", str(out)]) == 0
    golden = (cli.GOLDEN_RATIO, 1 - cli.GOLDEN_RATIO)
    w, m, c = ball_window(golden, 0, backend="float")
    rep = analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, w, m, c),
                                      [1.0, 4.0, 16.0])
    want = tmp_path / "want.csv"
    reports.write_csv(str(want), rep.csv_header(), rep.csv_rows())
    assert (out / "level_sum.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv, ratios, name", [
    (["riesz", "--dmax", "3"], "2/3,1/3", "riesz.csv"),
    (["heat", "--t", "4"], "3/4,1/4", "heat.csv"),
], ids=["riesz", "heat"])
def test_ratios_set_the_flow(tmp_path, argv, ratios, name):
    """--ratios gives a ball of its own flow, not the binary default's."""
    for sub, extra in (("binary", []), ("ratios", ["--ratios", ratios])):
        assert run([*argv, *extra, "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "binary" / name).read_bytes() != \
        (tmp_path / "ratios" / name).read_bytes()


def _paths_from(window, anchor) -> dict:
    """Each vertex as (levels up from the anchor to where their paths meet,
    the child indices down from there)."""
    paths = {}
    for x in window.vertices:
        top = window.lca(x, anchor)
        down, v = [], x
        while v != top:
            p = window.pred[v]
            down.append(window.succ[p].index(v))
            v = p
        paths[x] = (window.level[top] - window.level[anchor], tuple(down[::-1]))
    return paths


def test_golden_skew_rows_match_the_cone_route(tmp_path):
    """riesz-skew-check on the golden ball gives, path for path from the
    anchor, the rows of a golden cone deep enough to hold the same pairs
    (anchor at the same level, -(dmax + 1))."""
    out = tmp_path / "o"
    assert run(["riesz-skew-check", "--window", "golden", "--dmax", "4",
                "--out", str(out)]) == 0
    golden = (cli.GOLDEN_RATIO, 1 - cli.GOLDEN_RATIO)
    w, _, c = ball_window(golden, 5, center_level=-5, backend="float")
    by_id = _paths_from(w, c)
    with open(out / "riesz_skew_check.csv", newline="") as fh:
        rows = {by_id[int(r["x"])]: r for r in csv.DictReader(fh)}
    cone, cmeas, base = constant_ratio_window(golden, depth=10, up=12)
    anchor = next(v for v in cone.vertices
                  if cone.level[v] == cone.level[base] - 5)
    pairs = sorted((x, anchor) for x in trees.ball(cone, anchor, 4)
                   if x != anchor)
    rep = analysis.riesz_skew_check(cone, cmeas, pairs)
    cone_paths = _paths_from(cone, anchor)
    assert len(rows) == len(rep.rows) == len(pairs)
    for r in rep.rows:
        got = rows[cone_paths[r["x"]]]
        assert int(got["d"]) == r["d"]
        for key in ("skew_re", "closed"):
            assert abs(float(got[key]) - r[key]) <= \
                1e-13 * max(abs(r[key]), abs(float(got[key])))


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    """Every command in the README's command-line block exits 0, starts no
    thread, and builds no window larger than transfer-check's 9,426-vertex
    quotient source.
    A second run of every command writes byte-identical artifacts, sidecars
    included."""
    block = README.read_text(encoding="utf-8").split("## Command line")[1]
    lines = [ln.split("#")[0] for ln in block.split("```")[1].splitlines()]
    commands = [shlex.split(ln) for ln in lines if ln.strip()]
    assert len(commands) >= 13
    sizes = []
    finish = trees._Builder.finish

    def recording_finish(builder, *args):
        sizes.append(len(builder.level))
        return finish(builder, *args)
    monkeypatch.setattr(trees._Builder, "finish", recording_finish)
    threads = []

    def no_thread(thread):
        threads.append(thread.name)
        raise RuntimeError("the CLI runs serially")
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    failed = []
    for rerun in ("first", "second"):
        for i, argv in enumerate(commands):
            assert argv[0] == "flowtree" and argv[-2] == "--out"
            if run(argv[1:-2] + ["--out", str(tmp_path / rerun / str(i))]) != 0:
                failed.append(" ".join(argv))
    assert not failed and not threads
    assert max(sizes) <= 9_426
    artifacts = [{p.relative_to(root): p.read_bytes()
                  for p in root.rglob("*") if p.is_file()}
                 for root in (tmp_path / "first", tmp_path / "second")]
    assert artifacts[0] and artifacts[0] == artifacts[1]


def test_cli_heat_imports_no_scipy(tmp_path):
    """A fresh interpreter that imports the CLI and runs heat has no scipy
    module loaded, at the top level or deferred into a function."""
    code = ("import sys\n"
            "from flowtree.cli import main\n"
            f"rc = main(['heat', '--q', '2', '--t', '4', '--out', {str(tmp_path)!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
