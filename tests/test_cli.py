"""End-to-end checks of the batch front end (in-process, per-command)."""

import copy
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nleig.asymptotics
import nleig.cli
import nleig.errors
import nleig.solver
from nleig.cli import emit_plot_data, main
from nleig.errors import ComputationError, DomainBreachError, NleigError
from nleig.solver import SolverConfig, point_label


def _run(tmp_path, command, config, *flags, name="run"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    code = main([command, "--config", str(cfg), "--output", str(out), *flags])
    return code, out


def _solve_config(**solver):
    return {
        "grid": {"half_period": 25.0, "point_count": 512},
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "exp"},
        "solver": {"K": 1.0, **solver},
    }


def test_solve_happy_path(tmp_path, capsys):
    code, out = _run(tmp_path, "solve", _solve_config())
    assert code == 0
    assert "sigma = " in capsys.readouterr().out
    for name in ("solution.json", "V.csv", "U.csv", "meta.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "solution.json").read_text())
    assert summary["converged"] is True
    assert summary["sigma"] > 1.0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["command"] == "solve"
    assert meta["config"]["solver"]["K"] == 1.0
    assert meta["config"]["solver"]["max_iter"] == 100000  # default echoed
    assert meta["config"]["grid"] == {"half_period": 25.0, "point_count": 512}
    assert meta["config"]["allow_nonstandard"] is False
    assert "version" in meta
    assert meta["timings"]["total_seconds"] >= 0
    assert meta["warnings"] == []
    assert "unvalidated" not in meta


def test_solve_reruns_are_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, "solve", _solve_config(), name="a")
    _, out2 = _run(tmp_path, "solve", _solve_config(), name="b")
    assert (out1 / "V.csv").read_bytes() == (out2 / "V.csv").read_bytes()
    assert (out1 / "U.csv").read_bytes() == (out2 / "U.csv").read_bytes()


def test_solve_nonconvergence_exits_3_but_writes_outputs(tmp_path, capsys):
    code, out = _run(tmp_path, "solve", _solve_config(max_iter=5))
    assert code == 3
    summary = json.loads((out / "solution.json").read_text())
    assert summary["converged"] is False
    line = f"no convergence in 5 iterations (residual {summary['residual']:.3g})"
    assert capsys.readouterr().err == f"error: {line}\n"
    assert json.loads((out / "meta.json").read_text())["warnings"] == [line]
    assert (out / "V.csv").is_file()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(extra=1),
        lambda c: c.pop("grid"),
        lambda c: c["kernel"].update(kind="sinc"),
        lambda c: c["grid"].update(point_count=511),
        lambda c: c["solver"].update(K=-1.0),
        lambda c: c["solver"].update(bogus=2),
        lambda c: c["nonlinearity"].update(kind="cubic"),
        lambda c: c.update(command="decay"),
        lambda c: c["kernel"].update(kind="ode"),  # width belongs to gaussian
        lambda c: c["solver"].update(K=float("inf")),
        lambda c: c["solver"].update(tol_residual=-1.0),
        lambda c: c["solver"].update(max_iter=0),
        lambda c: c["solver"].update(init_width=-1.0),
        lambda c: c["solver"].update(monotonicity_slack=-1.0),
        lambda c: c["solver"].update(max_iter=None),
        lambda c: c["solver"].update(K="big"),
        lambda c: c["solver"].update(enforce_symmetry=True),  # no such key
    ],
)
def test_solve_validation_failures_exit_2(tmp_path, capsys, mutate):
    config = _solve_config()
    mutate(config)
    code, _ = _run(tmp_path, "solve", config)
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_overflow_exits_3(tmp_path, capsys):
    code, _ = _run(tmp_path, "solve", _solve_config(K=1e6))
    assert code == 3
    assert "NumericalOverflowError" in capsys.readouterr().err


def test_flat_start_solution_is_flagged(tmp_path, capsys):
    # a start wider than the cell is flat, and the constant profile is an
    # exact periodic fixed point: the solve converges before its first step,
    # and meta.json says what it converged to
    code, out = _run(tmp_path, "solve", _solve_config(init_width=1e200))
    assert code == 0
    assert capsys.readouterr().out == "sigma = 1.1070137908 after 0 iterations\n"
    assert json.loads((out / "meta.json").read_text())["warnings"] == [
        "V is constant on the cell: a periodic fixed point, not a localized profile"]
    # below the cell's branch point K_b = 0.02507 the solution is the
    # constant c = sqrt(K/L), with sigma = (e^c - 1)/c
    grid = {"half_period": 25.0, "point_count": 2000}
    code, out = _run(tmp_path, "solve", {**_solve_config(K=0.02), "grid": grid},
                     name="below_branch")
    assert code == 0
    c = math.sqrt(0.02 / 25.0)
    assert json.loads((out / "solution.json").read_text())["sigma"] == pytest.approx(
        math.expm1(c) / c, rel=1e-12)
    v = np.loadtxt(out / "V.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.ptp(v) <= 1e-12 * np.max(v)
    # just above it the solution is localized though nearly flat (min V/max V
    # 0.70), and draws no such line
    code, out = _run(tmp_path, "solve", {**_solve_config(K=0.026), "grid": grid},
                     name="above_branch")
    assert code == 0
    v = np.loadtxt(out / "V.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.min(v) / np.max(v) == pytest.approx(0.70, abs=0.01)
    assert json.loads((out / "meta.json").read_text())["warnings"] == []


_EXIT_3_ERRORS = {"ComputationError", "DomainBreachError", "ZeroGradientError",
                  "MonotonicityViolationError", "NumericalOverflowError", "SymbolPoleError",
                  "NonPositiveTailError"}


@pytest.mark.parametrize(
    "error",
    [cls for cls in vars(nleig.errors).values()
     if isinstance(cls, type) and issubclass(cls, NleigError)],
    ids=lambda cls: cls.__name__,
)
def test_exit_code_follows_the_error_type(tmp_path, monkeypatch, capsys, error):
    # a computation that fails on valid input exits 3, any other error 2
    runtime = error.__name__ in _EXIT_3_ERRORS
    assert issubclass(error, ComputationError) == runtime
    exc = error(1.0, 1.0) if error is DomainBreachError else error("probe")

    def failing_solve(*args, **kwargs):
        raise exc

    monkeypatch.setattr(nleig.cli, "solve", failing_solve)
    code, _ = _run(tmp_path, "solve", _solve_config())
    assert code == (3 if runtime else 2)
    assert f"error: {error.__name__}: " in capsys.readouterr().err


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's private subclass, which a failed allocation raises."""


@pytest.mark.parametrize("command, name", [
    ("solve", "solve"),
    ("uniqueness-probe", "uniqueness_probe"),
])
def test_a_size_that_cannot_be_allocated_exits_2(tmp_path, monkeypatch, capsys, command,
                                                 name):
    # a point_count or n_starts of 2**52 fails to allocate, or not, depending
    # on the host's overcommit policy, so the failure is raised by a stand-in
    def unallocatable(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 32.0 PiB")

    monkeypatch.setattr(nleig.cli, name, unallocatable)
    code, _ = _run(tmp_path, command, _solve_config())
    assert code == 2
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 32.0 PiB\n"


def test_missing_and_malformed_config_files(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "o")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["solve", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    assert "valid JSON" in capsys.readouterr().err
    # a directory, and a file that is not UTF-8
    code = main(["solve", "--config", str(tmp_path), "--output", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kernel": {"kind": "gaussian", "width": 1.0}, "note": "caf\xe9"}')
    code = main(["solve", "--config", str(latin), "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "utf-8" in err
    assert not (tmp_path / "o").exists()


def test_unusable_output_paths_exit_2(tmp_path, capsys):
    # an existing file, and a path under one, cannot be the output directory
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_solve_config()))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for output in (taken, taken / "sub"):
        code = main(["solve", "--config", str(cfg), "--output", str(output)])
        assert code == 2
        assert "cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command, taken", [("validate-kernel", "validation.json"),
                                            ("solve", "meta.json")])
def test_output_name_taken_by_a_directory_exits_2(tmp_path, capsys, command, taken):
    # solve writes meta.json after its other outputs
    config = _solve_config()
    if command == "validate-kernel":
        config = {key: config[key] for key in ("grid", "kernel")}
    out = tmp_path / "run"
    (out / taken).mkdir(parents=True)
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and str(out / taken) in err
    assert (out / taken).is_dir()
    assert not list(out.glob("*.tmp"))


def test_unknown_command_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--config", "x", "--output", "y"])
    assert err.value.code == 2


def test_validate_kernel_gate_and_override(tmp_path, capsys):
    config = {
        "grid": {"half_period": 25.0, "point_count": 2000},
        "kernel": {"kind": "two_bump", "width": 0.6, "separation": 6.0},
    }
    code, out = _run(tmp_path, "validate-kernel", config, name="strict")
    assert code == 2
    assert "unimodal" in capsys.readouterr().err
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is False
    assert any("unimodal" in f for f in report["failures"])

    code, out = _run(tmp_path, "validate-kernel", config, "--allow-nonstandard",
                     name="loose")
    assert code == 0
    assert json.loads((out / "meta.json").read_text())["unvalidated"] is True

    config["kernel"] = {"kind": "gaussian", "width": 1.0}
    code, out = _run(tmp_path, "validate-kernel", config, name="good")
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["metadata"]["k_max_norm"] == pytest.approx(1.7724538509, rel=1e-9)


def test_solve_rejects_nonstandard_kernel_without_flag(tmp_path, capsys):
    config = _solve_config()
    config["kernel"] = {"kind": "two_bump", "width": 0.6, "separation": 6.0}
    config["grid"] = {"half_period": 25.0, "point_count": 2000}
    code, _ = _run(tmp_path, "solve", config)
    assert code == 2
    assert "fails validation" in capsys.readouterr().err


def test_sweep_k_csv_and_per_entry_outputs(tmp_path):
    config = {
        "grid": {"half_period": 25.0, "point_count": 512},
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "exp"},
        "solver": {"tol_residual": 1e-10},
        "k_list": [0.5, 1.0],
    }
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "K,sigma,P,Q,residual,el_residual,iterations,converged,error"
    assert len(lines) == 3
    assert lines[1].split(",")[-2] == "true"
    for stem in ("k_000", "k_001"):
        assert (out / f"{stem}_solution.json").is_file()
        assert (out / f"{stem}_V.csv").is_file()
    sigmas = [float(line.split(",")[1]) for line in lines[1:]]
    assert sigmas[0] < sigmas[1]


def test_sweep_k_threads_flag_is_accepted_and_ignored(tmp_path, capsys):
    config = {**_solve_config(tol_residual=1e-10), "k_list": [0.5, 1.0]}
    del config["solver"]["K"]
    runs = {}
    for threads in ("1", "2"):
        code, out = _run(tmp_path, "sweep-k", config, "--threads", threads,
                         name=f"threads_{threads}")
        assert code == 0
        runs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        meta = json.loads(runs[threads].pop("meta.json"))
        assert "threads" not in meta["config"]
    assert len(runs["1"]) == 7  # sweep.csv and 3 files per K
    assert runs["1"] == runs["2"]
    code, out = _run(tmp_path, "sweep-k", config, "--threads", "0", name="threads_0")
    assert code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_k_failed_row(tmp_path):
    # the solve at K = 1e6 overflows f at its first step
    config = {**_solve_config(), "solver": {}, "k_list": [0.5, 1e6]}
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 0
    error = ("NumericalOverflowError: ||grad P|| is inf at iteration 1; "
             "the iterate overflowed")
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[-2:] == ["true", ""]
    assert lines[2] == f"1000000,nan,nan,nan,nan,nan,0,false,{error}"
    assert (out / "k_000_solution.json").is_file()
    assert not list(out.glob("k_001_*"))
    assert json.loads((out / "meta.json").read_text())["warnings"] == [
        f"K=1e+06: {error}"]


def test_sweep_k_rejects_a_k_at_k_max_before_any_solve(tmp_path, capsys):
    # K_max = 1/(2 a0) = 1.77245 for the unit gaussian; solve rejects K = 5 too
    config = {**_solve_config(), "nonlinearity": {"kind": "singular", "m": 4},
              "solver": {}, "k_list": [0.5, 5.0]}
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ValueError: K = 5 must stay below K_max = 1.77245 "
        "for a singular nonlinearity\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("solve", {**_solve_config(), "solver": {"K": 1.0, "max_iter": None}},
         "max_iter in solver section"),
        ("sweep-k", {**_solve_config(), "solver": {}, "k_list": [1.0],
                     "warm_start": "no"},
         "warm_start in config"),
        ("decay", {**_solve_config(), "window": 5}, "window in config"),
        ("high-energy",
         {"kernel": {"kind": "gaussian", "width": 1.0},
          "nonlinearity": {"kind": "singular", "m": 4}, "delta_list": [0.3],
          "grid_policy": {"max_points": "big"}},
         "max_points in grid_policy section"),
        # integer keys take no fractional value and no bool
        ("solve",
         {**_solve_config(), "grid": {"half_period": 25.0, "point_count": 512.9}},
         "point_count in grid section"),
        ("solve", _solve_config(max_iter=2.7), "max_iter in solver section"),
        ("solve", _solve_config(max_iter=True), "max_iter in solver section"),
        ("kdv", {"kernel": {"kind": "gaussian", "width": 1.0},
                 "nonlinearity": {"kind": "exp"}, "eps_list": [0.2],
                 "grid_policy": {"max_points": 4096.5}},
         "max_points in grid_policy section"),
        ("uniqueness-probe", {**_solve_config(), "n_starts": True}, "n_starts in config"),
        # number keys take a JSON int or float only: no bool, no numeric string
        ("solve", _solve_config(K=True), "K in solver section"),
        ("solve", _solve_config(K="0.5"), "K in solver section"),
        ("solve", {**_solve_config(), "kernel": {"kind": "gaussian", "width": True}},
         "width in kernel section"),
        ("solve", {**_solve_config(),
                   "nonlinearity": {"kind": "quadratic", "alpha": "1", "beta": 2.0}},
         "alpha in nonlinearity section"),
        ("solve", {**_solve_config(), "nonlinearity": {"kind": "singular", "m": True}},
         "m in nonlinearity section"),
        ("solve", {**_solve_config(), "grid": {"half_period": True, "point_count": 512}},
         "half_period in grid section"),
        ("solve", _solve_config(init_width="2"), "init_width in solver section"),
        ("sweep-k", {**_solve_config(), "solver": {}, "k_list": [1.0, True]},
         "k_list in config"),
        ("decay", {**_solve_config(), "c": True}, "c in config"),
        ("decay", {**_solve_config(), "window": [0.5, "0.8"]}, "window in config"),
        ("decay", {**_solve_config(), "window": [0.5, 0.7, 0.8]}, "window in config"),
        ("kdv", {"kernel": {"kind": "gaussian", "width": 1.0},
                 "nonlinearity": {"kind": "exp"}, "eps_list": [0.2],
                 "grid_policy": {"l_floor": True}},
         "l_floor in grid_policy section"),
        ("uniqueness-probe", {**_solve_config(), "distance_tol": "1e-6"},
         "distance_tol in config"),
        ("solve", _solve_config(K=10**400), "K in solver section"),
        # a kernel kind is a string
        ("solve", {**_solve_config(), "kernel": {"kind": ["gaussian"]}},
         "kind in kernel section"),
        # integer keys stop at 2**53
        ("solve", {**_solve_config(), "grid": {"half_period": 25.0, "point_count": 10**400}},
         "point_count in grid section"),
        ("solve", _solve_config(max_iter=2**60), "max_iter in solver section"),
        # the slack is a number when given; only its absence means the default
        ("solve", _solve_config(monotonicity_slack=None),
         "monotonicity_slack in solver section"),
        # k_list supplies sweep-k's K
        ("sweep-k", {**_solve_config(), "k_list": [1.0]},
         "unknown keys ['K'] in solver section"),
        # a number is not NaN, which Python's json reads though JSON has none
        ("kdv", {"kernel": {"kind": "gaussian", "width": 1.0},
                 "nonlinearity": {"kind": "exp"}, "eps_list": [0.2],
                 "grid_policy": {"l_over_eps": math.nan}},
         "l_over_eps in grid_policy section"),
        ("uniqueness-probe", {**_solve_config(), "distance_tol": math.nan},
         "distance_tol in config"),
        ("solve", {**_solve_config(), "kernel": {"kind": "gaussian", "width": math.nan}},
         "width in kernel section"),
        # a distance_tol of 0 or less, or an infinite one
        ("uniqueness-probe", {**_solve_config(), "distance_tol": -1.0},
         "distance_tol in config"),
        ("uniqueness-probe", {**_solve_config(), "distance_tol": 0.0},
         "distance_tol in config"),
        ("uniqueness-probe", {**_solve_config(), "distance_tol": math.inf},
         "distance_tol in config"),
        # numpy's error for a negative seed names no key, and no start is no probe
        ("uniqueness-probe", {**_solve_config(), "seed": -1},
         "seed in config: expected an integer of at least 0, got -1"),
        ("uniqueness-probe", {**_solve_config(), "n_starts": 0},
         "n_starts in config: expected an integer of at least 1, got 0"),
    ],
)
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, config, key):
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # read before the output directory is made


@pytest.mark.parametrize(
    "section, text, message",
    [("nonlinearity", '{"kind": "quadratic", "alpha": 1e999, "beta": 1}',
      "alpha must be positive and finite, got inf"),
     ("nonlinearity", '{"kind": "singular", "m": 1e999}', "m must be positive and finite, got inf"),
     ("solver", '{"K": 1.0, "init_width": 1e-200}', "init_width must be positive")],
)
def test_unusable_parameter_exits_2_naming_it(tmp_path, capsys, section, text, message):
    # JSON's 1e999 reads as inf; a width of 1e-200 has a square of 0, so the
    # Gaussian start would read 0/0 at x = 0
    config = {key: value for key, value in _solve_config().items() if key != section}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config)[:-1] + f', "{section}": {text}}}')
    code = main(["solve", "--config", str(path), "--output", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("kdv", "kernel_fraction"), ("kdv", "feature_fraction"),
     ("high-energy", "kernel_fraction")],
)
def test_fixed_grid_fractions_are_unknown_keys(tmp_path, capsys, command, key):
    # the spacing fractions 1/8 of the kernel and 1/16 of the wave are fixed
    config = copy.deepcopy(_SMALL_CONFIGS[command])
    config["grid_policy"][key] = 0.125
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert f"unknown keys ['{key}'] in grid_policy section" in capsys.readouterr().err
    assert not out.exists()


def test_solver_counters_go_to_meta_json_only(tmp_path, monkeypatch):
    keys = ["K", "accelerated_steps", "contraction_rate", "iterations",
            "max_p_drop", "rejected_steps", "residual", "transforms"]
    _, out = _run(tmp_path, "solve", _solve_config(), name="solve")
    (counters,) = json.loads((out / "meta.json").read_text())["solves"]
    assert sorted(counters) == keys
    assert counters["accelerated_steps"] == counters["rejected_steps"] == 0
    assert counters["transforms"] == 4 * (counters["iterations"] + 1)
    assert 0.0 <= counters["max_p_drop"] <= SolverConfig.monotonicity_slack
    assert 0 < counters["contraction_rate"] < nleig.solver._GATE_RATE
    assert "accelerated_steps" not in (out / "solution.json").read_text()
    # the small-K point contracts slowly, so its solve mixes; transforms is
    # every rfft and irfft made inside the solve, Newton's included
    solving, ffts = [], []
    real_solve = nleig.solver.solve

    def watched_solve(*args, **kwargs):
        solving.append(True)
        try:
            return real_solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(nleig.solver, "solve", watched_solve)
    for name in ("rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), **kwargs):
            ffts.extend(solving[:1])
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    config = {"kernel": {"kind": "gaussian", "width": 1.0},
              "nonlinearity": {"kind": "exp"}, "eps_list": [0.2]}
    _, out = _run(tmp_path, "kdv", config, name="kdv")
    (counters,) = json.loads((out / "meta.json").read_text())["solves"]
    assert sorted(counters) == keys
    assert counters["K"] == pytest.approx(0.008)
    assert counters["accelerated_steps"] > 0
    assert counters["transforms"] == len(ffts)
    header = (out / "kdv.csv").read_text().splitlines()[0]
    assert header == "eps,sigma,d_ratio,profile_err"


def test_sweep_k_reports_nonconverged_entries(tmp_path, capsys):
    config = {
        "grid": {"half_period": 25.0, "point_count": 512},
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "exp"},
        "solver": {"max_iter": 3},
        "k_list": [0.5, 1.0],
    }
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 0
    assert "sweep finished: 0/2 entries converged" in capsys.readouterr().out
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[-2] for row in rows] == ["false", "false"]
    expected = [f"K={row[0]}: no convergence in 3 iterations "
                f"(residual {float(row[4]):.3g})" for row in rows]
    assert json.loads((out / "meta.json").read_text())["warnings"] == expected


def test_sweep_k_labels_tell_close_points_apart(tmp_path):
    # K = 1 and 1.0000001 agree to 6 significant digits, so :g would give
    # both warnings the label "K=1"
    config = {
        "grid": {"half_period": 25.0, "point_count": 512},
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "exp"},
        "solver": {"max_iter": 3},
        "k_list": [1.0, 1.0000001],
    }
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 0
    warnings = json.loads((out / "meta.json").read_text())["warnings"]
    assert len(warnings) == len(set(warnings)) == 2
    assert warnings[0].startswith("K=1: no convergence in 3 iterations ")
    assert warnings[1].startswith("K=1.0000001: no convergence in 3 iterations ")


@pytest.mark.parametrize(
    "command, module, config",
    [
        ("sweep-k", nleig.solver,
         {"grid": {"half_period": 25.0, "point_count": 512}, "k_list": [0.5, 1.0]}),
        ("high-energy", nleig.solver, {"delta_list": [0.3]}),
    ],
)
def test_energy_drops_are_reported_per_point(tmp_path, monkeypatch, command,
                                             module, config):
    # a drop under the slack is never produced by a standard solve, so the
    # solve each point runs reports one
    real_solve = module.solve

    def dropping_solve(*args, **kwargs):
        return replace(real_solve(*args, **kwargs), max_p_drop=2e-6)

    monkeypatch.setattr(module, "solve", dropping_solve)
    config = {"kernel": {"kind": "gaussian", "width": 1.0},
              "nonlinearity": {"kind": "singular", "m": 4}, **config}
    code, out = _run(tmp_path, command, config, "--allow-nonstandard")
    assert code == 0
    warnings = json.loads((out / "meta.json").read_text())["warnings"]
    drops = [w for w in warnings if "energy decreased by relative 2e-06" in w]
    assert len(drops) == len(config.get("k_list", config.get("delta_list")))
    prefix = "delta=" if command == "high-energy" else "K="
    assert all(w.startswith(prefix) for w in drops)


@pytest.mark.parametrize(
    "command, config",
    [
        ("kdv", {"nonlinearity": {"kind": "exp"}, "eps_list": [0.4, 0.3]}),
        ("high-energy", {"nonlinearity": {"kind": "singular", "m": 4},
                         "delta_list": [0.3, 0.2]}),
    ],
)
def test_family_nonconvergence_warnings_name_the_point(tmp_path, command, config):
    config = {"kernel": {"kind": "gaussian", "width": 1.0},
              "solver": {"max_iter": 2}, **config}
    code, out = _run(tmp_path, command, config)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert len(meta["warnings"]) == len(meta["solves"]) == 2
    name = "eps" if command == "kdv" else "delta"
    for warning, value in zip(meta["warnings"], config[f"{name}_list"]):
        assert warning.startswith(f"{name}={value:g}: no convergence in 2 "
                                  "iterations (residual ")


@pytest.mark.parametrize("command", ["kdv", "high-energy"])
def test_family_solver_section_takes_the_solvers_defaults(tmp_path, capsys, command):
    # a family's solve settings default to SolverConfig's own; K, the start
    # and the slack are not the section's to set
    config = {key: value for key, value in _SMALL_CONFIGS[command].items()
              if key != "solver"}
    code, out = _run(tmp_path, command, config)
    assert code == 0
    solver = json.loads((out / "meta.json").read_text())["config"]["solver"]
    assert solver == {"tol_residual": SolverConfig.tol_residual,
                      "max_iter": SolverConfig.max_iter}
    for key in ("K", "init_profile", "init_width", "monotonicity_slack", "record_trace"):
        code, _ = _run(tmp_path, command, {**config, "solver": {key: 1.0}}, name=key)
        assert code == 2
        assert f"unknown keys ['{key}'] in solver section" in capsys.readouterr().err


def test_high_energy_grid_policy_takes_no_eps_proxy(tmp_path, capsys):
    # the peak spacing is peak_fraction * sqrt(delta/2): one knob, not two
    config = copy.deepcopy(_SMALL_CONFIGS["high-energy"])
    config["grid_policy"]["eps_proxy"] = 0.5
    code, out = _run(tmp_path, "high-energy", config)
    assert code == 2
    assert "unknown keys ['eps_proxy'] in grid_policy section" in capsys.readouterr().err
    assert not out.exists()


def test_high_energy_at_tiny_m_reads_no_energy_drop(tmp_path):
    # at m 1e-300 F = -log(1-s) - s keeps its digits, so P does not fall;
    # the formula ((1-s)^-m - 1)/m - s read F = -s and a drop of 0.173
    config = copy.deepcopy(_SMALL_CONFIGS["high-energy"])
    config["nonlinearity"]["m"] = 1e-300
    code, out = _run(tmp_path, "high-energy", config)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["warnings"] == []
    assert meta["solves"][0]["max_p_drop"] <= SolverConfig.monotonicity_slack


def test_emit_plot_data_rejects_no_rows(tmp_path):
    with pytest.raises(ValueError, match="no rows to emit"):
        emit_plot_data([], {}, tmp_path / "out", "rows.csv")
    assert not (tmp_path / "out").exists()


def test_kdv_point_whose_solve_raises_keeps_a_nan_row(tmp_path, monkeypatch, capsys):
    real_solve = nleig.solver.solve
    calls = []

    def second_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second solve fails")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(nleig.solver, "solve", second_raises)
    code, out = _run(tmp_path, "kdv", {**_SMALL_CONFIGS["kdv"], "eps_list": [0.4, 0.3]})
    assert code == 0
    rows = (out / "kdv.csv").read_text().splitlines()
    assert rows[2] == "0.29999999999999999,nan,nan,nan"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["warnings"] == ["eps=0.3: RuntimeError: second solve fails"]
    assert len(meta["solves"]) == 1
    assert "kdv sweep finished: 1/2 entries converged" in capsys.readouterr().out


def test_family_commands_call_the_module_level_experiment(tmp_path, monkeypatch):
    # perfbench's tracer times an experiment by rebinding its name in nleig.cli
    calls = {}
    for name in ("kdv_experiment", "high_energy_experiment"):
        def counted(*args, _name=name, _real=getattr(nleig.cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(nleig.cli, name, counted)
    for command in ("kdv", "high-energy"):
        code, _ = _run(tmp_path, command, _SMALL_CONFIGS[command], name=command)
        assert code == 0
    assert calls == {"kdv_experiment": 1, "high_energy_experiment": 1}


def test_probe_failures_name_the_start(tmp_path):
    code, out = _run(tmp_path, "uniqueness-probe",
                     {**_solve_config(max_iter=5), "n_starts": 2})
    assert code == 0
    probe = json.loads((out / "probe.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    assert probe["n_converged"] == 0 and len(probe["failures"]) == 2
    assert probe["failures"] == meta["warnings"]
    for width, failure in zip(probe["widths"], probe["failures"]):
        assert failure.startswith(f"{point_label('width', width)}: no convergence in "
                                  "5 iterations (residual ")
    # a start that raised is warned about with its label too
    singular = {**_solve_config(K=2.0), "nonlinearity": {"kind": "singular", "m": 4},
                "n_starts": 2}
    _, out = _run(tmp_path, "uniqueness-probe", singular, name="raised")
    error = ("ValueError: K = 2 must stay below K_max = 1.77245 "
             "for a singular nonlinearity")
    probe = json.loads((out / "probe.json").read_text())
    expected = [f"{point_label('width', width)}: {error}" for width in probe["widths"]]
    assert json.loads((out / "meta.json").read_text())["warnings"] == expected
    assert probe["failures"] == expected


def test_probe_sigmas_line_up_with_widths(tmp_path, capsys):
    # 1 of these 5 starts converges within 50 steps
    config = {**_solve_config(tol_residual=1e-5, max_iter=50), "n_starts": 5, "seed": 3}
    code, out = _run(tmp_path, "uniqueness-probe", config)
    assert code == 0
    probe = json.loads((out / "probe.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    converged = [sigma is not None for sigma in probe["sigmas"]]
    assert len(probe["sigmas"]) == len(probe["widths"]) == 5
    assert converged.count(True) == probe["n_converged"] == 1
    # every start's solve is recorded in width order, failed ones included
    assert [s["iterations"] < 50 for s in meta["solves"]] == converged
    failed = [width for width, ok in zip(probe["widths"], converged) if not ok]
    assert len(probe["failures"]) == len(failed) == 4
    for width, failure in zip(failed, probe["failures"]):
        assert failure.startswith(f"{point_label('width', width)}: no convergence in "
                                  "50 iterations (residual ")
    assert probe["failures"] == meta["warnings"]
    # one converged start leaves nothing to compare
    assert probe["max_l2_distance"] is None and probe["max_sigma_gap"] is None
    assert probe["conjecture_support"] == "no"
    assert "1/5 converged, max distance n/a, conjecture support: no" in capsys.readouterr().out


def test_singleton_probe_has_null_distances_and_supports(tmp_path, capsys):
    code, out = _run(tmp_path, "uniqueness-probe", {**_solve_config(), "n_starts": 1})
    assert code == 0
    probe = json.loads((out / "probe.json").read_text())
    assert probe["max_l2_distance"] is None and probe["max_sigma_gap"] is None
    assert probe["n_converged"] == 1 and probe["sigmas"][0] > 1.0
    assert probe["failures"] == []
    assert probe["conjecture_support"] == "yes"
    assert "1/1 converged, max distance n/a, conjecture support: yes" in (
        capsys.readouterr().out)


def test_report_payload_keys(tmp_path):
    def keys(out, name):
        return sorted(json.loads((out / name).read_text()))

    cone = ["even_deviation", "min_value", "unimodality_deviation"]
    validation = ["cone_checked", "failures", "label", "mass_error", "metadata",
                  "passed"]
    _, out = _run(tmp_path, "validate-kernel",
                  {"grid": {"half_period": 25.0, "point_count": 512},
                   "kernel": {"kind": "gaussian", "width": 1.0}}, name="gaussian")
    assert keys(out, "validation.json") == sorted(validation + ["cone"])
    report = json.loads((out / "validation.json").read_text())
    assert sorted(report["cone"]) == cone
    assert sorted(report["metadata"]) == ["a0", "a_pp0", "bhat_pp0", "k_max_norm",
                                          "mass", "second_moment"]
    # the spectral kernel's cone is not checked, so its block is left out
    _, out = _run(tmp_path, "validate-kernel",
                  {"grid": {"half_period": 40.0, "point_count": 4096},
                   "kernel": {"kind": "ode"}}, name="ode")
    assert keys(out, "validation.json") == validation
    _, out = _run(tmp_path, "uniqueness-probe", {**_solve_config(), "n_starts": 1},
                  name="probe")
    assert keys(out, "probe.json") == [
        "conjecture_support", "distance_tol", "failures", "max_l2_distance",
        "max_sigma_gap", "n_converged", "n_starts", "sigmas", "widths"]
    decay = {"grid": {"half_period": 40.0, "point_count": 4096}, "kernel": {"kind": "ode"},
             "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
             "solver": {"K": 0.95}}
    _, out = _run(tmp_path, "decay", decay, name="decay")
    assert keys(out, "decay.json") == ["c", "fit_r2", "fit_window", "lambda_fit",
                                       "lambda_theory", "sigma"]
    assert sorted(json.loads((out / "solution.json").read_text())["cone"]) == cone


def test_kdv_command_with_indicator_kernel(tmp_path, capsys):
    config = {
        "kernel": {"kind": "indicator"},
        "nonlinearity": {"kind": "exp"},
        "eps_list": [0.4],
        "solver": {"tol_residual": 1e-9},
    }
    code, out = _run(tmp_path, "kdv", config)
    assert code == 0
    lines = (out / "kdv.csv").read_text().splitlines()
    assert lines[0] == "eps,sigma,d_ratio,profile_err"
    assert len(lines) == 2
    predictors = json.loads((out / "predictors.json").read_text())
    assert predictors["d0"] > 0
    assert "1/1 entries converged" in capsys.readouterr().out


def test_kdv_rejects_unsuitable_kernel_even_when_unvalidated(tmp_path, capsys):
    config = {
        "kernel": {"kind": "two_bump", "width": 0.6, "separation": 6.0},
        "nonlinearity": {"kind": "exp"},
        "eps_list": [0.2],
    }
    code, _ = _run(tmp_path, "kdv", config, name="strict")
    assert code == 2
    # the exploratory flag skips profile validation but not the symbol bound
    code, _ = _run(tmp_path, "kdv", config, "--allow-nonstandard", name="loose")
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_high_energy_command(tmp_path):
    config = {
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "singular", "m": 4},
        "delta_list": [0.3],
    }
    code, out = _run(tmp_path, "high-energy", config)
    assert code == 0
    lines = (out / "high_energy.csv").read_text().splitlines()
    assert lines[0] == "delta,K,sigma,eps_delta,eta,sup_err"
    assert len(lines) == 2
    predictors = json.loads((out / "predictors.json").read_text())
    assert predictors["eta0"] == pytest.approx(0.48465535, rel=1e-6)


def test_high_energy_gates(tmp_path, capsys):
    base = {"nonlinearity": {"kind": "singular", "m": 4}, "delta_list": [0.3]}
    code, _ = _run(tmp_path, "high-energy", {**base, "kernel": {"kind": "indicator"}},
                   name="rough")
    assert code == 2
    assert "autocorrelation" in capsys.readouterr().err
    code, _ = _run(
        tmp_path, "high-energy",
        {"kernel": {"kind": "gaussian", "width": 1.0},
         "nonlinearity": {"kind": "exp"}, "delta_list": [0.3]},
        name="wrongnl",
    )
    assert code == 2
    assert "singular" in capsys.readouterr().err


def test_decay_command_on_spectral_kernel(tmp_path, capsys):
    config = {
        "grid": {"half_period": 40.0, "point_count": 4096},
        "kernel": {"kind": "ode"},
        "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
        "solver": {"K": 0.95},
    }
    code, out = _run(tmp_path, "decay", config)
    assert code == 0
    assert "fitted tail rate" in capsys.readouterr().out
    report = json.loads((out / "decay.json").read_text())
    assert report["lambda_theory"]["kind"] == "root"
    assert report["lambda_fit"] == pytest.approx(
        report["lambda_theory"]["value"], rel=0.01
    )
    assert report["fit_r2"] > 0.999
    assert (out / "a_c.csv").read_text().startswith("x,value")


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, -math.inf])
def test_decay_rejects_c_outside_the_unit_interval_before_any_solve(tmp_path, capsys, c):
    code, out = _run(tmp_path, "decay", {**_solve_config(), "c": c})
    assert code == 2
    assert "c in config: must lie in (0, 1)" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_decay_with_a_c_this_sigma_rules_out_writes_nothing(tmp_path, capsys):
    # c = 0.1 lies in (0, 1) but not above alpha/sigma, which the solve decides
    code, out = _run(tmp_path, "decay", {**_solve_config(), "c": 0.1})
    assert code == 2
    assert "c = 0.1 must lie in (alpha/sigma, 1)" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_decay_rejects_a_bad_window_before_any_solve(tmp_path, capsys):
    code, out = _run(tmp_path, "decay", {**_solve_config(), "window": [0.9, 0.5]})
    assert code == 2
    err = capsys.readouterr().err
    assert "window in config: window fractions must satisfy 0 < w0 < w1 <= 1" in err
    assert not (out / "solution.json").exists()


def test_decay_rejects_a_window_without_three_nodes_before_any_solve(tmp_path, capsys):
    # L = 25 on 512 points: [12.5, 12.625] holds 2 nodes, too few for a fit
    code, out = _run(tmp_path, "decay", {**_solve_config(), "window": [0.5, 0.505]})
    assert code == 2
    err = capsys.readouterr().err
    assert "tail window [0.5, 0.505] = [12.5, 12.62] contains fewer than 3 grid points" in err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, function, left_out, extras", [
    ("sweep-k", nleig.solver.sweep_K, ["warm_start"], {"k_list": [1.0]}),
    ("decay", nleig.asymptotics.decay_report, ["c", "window"], {}),
    ("uniqueness-probe", nleig.solver.uniqueness_probe, ["n_starts", "seed", "distance_tol"],
     {}),
])
def test_left_out_extras_echo_the_library_defaults(tmp_path, command, function, left_out,
                                                   extras):
    config = {**_solve_config(), **extras}
    if command == "sweep-k":
        del config["solver"]["K"]
    code, out = _run(tmp_path, command, config)
    assert code == 0
    echo = json.loads((out / "meta.json").read_text())["config"]
    parameters = inspect.signature(function).parameters
    for key in left_out:
        default = parameters[key].default
        if key == "c":
            # decay_report's None is the midpoint of (alpha/sigma, 1), and
            # meta.json echoes the c used (exp: alpha = 1)
            assert default is None
            sigma = json.loads((out / "solution.json").read_text())["sigma"]
            assert echo["c"] == 0.5 * (1.0 / sigma + 1.0)
        else:
            assert echo[key] == (list(default) if isinstance(default, tuple) else default)


def test_uniqueness_probe_command(tmp_path, capsys):
    config = {
        "grid": {"half_period": 25.0, "point_count": 512},
        "kernel": {"kind": "gaussian", "width": 1.0},
        "nonlinearity": {"kind": "exp"},
        "solver": {"K": 1.0},
        "n_starts": 2,
        "seed": 0,
    }
    code, out = _run(tmp_path, "uniqueness-probe", config)
    assert code == 0
    assert "conjecture support: yes" in capsys.readouterr().out
    report = json.loads((out / "probe.json").read_text())
    assert report["conjecture_support"] == "yes"
    assert report["n_converged"] == 2
    assert report["max_l2_distance"] <= 1e-6
    assert len(report["widths"]) == 2


def test_uniqueness_probe_reports_counters_and_energy_drops(tmp_path, monkeypatch):
    config = {**_solve_config(), "n_starts": 2}
    _, plain = _run(tmp_path, "uniqueness-probe", config, name="plain")
    real_solve = nleig.solver.solve

    def dropping_solve(*args, **kwargs):
        return replace(real_solve(*args, **kwargs), max_p_drop=2e-6)

    monkeypatch.setattr(nleig.solver, "solve", dropping_solve)
    code, out = _run(tmp_path, "uniqueness-probe", config, name="dropping")
    assert code == 0
    probe = json.loads((out / "probe.json").read_text())
    assert probe == json.loads((plain / "probe.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    assert meta["warnings"] == [f"{point_label('width', w)}: energy decreased by "
                                "relative 2e-06 during the run" for w in probe["widths"]]
    assert len(meta["solves"]) == 2
    assert all(s["K"] == 1.0 and s["iterations"] > 0 for s in meta["solves"])


def test_meta_records_cpu_seconds(tmp_path):
    config = {"grid": {"half_period": 25.0, "point_count": 512},
              "kernel": {"kind": "gaussian", "width": 1.0}}
    code, out = _run(tmp_path, "validate-kernel", config)
    assert code == 0
    timings = json.loads((out / "meta.json").read_text())["timings"]
    assert sorted(timings) == ["cpu_seconds", "total_seconds"]
    assert timings["cpu_seconds"] >= 0


def _fresh_env(openblas_threads):
    """The environment of a fresh process that imports nleig from this source
    tree, with OPENBLAS_NUM_THREADS set to `openblas_threads`, or unset when
    it is None."""
    src = str(Path(nleig.solver.__file__).parents[1])
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def test_import_pins_one_blas_thread_unless_set():
    """Importing nleig sets OPENBLAS_NUM_THREADS to "1" before numpy loads
    OpenBLAS, so the process starts no BLAS worker thread; a value set before
    the import is kept.  The thread count is read where /proc exists."""
    probe = ("import os, nleig; task = '/proc/self/task'; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir(task)) if os.path.isdir(task) else 'absent')")

    def run(openblas_threads):
        return subprocess.run([sys.executable, "-c", probe], env=_fresh_env(openblas_threads),
                              check=True, capture_output=True, text=True).stdout.split()

    value, tasks = run(None)
    assert value == "1"
    assert tasks in ("1", "absent")
    assert run("2")[0] == "2"


def test_decay_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The decay workload on n = 16384 writes the same bytes with one BLAS
    thread, with two, and with the variable unset (nleig's default of one
    thread), and meta.json names the setting each run had.  A ddot of more
    than 10000 entries splits over OpenBLAS's threads, so summing long inner
    products in one call made the outputs follow the thread count.  On a
    one-core host OpenBLAS runs a single thread either way, and this test
    cannot fail there."""
    config = tmp_path / "decay.json"
    config.write_text(json.dumps({
        "grid": {"half_period": 60.0, "point_count": 16384},
        "kernel": {"kind": "ode"},
        "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
        "solver": {"K": 0.3},
    }))
    outputs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads_{threads or 'unset'}"
        subprocess.run([sys.executable, "-m", "nleig.cli", "decay", "--config",
                        str(config), "--output", str(out)], env=_fresh_env(threads),
                       check=True, capture_output=True)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("solution.json", "V.csv", "U.csv", "decay.json")})
        assert json.loads((out / "meta.json").read_text())["blas_threads"] == (threads or "1")
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("K", [1e6, 1e8])
def test_overflow_exits_3_with_runtime_warnings_as_errors(tmp_path, K):
    """An overflowing solve (at K 1e6 the gradient norm, at 1e8 the first P)
    prints its named error and nothing else, even where a numpy
    RuntimeWarning would be an error: pyproject's filter reaches only
    in-process runs, so a fresh process checks the CLI itself."""
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(_solve_config(K=K)))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "nleig.cli",
                          "solve", "--config", str(config), "--output", str(tmp_path / "out")],
                         env=_fresh_env(None), capture_output=True, text=True)
    assert run.returncode == 3
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: NumericalOverflowError:")


# one small valid config per command: n = 256 and at most 50 iterations.
# Every solve in them converges, so a mutant reaches the checks after the
# solve too; validate-kernel's two_bump kernel fails validation (exit 2)
# after the whole report is computed.
_GAUSSIAN = {"kind": "gaussian", "width": 1.0}
_SMALL_CONFIGS = {
    "solve": {"command": "solve", "grid": {"half_period": 16.0, "point_count": 256},
              "kernel": _GAUSSIAN, "nonlinearity": {"kind": "exp"},
              "solver": {"K": 1.0, "tol_residual": 1e-4, "max_iter": 50,
                         "init_width": 2.0, "monotonicity_slack": 1e-12}},
    "sweep-k": {"grid": {"half_period": 16.0, "point_count": 256}, "kernel": _GAUSSIAN,
                "nonlinearity": {"kind": "exp"},
                "solver": {"tol_residual": 1e-4, "max_iter": 50},
                "k_list": [1.0, 1.5], "warm_start": True},
    "kdv": {"kernel": _GAUSSIAN, "nonlinearity": {"kind": "exp"}, "eps_list": [0.4],
            "solver": {"tol_residual": 1e-4, "max_iter": 50},
            "grid_policy": {"l_floor": 16.0, "l_over_eps": 1.0, "max_points": 256}},
    "high-energy": {"kernel": _GAUSSIAN, "nonlinearity": {"kind": "singular", "m": 4},
                    "delta_list": [0.3], "solver": {"max_iter": 50},
                    "grid_policy": {"half_period": 16.0, "peak_fraction": 0.5,
                                    "max_points": 256}},
    "decay": {"grid": {"half_period": 20.0, "point_count": 256}, "kernel": {"kind": "ode"},
              "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
              "solver": {"K": 0.95, "tol_residual": 1e-5, "max_iter": 50}, "c": 0.9,
              "window": [0.5, 0.8]},
    "validate-kernel": {"grid": {"half_period": 16.0, "point_count": 256},
                        "kernel": {"kind": "two_bump", "width": 0.6, "separation": 6.0}},
    "uniqueness-probe": {"grid": {"half_period": 16.0, "point_count": 256},
                         "kernel": _GAUSSIAN, "nonlinearity": {"kind": "exp"},
                         "solver": {"K": 1.0, "tol_residual": 1e-4, "max_iter": 50},
                         "n_starts": 2, "seed": 0, "distance_tol": 1e-6},
}

# every JSON type, signs, zero, the float range's ends and beyond it.  No
# large representable size (such as 2**31) is listed: a grid of that many
# points would be allocated, not rejected.
_MUTANT_VALUES = [None, True, 0, -1, 2.5, 3, 1e308, 1e-300, -1e-300, math.nan, math.inf,
                  -math.inf, 10**400, "x", "", [], [1], [1.0, 2.0], {}, {"a": 1}]


def _value_paths(node, path=()):
    """The path of every key's value, nested keys and the first element of
    each list included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node:
        children = [(0, node[0])]
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def test_no_config_mutation_raises_out_of_main(tmp_path):
    raised = []
    for command, config in _SMALL_CONFIGS.items():
        for path in _value_paths(config):
            for value in _MUTANT_VALUES:
                mutant = copy.deepcopy(config)
                parent = mutant
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                try:
                    with np.errstate(all="ignore"):
                        code, _ = _run(tmp_path, command, mutant, name="mutant")
                except Exception as exc:
                    raised.append(f"{command} {path} = {value!r}: {exc!r}")
                else:
                    assert code in (0, 2, 3), (command, path, value)
    assert raised == []


def test_each_command_prints_its_summary_line(tmp_path, capsys):
    # every command's whole stdout and stderr on its small config, rebuilt
    # from the files it wrote, and validate-kernel's line on a passing kernel
    def run(command, config, name):
        code, out = _run(tmp_path, command, config, name=name)
        captured = capsys.readouterr()
        return (code, captured.out, captured.err), out

    def read(out, name):
        return json.loads((out / name).read_text())

    result, out = run("solve", _SMALL_CONFIGS["solve"], "solve")
    sol = read(out, "solution.json")
    assert result == (0, f"sigma = {sol['sigma']:.12g} after {sol['iterations']} "
                         "iterations\n", "")

    for command, points, name in [("sweep-k", "k_list", "sweep"),
                                  ("kdv", "eps_list", "kdv sweep"),
                                  ("high-energy", "delta_list", "high-energy sweep")]:
        config = _SMALL_CONFIGS[command]
        n = len(config[points])
        result, _ = run(command, config, command)
        assert result == (0, f"{name} finished: {n}/{n} entries converged\n", "")

    result, out = run("decay", _SMALL_CONFIGS["decay"], "decay")
    decay = read(out, "decay.json")
    assert result == (0, f"sigma = {decay['sigma']:.12g}, fitted tail rate "
                         f"{decay['lambda_fit']:.6g} (r^2 = {decay['fit_r2']:.6f})\n", "")

    result, out = run("validate-kernel", _SMALL_CONFIGS["validate-kernel"], "two_bump")
    report = read(out, "validation.json")
    assert result == (2, "", f"kernel {report['label']} fails validation: "
                             f"{'; '.join(report['failures'])}\n")
    passing = {"grid": {"half_period": 16.0, "point_count": 256}, "kernel": _GAUSSIAN}
    result, _ = run("validate-kernel", passing, "gaussian")
    assert result == (0, "kernel gaussian(width=1) passes validation\n", "")

    result, out = run("uniqueness-probe", _SMALL_CONFIGS["uniqueness-probe"], "probe")
    probe = read(out, "probe.json")
    assert probe["n_converged"] == 2
    assert result == (0, f"uniqueness probe: 2/2 converged, max distance "
                         f"{probe['max_l2_distance']:.3g}, conjecture support: "
                         f"{probe['conjecture_support']}\n", "")


@pytest.mark.parametrize("k_list", [[-1.0, 0.5], [0.5, math.inf]])
def test_sweep_k_rejects_a_bad_k_before_any_solve(tmp_path, capsys, k_list):
    config = {**_solve_config(), "solver": {}, "k_list": k_list}
    code, out = _run(tmp_path, "sweep-k", config)
    assert code == 2
    assert "positive" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_allow_nonstandard_slack_applies_only_when_left_out(tmp_path):
    def slack(config, name):
        _, out = _run(tmp_path, "solve", config, "--allow-nonstandard", name=name)
        return json.loads((out / "meta.json").read_text())["config"]["solver"][
            "monotonicity_slack"]

    assert slack(_solve_config(), "default") == "inf"
    assert slack(_solve_config(monotonicity_slack=1e-9), "given") == 1e-9


def test_decay_without_convergence_writes_no_fit(tmp_path, capsys):
    config = {
        "grid": {"half_period": 40.0, "point_count": 4096},
        "kernel": {"kind": "ode"},
        "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
        "solver": {"K": 0.95, "max_iter": 30},
    }
    code, out = _run(tmp_path, "decay", config)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["U.csv", "V.csv", "meta.json",
                                                    "solution.json"]
    summary = json.loads((out / "solution.json").read_text())
    assert summary["converged"] is False
    line = f"no convergence in 30 iterations (residual {summary['residual']:.3g})"
    assert capsys.readouterr().err == f"error: {line}\n"
    assert json.loads((out / "meta.json").read_text())["warnings"] == [line]
