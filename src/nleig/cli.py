"""Batch command-line front end.

One command per process: read a single JSON config, compute, write output
files atomically into --output, exit 0 on success, 2 on validation failure
or a size that cannot be allocated, 3 on non-convergence or a
ComputationError.  Identical configs produce byte-identical numeric
outputs; meta.json echoes the resolved config (defaults included, less the
kernel parameters left at their defaults) plus version and wall-clock and
CPU timings.

Each command declares in _COMMANDS the config it takes; _load reads every
config object through config.read_fields, builds and gates the kernel and
assembles meta.json's resolved config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .asymptotics import (
    TAIL_WINDOW,
    BlowUpBounded,
    HighEnergyGridPolicy,
    KdvGridPolicy,
    decay_report,
    # the family commands look these two up by name when they run
    high_energy_experiment,
    kdv_experiment,
    tail_nodes,
    tail_window,
)
from .config import (
    REQUIRED,
    as_number,
    fields_table,
    flag,
    integer,
    optional_number,
    read_fields,
)
from .errors import ComputationError, KernelAssumptionError, NleigError
from .grid import Grid, atomic_write_text, make_grid, write_json, write_profile_csv
from .kernels import Kernel, KernelSpec, kernel_spec_from_config, validate_kernel
from .nonlinearity import Nonlinearity, nonlinearity_from_config, nonlinearity_to_config
from .solver import (
    SolverConfig,
    SweepEntry,
    probe_distance_tol,
    save_solution,
    solve,
    sweep_K,
    uniqueness_probe,
)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    # cells are never quoted, so a comma inside text becomes a semicolon
    return str(value).replace(",", ";")


def _write_rows(path: Path, rows) -> None:
    """CSV of row dataclasses: the field names as header, one line per row."""
    names = [f.name for f in fields(rows[0])]
    lines = [",".join(names) + "\n"]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, name)) for name in names) + "\n")
    atomic_write_text(path, lines)


def emit_plot_data(rows, predictors: dict, out_dir, csv_name: str) -> None:
    """Write experiment rows as a CSV (column order = dataclass field order)
    plus predictors.json with the predictor constants.  Reruns on identical
    rows are byte-identical; empty row lists are an error."""
    if not rows:
        raise ValueError("no rows to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / csv_name, rows)
    write_json(out / "predictors.json", predictors)


# ---------------------------------------------------------------------------
# config loading: each config object is read by config.read_fields through
# a fields table


def _points(value) -> list[float]:
    points = [as_number(v) for v in value]
    if not points:
        raise ValueError("the list of points is empty")
    return points


def _window(value) -> list[float]:
    window = [as_number(v) for v in value]
    if len(window) != 2:
        raise ValueError(f"expected two fractions, got {value!r}")
    tail_window(window)
    return window


def _decay_c(value) -> float | None:
    c = optional_number(value)
    if c is not None and not 0.0 < c < 1.0:
        raise ValueError(f"must lie in (0, 1), got {c}")
    return c


def _distance_tol(value) -> float:
    return probe_distance_tol(as_number(value))


def _as_is(value):
    return value


def _declared(command: str, value):
    """The command a config names, if any, which must be the one run."""
    if value is not None and value != command:
        raise ValueError(f"the config is for {value!r}, not {command!r}")
    return value


# the solve sets init_profile itself
_SOLVER_FIELDS = fields_table(SolverConfig, "init_profile")

# the family experiments set K and the initial profile per point, and keep
# the solver's default slack
_FAMILY_SOLVER_FIELDS = fields_table(SolverConfig, "K", "init_profile", "init_width",
                                     "monotonicity_slack")


@dataclass(frozen=True)
class _Command:
    """The config one command takes.  Every command reads a kernel section;
    one with solver fields also a nonlinearity section, and it runs on a
    gated kernel.  A family names the extra key listing its points: its
    grid_policy sizes a grid per point, and the kernel is built on the first
    point's grid.  Other commands read a grid section."""

    run: Callable  # run(job, out, args) -> exit code; main then writes meta.json
    solver: dict | None = None  # fields of the solver section
    extras: dict = field(default_factory=dict)  # fields of further top-level keys
    family: str | None = None


@dataclass
class _Job:
    """One command's config as _load read it, and what its run leaves for
    meta.json."""

    spec: KernelSpec
    kernel: Kernel
    nl: Nonlinearity | None
    solver: dict | None
    extras: dict
    echo: dict  # the resolved config that meta.json records
    warnings: list
    # every solve the run returned or isolated; meta.json records their
    # counters and warnings
    entries: list = field(default_factory=list)


def _load(command: str, config: dict, args) -> _Job:
    """Check the top-level keys, read the sections and extra keys the command
    declares, build and gate the kernel, and assemble the resolved config."""
    cmd = _COMMANDS[command]
    sections = ["kernel"] + (["grid"] if cmd.family is None else [])
    if cmd.solver is not None:
        sections += ["nonlinearity", "solver"]
    values = read_fields(config, {"command": (partial(_declared, command), None),
                                  **{name: (_as_is, {}) for name in sections},
                                  **cmd.extras}, "config")
    extras = {key: values[key] for key in cmd.extras}
    spec = kernel_spec_from_config(values["kernel"])
    echo = {"command": command, "kernel": spec.to_config()}
    if cmd.family is None:
        grid = make_grid(**read_fields(values["grid"], fields_table(Grid), "grid section"))
        echo["grid"] = asdict(grid)
    else:
        grid = extras["grid_policy"].grid_for(extras[cmd.family][0], spec.length_scale)
    kernel = spec.build(grid)
    nl, solver, warnings = None, None, []
    if cmd.solver is not None:
        nl = nonlinearity_from_config(values["nonlinearity"])
        table = cmd.solver
        if args.allow_nonstandard and "monotonicity_slack" in table:
            # exploratory mode demotes the monotonicity abort to a warning,
            # unless the solver section sets the slack
            table = {**table, "monotonicity_slack": (as_number, math.inf)}
        solver = read_fields(values["solver"], table, "solver section")
        echo["nonlinearity"] = nonlinearity_to_config(nl)
        echo["solver"] = {key: "inf" if value == math.inf else value
                          for key, value in solver.items()}
        # the standing-assumption gate; exploratory mode turns it into warnings
        report = validate_kernel(kernel)
        if not report.passed and not args.allow_nonstandard:
            raise KernelAssumptionError(
                f"kernel {kernel.label} fails validation: {'; '.join(report.failures)} "
                "(pass --allow-nonstandard to run anyway)"
            )
        warnings = [f"kernel validation skipped: {failure}"
                    for failure in report.failures]
    for key, value in extras.items():
        echo[key] = asdict(value) if is_dataclass(value) else value
    return _Job(spec, kernel, nl, solver, extras, echo, warnings)


# ---------------------------------------------------------------------------
# commands


def _error(message: str, code: int = 2) -> int:
    """Print the error line for message and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _finished(job: _Job, name: str, entries) -> int:
    """Record a sweep's entries and print how many converged."""
    job.entries += entries
    converged = sum(entry.error is None for entry in entries)
    print(f"{name} finished: {converged}/{len(entries)} entries converged")
    return 0


def _record(job: _Job, out: Path, solution) -> int:
    """Record the solve and save its solution.  Returns the exit code, 3
    when the solve did not converge."""
    entry = SweepEntry(solution.K, solution, solution.error)
    job.entries.append(entry)
    save_solution(solution, out)
    return 0 if entry.error is None else _error(entry.error, 3)


def _run_solve(job, out, args):
    solution = solve(SolverConfig(**job.solver), job.kernel, job.nl)
    code = _record(job, out, solution)
    if code == 0:
        print(f"sigma = {solution.sigma:.12g} after {solution.iterations} iterations")
    return code


@dataclass(frozen=True)
class _SweepRow:
    """One K of sweep.csv; field order is the column order.  A K whose solve
    raised keeps the defaults and records the error."""

    K: float
    sigma: float = math.nan
    P: float = math.nan
    Q: float = math.nan
    residual: float = math.nan
    el_residual: float = math.nan
    iterations: int = 0
    converged: bool = False
    error: str = ""


def _run_sweep(job, out, args):
    ks = job.extras["k_list"]
    # the solver section takes no K: sweep_K sets each entry's from k_list
    entries = sweep_K(ks, SolverConfig(K=ks[0], **job.solver), job.kernel, job.nl,
                      warm_start=job.extras["warm_start"])
    rows = []
    for i, entry in enumerate(entries):
        sol = entry.solution
        if sol is None:
            rows.append(_SweepRow(entry.K, error=entry.error))
            continue
        rows.append(_SweepRow(entry.K, sol.sigma, sol.P, sol.Q, sol.residual,
                              sol.el_residual, sol.iterations, sol.converged))
        save_solution(sol, out, stem=f"k_{i:03d}")
    _write_rows(out / "sweep.csv", rows)
    return _finished(job, "sweep", entries)


def _family(experiment_name, points_key, policy_type, csv_name, label) -> _Command:
    """A family command: the experiment named experiment_name solves each
    point of points_key on the grid its policy_type sizes, and the run writes
    csv_name and predictors.json.  The run looks the experiment up in this
    module when it runs: perfbench's tracer and the tests rebind the
    module-level name, which a function bound here at import would bypass."""
    table = fields_table(policy_type)

    def run(job, out, args):
        experiment = globals()[experiment_name]
        result = experiment(job.spec, job.nl, job.extras[points_key],
                            policy=job.extras["grid_policy"], **job.solver)
        emit_plot_data(result.rows, result.predictors, out, csv_name)
        return _finished(job, label, result.entries)

    def policy(section):  # an absent key keeps its default
        return policy_type(**read_fields(section, table, "grid_policy section"))

    return _Command(run, _FAMILY_SOLVER_FIELDS,
                    {points_key: (_points, REQUIRED), "grid_policy": (policy, policy_type())},
                    family=points_key)


def _run_decay(job, out, args):
    tail_nodes(job.kernel.grid, job.extras["window"])  # 3 nodes to fit, before the solve
    solution = solve(SolverConfig(**job.solver), job.kernel, job.nl)
    # fitted before any file is written, so a c that this sigma rules out
    # leaves none; an unconverged profile gets no tail fit
    report = decay_report(job.kernel, job.nl, solution, c=job.extras["c"],
                          window=job.extras["window"]) if solution.converged else None
    code = _record(job, out, solution)
    if code:
        return code
    if isinstance(report.lambda_theory, BlowUpBounded):
        theory = {"kind": "blow_up_bounded",
                  "lambda_max": report.lambda_theory.lambda_max}
    else:
        theory = {"kind": "root", "value": report.lambda_theory}
    write_json(out / "decay.json",
               {"c": report.c, "fit_r2": report.fit_r2, "fit_window": report.fit_window,
                "lambda_fit": report.lambda_fit, "lambda_theory": theory,
                "sigma": solution.sigma})
    write_profile_csv(report.a_c, out / "a_c.csv")
    job.echo["c"] = report.c  # the c used, also when the config left it out
    print(
        f"sigma = {solution.sigma:.12g}, fitted tail rate "
        f"{report.lambda_fit:.6g} (r^2 = {report.fit_r2:.6f})"
    )
    return 0


def _run_validate(job, out, args):
    kernel = job.kernel
    report = validate_kernel(kernel)
    metadata = {
        "mass": kernel.mass,
        "second_moment": kernel.second_moment,
        "bhat_pp0": kernel.bhat_pp0,
        "a0": kernel.a0,
        "a_pp0": None if not np.isfinite(kernel.a_pp0) else kernel.a_pp0,
        "k_max_norm": kernel.k_max_norm,
    }
    # the cone block is left out when the cone was not checked
    cone = {"cone": asdict(report.cone)} if report.cone_checked else {}
    write_json(out / "validation.json",
               {"label": kernel.label, "metadata": metadata, "mass_error": report.mass_error,
                **cone, "failures": report.failures, "cone_checked": report.cone_checked,
                "passed": report.passed})
    if not report.passed:
        detail = "; ".join(report.failures)
        print(f"kernel {kernel.label} fails validation: {detail}", file=sys.stderr)
        return 0 if args.allow_nonstandard else 2
    print(f"kernel {kernel.label} passes validation")
    return 0


def _run_probe(job, out, args):
    report = uniqueness_probe(SolverConfig(**job.solver), job.kernel, job.nl,
                              **job.extras)
    support = "yes" if report.supports_conjecture else "no"
    distance = report.max_l2_distance
    # the distances are null, not left out, when fewer than two starts converged
    write_json(out / "probe.json",
               {"n_starts": report.n_starts, "widths": report.widths,
                "sigmas": report.sigmas, "n_converged": report.n_converged,
                "max_l2_distance": distance, "max_sigma_gap": report.max_sigma_gap,
                "distance_tol": report.distance_tol, "failures": report.failures,
                "conjecture_support": support})
    job.entries += report.entries
    print(
        f"uniqueness probe: {report.n_converged}/{report.n_starts} converged, "
        f"max distance {'n/a' if distance is None else format(distance, '.3g')}, "
        f"conjecture support: {support}"
    )
    return 0


_COMMANDS = {
    "solve": _Command(_run_solve, _SOLVER_FIELDS),
    "sweep-k": _Command(
        _run_sweep,
        fields_table(SolverConfig, "K", "init_profile"),
        {"k_list": (_points, REQUIRED), "warm_start": (flag, False)},
    ),
    "kdv": _family("kdv_experiment", "eps_list", KdvGridPolicy, "kdv.csv", "kdv sweep"),
    "high-energy": _family("high_energy_experiment", "delta_list", HighEnergyGridPolicy,
                           "high_energy.csv", "high-energy sweep"),
    "decay": _Command(
        _run_decay,
        _SOLVER_FIELDS,
        {"c": (_decay_c, None), "window": (_window, list(TAIL_WINDOW))},
    ),
    "validate-kernel": _Command(_run_validate),
    "uniqueness-probe": _Command(
        _run_probe,
        _SOLVER_FIELDS,
        # checked at read, as numpy's error for a negative seed names no key
        {"n_starts": (partial(integer, least=1), 5),
         "seed": (partial(integer, least=0), 0),
         "distance_tol": (_distance_tol, 1e-6)},
    ),
}


def _solver_counters(sol) -> dict:
    """The counters one solve records, for meta.json, with the residual of
    the V it returned; the contraction rate is null when the solve took no
    step."""
    rate = sol.contraction_rate
    return {
        "K": sol.K,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "contraction_rate": rate if math.isfinite(rate) else None,
        "accelerated_steps": sol.accelerated_steps,
        "rejected_steps": sol.rejected_steps,
        "max_p_drop": sol.max_p_drop,
        "transforms": sol.transforms,
    }


def _write_meta(out: Path, args, job: _Job) -> None:
    resolved = {
        **job.echo,
        "output_dir": str(out),
        "allow_nonstandard": bool(args.allow_nonstandard),
    }
    meta = {
        "config": resolved,
        "version": __version__,
        # the BLAS thread setting behind cpu_seconds: "1" (nleig's default,
        # set at import) unless the caller set it first
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "timings": {
            "total_seconds": round(time.perf_counter() - args.started, 6),
            # CPU of all the process's threads: every command runs serially,
            # so it exceeds total_seconds only when blas_threads above 1
            # starts OpenBLAS's (spinning) worker threads
            "cpu_seconds": round(time.process_time() - args.cpu_started, 6),
        },
        "warnings": job.warnings + [line for entry in job.entries
                                    for line in entry.warnings()],
    }
    solutions = [entry.solution for entry in job.entries if entry.solution is not None]
    if solutions:
        meta["solves"] = [_solver_counters(sol) for sol in solutions]
    if args.allow_nonstandard:
        meta["unvalidated"] = True
    write_json(out / "meta.json", meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nleig",
        description="Solution families of the nonlocal eigenvalue problem "
        "sigma V = b * f(b * V) by energy-monotone fixed-point iteration.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument(
        "--allow-nonstandard",
        action="store_true",
        help="run kernels failing validation; relaxes solver aborts to warnings "
        "and stamps outputs unvalidated",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every command runs serially")
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    args.cpu_started = time.process_time()

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return _error(f"config file {args.config} not found")
    except json.JSONDecodeError as exc:
        return _error(f"config is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
        return _error(f"cannot read config file {args.config}: {exc}")
    if args.threads < 1:
        return _error("--threads must be at least 1")

    out = Path(args.output)
    try:
        job = _load(args.command, config, args)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or a path under one
            return _error(f"cannot create output directory {out}: {exc}")
        try:
            code = _COMMANDS[args.command].run(job, out, args)
            _write_meta(out, args, job)
        except OSError as exc:  # an output file name taken by a directory, say
            return _error(f"cannot write output in {out}: {exc}")
        return code
    except ComputationError as exc:
        return _error(f"{type(exc).__name__}: {exc}", 3)
    except MemoryError as exc:  # numpy raises a private subclass for a size too large
        return _error(f"MemoryError: {exc}")
    except (ValueError, KeyError, NleigError) as exc:
        return _error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
