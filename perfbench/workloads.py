"""The benchmark's workloads: the nleig command each one runs, its config
made from the seed, and the checks of the command's outputs.

Why each workload was chosen is recorded in README.md next to this file.
The workloads are the paper's fixed experiments, so the seed changes only
the order of the keys in the config file: every seed runs the same numbers
and must write the same output digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXP_ALPHA = 1.0  # f'(0) of f(r) = e^r - 1


def _gaussian(width: float) -> dict:
    return {"kind": "gaussian", "width": width}


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def small_k_d0(width: float, alpha: float = EXP_ALPHA, beta: float = 1.0) -> float:
    """Predicted limit of (sigma - alpha)/eps^2 for a Gaussian kernel of the
    given width, whose symbol has bhat''(0) = -width^2; the quadratic Taylor
    coefficient of f is beta/2."""
    beta_quad = 0.5 * beta
    return beta_quad ** (4.0 / 3.0) / (
        3.0 ** (2.0 / 3.0) * alpha ** (1.0 / 3.0) * width ** (2.0 / 3.0)
    )


def high_energy_eta0(m: float) -> float:
    """Predicted limit of sigma*eps^(m+1/2) for a Gaussian kernel: with
    a = b*b Gaussian of variance 2w^2, sqrt(2 pi a(0)^3/|a''(0)|) = 1 and
    eta0 reduces to Gamma(m + 1/2)/Gamma(m + 1) for every width."""
    return math.exp(math.lgamma(m + 0.5) - math.lgamma(m + 1.0))


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# Each check returns (problems, limit_gap, named figure).


def _check_small_k(out: Path, config: dict, solves: list):
    rows = _read_rows(out / "kdv.csv")
    predictors = json.loads((out / "predictors.json").read_text())
    d0 = small_k_d0(config["kernel"]["width"])
    problems = []
    if _relative_gap(predictors["d0"], d0) > 1e-6:
        problems.append(f"predicted d0 {predictors['d0']!r} differs from {d0!r}")
    if len(rows) != len(config["eps_list"]) or not all(s[1] for s in solves):
        problems.append("not every eps converged")
        return problems, math.nan, {}
    d_ratio = [float(r["d_ratio"]) for r in rows]
    profile_err = [float(r["profile_err"]) for r in rows]
    if not all(map(math.isfinite, d_ratio + profile_err)):
        problems.append("non-finite d_ratio or profile_err")
        return problems, math.nan, {}
    gaps = [abs(r - d0) for r in d_ratio]
    if gaps[-1] > 0.10 * d0:
        problems.append(f"d_ratio gap {gaps[-1] / d0:.3g} of d0 exceeds 0.10")
    if not _strictly_decreasing(gaps):
        problems.append(f"d_ratio gaps not strictly decreasing: {gaps}")
    if not _strictly_decreasing(profile_err):
        problems.append(f"profile errors not strictly decreasing: {profile_err}")
    if max(s[2] for s in solves) > 2**15:
        problems.append("a grid exceeds 2^15 points")
    gap = gaps[-1] / d0
    return problems, gap, {"d_ratio_gap": gap}


def _check_high_energy(out: Path, config: dict, solves: list):
    rows = _read_rows(out / "high_energy.csv")
    predictors = json.loads((out / "predictors.json").read_text())
    eta0 = high_energy_eta0(config["nonlinearity"]["m"])
    problems = []
    if _relative_gap(predictors["eta0"], eta0) > 1e-6:
        problems.append(f"predicted eta0 {predictors['eta0']!r} differs from {eta0!r}")
    if len(rows) != len(config["delta_list"]) or not all(s[1] for s in solves):
        problems.append("not every delta converged")
        return problems, math.nan, {}
    eps = [float(r["eps_delta"]) for r in rows]
    sups = [float(r["sup_err"]) for r in rows]
    etas = [float(r["eta"]) for r in rows]
    if not all(map(math.isfinite, eps + sups + etas)):
        problems.append("non-finite eps_delta, sup_err or eta")
        return problems, math.nan, {}
    gaps = [abs(e - eta0) for e in etas]
    for label, values in (("eps_delta", eps), ("sup_err", sups), ("eta gaps", gaps)):
        if not _strictly_decreasing(values):
            problems.append(f"{label} not strictly decreasing: {values}")
    if gaps[-1] > 0.15 * eta0:
        problems.append(f"eta gap {gaps[-1] / eta0:.3g} of eta0 exceeds 0.15")
    gap = gaps[-1] / eta0
    return problems, gap, {"eta_gap": gap}


def _check_decay(out: Path, config: dict, solves: list):
    report = json.loads((out / "decay.json").read_text())
    solution = json.loads((out / "solution.json").read_text())
    problems = []
    if not solution["converged"] or not all(s[1] for s in solves):
        problems.append("decay solve did not converge")
    if not solution["sigma"] > config["nonlinearity"]["alpha"]:
        problems.append("sigma does not exceed alpha")
    theory = report["lambda_theory"]
    if theory.get("kind") != "root":
        problems.append(f"no theoretical tail rate: {theory}")
        return problems, math.nan, {}
    gap = _relative_gap(report["lambda_fit"], theory["value"])
    if not report["fit_r2"] >= 0.999:
        problems.append(f"tail fit r^2 {report['fit_r2']!r} below 0.999")
    if not gap <= 0.05:
        problems.append(f"tail rate gap {gap:.3g} exceeds 0.05")
    return problems, gap, {"tail_rate_gap": gap, "fit_r2": report["fit_r2"]}


def _check_sweep_k(out: Path, config: dict, solves: list):
    rows = _read_rows(out / "sweep.csv")
    problems = []
    if [float(r["K"]) for r in rows] != config["k_list"]:
        problems.append("sweep.csv K column differs from k_list")
        return problems, math.nan, {}
    for r in rows:
        K, sigma, P = float(r["K"]), float(r["sigma"]), float(r["P"])
        if r["converged"] != "true" or r["error"]:
            problems.append(f"K={K!r} did not converge: {r['error']}")
            continue
        if not float(r["el_residual"]) <= 1e-9:
            problems.append(f"K={K!r}: el_residual {r['el_residual']} above 1e-9")
        if not sigma > EXP_ALPHA:
            problems.append(f"K={K!r}: sigma {sigma!r} not above alpha")
        if not P > EXP_ALPHA * K:
            problems.append(f"K={K!r}: P {P!r} not above alpha*K")
    if problems:
        return problems, math.nan, {}
    # the small-K prediction (sigma - alpha)/eps^2 -> d0, K = eps^3, read at
    # the sweep's smallest K
    K0, sigma0 = float(rows[0]["K"]), float(rows[0]["sigma"])
    d0 = small_k_d0(config["kernel"]["width"])
    gap = _relative_gap((sigma0 - EXP_ALPHA) / K0 ** (2.0 / 3.0), d0)
    worst_el = max(float(r["el_residual"]) for r in rows)
    return problems, gap, {"small_k_gap_at_min_K": gap, "el_residual_max": worst_el}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    cli_flags: tuple
    base_config: dict
    check: Callable
    # Kernel.convolve calls made outside solve, per converged solve
    convolves_per_row: int = 0

    def config(self, seed: int) -> dict:
        keys = sorted(self.base_config)
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return {key: self.base_config[key] for key in keys}

    def solve_count(self, config: dict) -> int:
        for key in ("eps_list", "delta_list", "k_list"):
            if key in config:
                return len(config[key])
        return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_k",
            command="kdv",
            cli_flags=(),
            base_config={
                "command": "kdv",
                "kernel": _gaussian(1.0),
                "nonlinearity": {"kind": "exp"},
                "eps_list": [0.2, 0.1, 0.05],
            },
            check=_check_small_k,
        ),
        Workload(
            name="sweep_k",
            command="sweep-k",
            cli_flags=("--threads", "2"),
            base_config={
                "command": "sweep-k",
                "grid": {"half_period": 50.0, "point_count": 8192},
                "kernel": _gaussian(1.0),
                "nonlinearity": {"kind": "exp"},
                "k_list": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
                "warm_start": False,
            },
            check=_check_sweep_k,
        ),
        Workload(
            name="decay",
            command="decay",
            cli_flags=(),
            base_config={
                "command": "decay",
                "grid": {"half_period": 60.0, "point_count": 16384},
                "kernel": {"kind": "ode"},
                "nonlinearity": {"kind": "quadratic", "alpha": 1.0, "beta": 2.0},
                "solver": {"K": 0.3},
            },
            check=_check_decay,
        ),
        Workload(
            name="high_energy",
            command="high-energy",
            cli_flags=(),
            base_config={
                "command": "high-energy",
                "kernel": _gaussian(1.0),
                "nonlinearity": {"kind": "singular", "m": 4},
                "delta_list": [0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002],
            },
            check=_check_high_energy,
            convolves_per_row=1,  # the reference a = b*b for sup_err
        ),
    )
}


def is_profile_csv(path: Path) -> bool:
    with path.open() as fh:
        return fh.readline() == "x,value\n"


def output_digest(out: Path) -> str:
    """SHA-256 over the numeric output files; meta.json is left out because
    it records timings and the output path."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name == "meta.json":
            continue
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()
