"""nleig benchmark: runs one workload's CLI command in fresh processes for a
fixed time, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src``.
Each CLI run is a closed loop of one client: the next process starts when
the previous one has exited.  One set-up-only process runs first, untimed, as
a warm-up.  ``--trace 0`` reports the end-to-end metrics from untraced runs,
as interquartile means over the processes (``setup_s`` as their median);
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones.  The last line of the
output is one JSON object; the lines before it give every figure with its
sample count, the environment, and the output digest.  Files are written
under ``.perfbench/`` in the checkout.  README.md next to this file explains
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, is_profile_csv, output_digest

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 150.0  # stop starting new CLI runs after this; the cap is 180 s
MIN_SETUP_SAMPLES = 9
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "limit_gap": "ratio",
}

PER_LAYER_UNITS = {
    "kernels.convolve.calls": "count",
    "kernels.convolve.s": "s",
    "kernels.convolve.ns_per_point": "ns",
    "nonlinearity.f.calls": "count",
    "nonlinearity.f.s": "s",
    "nonlinearity.F.calls": "count",
    "nonlinearity.F.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.solve.self_s": "s",
    "solver.us_per_iter": "us",
    "grid.profile.calls": "count",
    "grid.profile.s": "s",
    "grid.inner_product.calls": "count",
    "grid.inner_product.s": "s",
    "grid.inner_product.slow_calls": "count",
    "grid.cone_check.calls": "count",
    "grid.cone_check.s": "s",
    "functionals.eval_K.calls": "count",
    "functionals.eval_K.s": "s",
    "grid.write_profile_csv.calls": "count",
    "grid.write_profile_csv.s": "s",
    "grid.write_profile_csv.bytes": "B",
    "solver.save_solution.s": "s",
    "cli.emit_plot_data.s": "s",
    "cli.output_bytes": "B",
    "solver.sweep_K.s": "s",
    "solver.sweep_K.parallel_eff": "ratio",
    "kernels.build.calls": "count",
    "kernels.build.s": "s",
    "cli.gate.s": "s",
    "asymptotics.kdv_experiment.s": "s",
    "asymptotics.high_energy_experiment.s": "s",
    "asymptotics.decay_report.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

ENV_PROBE = """
import json, sys, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": np.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version",
                                                     "openblas configuration")}}))
"""


@dataclass
class CliRun:
    """One fresh-process CLI run, as measured from outside and reported by
    launch.py from inside."""

    exit_code: int
    wall_s: float
    main_s: float | None  # duration of nleig.cli.main, without the imports
    setup_s: float | None  # spawn to the first call into solve
    cpu_s: float
    peak_rss_mb: float
    solves: list  # [iterations, converged, point_count] per solve
    problems: list = field(default_factory=list)
    limit_gap: float = float("nan")
    figures: dict = field(default_factory=dict)
    digest: str | None = None
    layers: dict | None = None
    layers_entered: set = field(default_factory=set)
    span_cost_ns: float | None = None

    @property
    def iterations(self) -> int:
        return sum(s[0] for s in self.solves)


class Bench:
    def __init__(self, root: Path, workload, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.config = workload.config(seed)
        self.seconds = seconds
        self.work = root / ".perfbench" / f"work-{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, traced: bool = False, setup_only: bool = False) -> tuple:
        """Run launch.py once; returns (CliRun, output dir, span file)."""
        self.count += 1
        tag = f"{self.count:04d}"
        out_dir = self.work / f"out-{tag}"
        report = self.work / f"report-{tag}.json"
        span_file = self.work / f"spans-{tag}.csv" if traced else None
        cmd = [sys.executable, str(HERE / "launch.py"), str(report)]
        if traced:
            cmd += ["--spans", str(span_file)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", self.workload.command, "--config", str(self.config_path),
                "--output", str(out_dir), *self.workload.cli_flags]
        timeout = max(1.0, 175.0 - self.elapsed())
        with (self.work / f"stdout-{tag}.txt").open("w") as out, \
                (self.work / f"stderr-{tag}.txt").open("w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        inside = json.loads(report.read_text()) if report.exists() else {}

        def since_start(key):
            return None if inside.get(key) is None else inside[key] - start

        main_s = None
        if inside.get("t_main_end") is not None:
            main_s = inside["t_main_end"] - inside["t_main_start"]

        run = CliRun(
            exit_code=code,
            wall_s=end - start,
            main_s=main_s,
            setup_s=since_start("t_first_solve"),
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            solves=inside.get("solves", []),
            span_cost_ns=inside.get("span_cost_ns"),
        )
        if code != 0:
            stderr = (self.work / f"stderr-{tag}.txt").read_text().strip()
            run.problems.append(f"exit code {code}: {stderr[-500:]}")
        elif run.setup_s is None:
            run.problems.append("solve was never called")
        return run, out_dir, span_file

    def full_run(self, traced: bool = False) -> CliRun:
        run, out_dir, span_file = self.launch(traced=traced)
        if not run.problems:
            self.check(run, out_dir)
        if traced and not run.problems:
            recorded = spans.read_spans(span_file)
            run.layers = spans.layer_metrics(recorded)
            run.layers_entered = {span[3] for span in recorded}
            run.layers["trace.cost_estimate_frac"] = (
                run.span_cost_ns * len(recorded) / 1e9 / run.main_s
            )
            run.layers["cli.output_bytes"] = sum(
                p.stat().st_size for p in out_dir.iterdir()
            )
            run.problems += self.identity_problems(run, out_dir)
            shutil.copyfile(span_file, self.root / ".perfbench" /
                            f"spans-{self.workload.name}.csv")
        shutil.rmtree(out_dir, ignore_errors=True)
        if span_file is not None:
            span_file.unlink(missing_ok=True)
        return run

    def check(self, run: CliRun, out_dir: Path) -> None:
        expected = self.workload.solve_count(self.config)
        if len(run.solves) != expected:
            run.problems.append(f"{len(run.solves)} solves seen, {expected} expected")
        try:
            problems, run.limit_gap, run.figures = self.workload.check(
                out_dir, self.config, run.solves
            )
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        run.problems += problems
        run.digest = output_digest(out_dir)

    def identity_problems(self, run: CliRun, out_dir: Path) -> list:
        """Call counts each wrapper must see if it sees every call."""
        m = run.layers
        n_solves = len(run.solves)
        its = run.iterations
        profiles = [p for p in out_dir.iterdir()
                    if p.suffix == ".csv" and is_profile_csv(p)]
        expected = {
            "solver.solve.calls": n_solves,
            "kernels.convolve.calls": 2 * its + 2 * n_solves
            + self.workload.convolves_per_row * n_solves,
            "nonlinearity.f.calls": its + n_solves,
            "nonlinearity.F.calls": its + n_solves,
            "grid.write_profile_csv.calls": len(profiles),
            "grid.write_profile_csv.bytes": sum(p.stat().st_size for p in profiles),
        }
        return [
            f"trace identity {name}: {m[name]} recorded, {value} expected"
            for name, value in expected.items() if m[name] != value
        ]


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], capture_output=True,
                           text=True, timeout=60)
    if probe.returncode == 0:
        env.update(json.loads(probe.stdout))
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def middle_mean(values):
    """Interquartile mean: the mean of the values left after the lowest and
    the highest quarter are dropped.  Over a run's CLI processes it moves
    less with the host's speed than their median does."""
    if not values:
        return 0.0
    cut = len(values) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


# setup_s is a median, as its samples include set-up probes; the rest of the
# end-to-end metrics are interquartile means over the full CLI runs
END_TO_END_STATISTIC = {name: middle_mean for name in END_TO_END_UNITS}
END_TO_END_STATISTIC["setup_s"] = median


def describe(name: str, values: list, unit: str) -> str:
    if not values:
        return f"{name}: no samples ({unit})"
    spread = f"min {min(values):.6g}, max {max(values):.6g}"
    if END_TO_END_STATISTIC[name] is median:
        return f"{name} = {median(values):.6g} {unit} (median of {len(values)}, {spread})"
    return (f"{name} = {middle_mean(values):.6g} {unit} (interquartile mean of "
            f"{len(values)}, median {median(values):.6g}, {spread})")


def measure(bench: Bench, trace: bool) -> tuple[list, list]:
    """Full CLI runs until --seconds is used up (at least one, or one pair
    when tracing); returns (untraced runs, traced runs)."""
    untraced, traced = [], []
    deadline = bench.seconds
    while True:
        run = bench.full_run()
        untraced.append(run)
        spent = run.wall_s
        if trace:
            run = bench.full_run(traced=True)
            traced.append(run)
            spent += run.wall_s
        if bench.elapsed() + spent > deadline or bench.elapsed() > RUN_BUDGET_S:
            return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = HERE.parent
    if not (root / "src" / "nleig" / "cli.py").is_file():
        print(f"error: {root} holds no src/nleig; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    bench = Bench(root, workload, args.seed, args.seconds)
    print("environment: " + json.dumps(env, sort_keys=True))
    # untimed: the first process in a checkout compiles the .pyc files, and
    # small_k's one timed run would carry that cost; a failure here shows
    # again in the timed runs
    bench.launch(setup_only=True)
    bench.started = time.monotonic()
    untraced, traced = measure(bench, bool(args.trace))
    setup_samples = [r.setup_s for r in untraced if r.setup_s is not None]
    if not args.trace:
        while len(setup_samples) < MIN_SETUP_SAMPLES and bench.elapsed() < RUN_BUDGET_S:
            probe, _, _ = bench.launch(setup_only=True)
            if probe.exit_code != 0 or probe.setup_s is None:
                untraced.append(probe)  # counted as a failed run
                break
            setup_samples.append(probe.setup_s)

    runs = untraced + traced
    per_run = workload.solve_count(bench.config)
    failed_runs = [r for r in runs if r.problems]
    digests = {r.digest for r in runs if r.digest is not None}
    correct = not failed_runs and len(digests) == 1
    attempted = per_run * len(runs)
    failed = per_run * len(failed_runs)
    for r in failed_runs:
        print(f"FAILED run: {'; '.join(r.problems)}")
    if len(digests) > 1:
        print(f"FAILED: runs of the same inputs wrote different outputs: {sorted(digests)}")
    ok = [r for r in untraced if not r.problems]

    samples = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": setup_samples,
        "cpu_s": [r.cpu_s for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
        "iterations": [r.iterations for r in ok],
        "limit_gap": [r.limit_gap for r in ok],
    }
    print(f"workload {workload.name}, seed {args.seed}: {len(runs)} CLI runs, "
          f"{attempted} solves attempted, {failed} failed "
          f"(failed_frac = {failed / attempted:.6g} ratio)")
    for name, unit in END_TO_END_UNITS.items():
        print(describe(name, samples[name], unit))
    figures = ok[0].figures if ok else {}
    for name, value in figures.items():
        print(f"{name} = {value:.6g} ratio")
    print(f"output digest: {', '.join(sorted(digests)) or 'none'}")

    if args.trace:
        layer_runs = [r.layers for r in traced if r.layers is not None]
        metrics = {name: median([lr[name] for lr in layer_runs])
                   for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        cost_estimate = median([lr["trace.cost_estimate_frac"] for lr in layer_runs])
        plain = median([r.main_s for r in ok if r.main_s is not None])
        with_spans = median([r.main_s for r in traced if r.layers is not None])
        metrics["trace.overhead_frac"] = with_spans / plain - 1.0 if plain else 0.0
        entered = set().union(*(r.layers_entered for r in traced))
        print(f"traced runs: {len(layer_runs)}; per-layer figures are medians over them")
        for name, unit in PER_LAYER_UNITS.items():
            layer = name.rsplit(".", 1)[0]
            unused = layer in spans.LAYER_NAMES and layer not in entered
            note = " (does not apply: this workload never enters the layer)" if unused else ""
            print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
        print(f"  recording cost, measured per span and multiplied by the span count: "
              f"{cost_estimate:.4g} of the traced main()")
        print("  solver.solve.self_s covers symmetrize, renormalize, residual and "
              "the monotonicity check together; only spans inside solve can split them")
        units = PER_LAYER_UNITS
    else:
        metrics = {name: END_TO_END_STATISTIC[name](samples[name])
                   for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "environment": env, "config": bench.config,
               "digests": sorted(digests), "samples": samples, "result": result}
    (root / ".perfbench" / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, default=str) + "\n"
    )
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
