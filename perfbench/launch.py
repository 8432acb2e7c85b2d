"""Run one nleig CLI command in this fresh process, as the ``nleig`` console
script does (``sys.exit(nleig.cli.main(argv))``), and record when it first
calls ``solve`` and what each solve returned.

    python3 perfbench/launch.py REPORT [--spans FILE] [--setup-only] -- ARGS...

REPORT receives a JSON object with ``t_first_solve``, ``t_main_start`` and
``t_main_end`` (``time.monotonic()``, which on Linux is one clock for all
processes, so the caller can subtract its own spawn time), the exit code, and one
``[iterations, converged, point_count]`` entry per solve.  ``--spans``
wraps every layer boundary (see spans.py) and writes the spans to FILE after
the command ends, and adds the measured cost of recording one span to
REPORT as ``span_cost_ns``.  ``--setup-only`` writes the report and ends the process
at the first call into ``solve``, which measures set-up alone.

The program is imported from the ``src`` directory of the checkout this file
sits in; nothing in the environment is changed.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path


class SolveProbe:
    """Wrapper for every binding of ``solve``: first-entry time and the
    iteration count of each returned Solution."""

    def __init__(self, report_path: str, setup_only: bool):
        self.report_path = report_path
        self.setup_only = setup_only
        self.t_first_solve = None
        self.solves = []
        self._lock = threading.Lock()

    def write(self, **extra) -> None:
        payload = {"t_first_solve": self.t_first_solve, "solves": self.solves, **extra}
        Path(self.report_path).write_text(json.dumps(payload))

    def wrap(self, solve):
        def probed(*args, **kwargs):
            with self._lock:
                if self.t_first_solve is None:
                    self.t_first_solve = time.monotonic()
                    if self.setup_only:
                        self.write(exit_code=0)
                        sys.stdout.flush()
                        os._exit(0)
            sol = solve(*args, **kwargs)
            kernel = kwargs["kernel"] if "kernel" in kwargs else args[1]
            self.solves.append([sol.iterations, sol.converged, kernel.grid.point_count])
            return sol

        return probed


def main(argv) -> int:
    if "--" not in argv:
        print("usage: launch.py REPORT [--spans FILE] [--setup-only] -- ARGS...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import nleig.cli

    import spans

    recorder = None
    if spans_path is not None:
        recorder = spans.Recorder()
        spans.install(recorder)
    probe = SolveProbe(report_path, "--setup-only" in own)
    solve = sys.modules["nleig.solver"].solve
    spans.rebind(solve, probe.wrap(solve))

    t_main_start = time.monotonic()
    code = nleig.cli.main(cli_args)
    t_main_end = time.monotonic()
    timings = {"t_main_start": t_main_start, "t_main_end": t_main_end}
    if recorder is not None:
        recorder.write(spans_path)
        timings["span_cost_ns"] = spans.span_cost_ns()
    probe.write(exit_code=code, **timings)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
