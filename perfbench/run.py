"""The repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

Workloads (see ``workloads.py`` for what each times and checks): ``compile``,
``run`` and ``serve``.  Each runs in fresh interpreters started from here:

* ``--trace 0`` starts three workers.  All three time set-up, from process
  start to ready; two stop there and the third runs rounds of the timed
  operations for about ``--seconds`` and checks every output.  ``setup_s`` is
  the median of the three set-ups.  Times are CPU seconds at the reference
  host speed (``clock.py``).  End-to-end metrics are printed one per line
  with their unit, then the JSON result as the last line.
* ``--trace 1`` starts one worker, which wraps the program's layers during
  set-up and in every other round, and writes
  ``.perfbench/traces/<workload>-<seed>.json`` (Chrome trace-event JSON).
  The JSON result holds the per-layer metrics.

The exit status is 0 when every output matched, 1 when an output mismatched
or an operation failed (the JSON result is still printed), and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: Every worker must end within this many seconds of the benchmark start.
DEADLINE_S = 170.0
SETUP_SAMPLES = 3

#: End-to-end metrics gated by BENCHMARK.json, with their units.
END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MiB", "ir_instrs": "count"}

#: Workload-specific phase metrics: printed on every run, and reported with
#: the per-layer metrics (0 where a workload has no such phase).
PHASES = {
    "cold_compile_s": ("s", "compile"),
    "warm_compile_s": ("s", "compile"),
    "edit_recompile_s": ("s", "compile"),
    "suite_compile_s": ("s", "compile"),
    "suite_run_s": ("s", "run"),
    "sweep_compiled_s": ("s", "run"),
    "sweep_lane_s": ("s", "run"),
    "sweep_gpu_s": ("s", "run"),
    "serve_p50_ms": ("ms", "serve"),
    "serve_p99_ms": ("ms", "serve"),
    "serve_rps": ("1/s", "serve"),
}

#: Figures the worker reports next to the phases, by unit.
REPORTED = {
    "work_wall_s": "s",
    "host.slowdown": "ratio",
    "serve.daemon.latency_p50_ms": "ms",
    "serve.coalesce.rate": "ratio",
    "serve.dispatches": "count",
    "serve.max_batch": "count",
    "serve.rejected": "count",
    "serve.samples_beyond_p99": "count",
    "backends.lane.inexact_lanes": "count",
    "backends.lane.beyond_rtol": "count",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A child interpreter running ``perfbench.worker``."""

    def __init__(self, args, mode: str, env, deadline: float, extra=()):
        self.run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}-{mode}-{time.monotonic_ns()}")
        os.makedirs(self.run_dir)
        command = [
            sys.executable,
            "-m",
            "perfbench.worker",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--mode",
            mode,
            "--run-dir",
            self.run_dir,
            *extra,
        ]
        if args.corrupt_expected:
            command.append("--corrupt-expected")
        self.deadline = deadline
        self.lines: "queue.Queue" = queue.Queue()
        # A session of its own, so that close() also reaches the daemon a
        # serve worker starts.
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _next_line(self):
        try:
            return self.lines.get(timeout=max(0.0, self.deadline - time.monotonic()))
        except queue.Empty:
            raise WorkerError("worker ran past the benchmark deadline") from None

    def wait_ready(self) -> float:
        """The set-up seconds on the worker's READY line."""
        while True:
            line = self._next_line()
            if line is None:
                raise WorkerError("worker exited before it was ready")
            if line.startswith("READY "):
                return float(line.split()[1])

    def result(self) -> Optional[dict]:
        """The worker's JSON summary (``None`` for a probe) once it exits."""
        last = None
        while True:
            line = self._next_line()
            if line is None:
                break
            last = line
        code = self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        if code != 0:
            raise WorkerError(f"worker exited with status {code}")
        return json.loads(last) if last else None

    def close(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join(timeout=5)
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, *filter(None, [env.get("PYTHONPATH")])]
    )
    env.pop("REPRO_ARTIFACT_DIR", None)
    return env


def _run_worker(args, mode, env, deadline, extra=()):
    worker = Worker(args, mode, env, deadline, extra)
    try:
        return worker.wait_ready(), worker.result()
    finally:
        worker.close()


def _print_line(name, value, unit):
    print(f"{name:<40} {value!r} {unit}")


def measure(args, env, deadline) -> dict:
    """Untraced run: set-up samples, then the measured worker."""
    samples = [_run_worker(args, "probe", env, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, summary = _run_worker(args, "measure", env, deadline)
    summary["setup_s"] = statistics.median([*samples, setup])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("compile", "run", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="change one expected value, to show that a mismatch fails the run",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _environment()
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.trace:
            trace_dir = os.path.join(WORK_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")
            _, summary = _run_worker(args, "traced", env, deadline, ("--trace-file", trace_file))
        else:
            summary = measure(args, env, deadline)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = summary["attempted"]
    failed = summary["failed"]
    error_rate = failed / attempted

    machine = summary["machine"]
    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} rounds={summary['rounds']} nproc={machine['nproc']} "
        f"cpu={machine['cpu']!r} python={machine['python']} numpy={machine['numpy']}"
    )
    print(
        "# work_s per round: "
        + " ".join(f"{v:.4f}" for v in summary["round_work_s"])
        + f"; wall seconds per round (median) {summary['wall_s']:.4f}"
        + f"; set-up wall seconds {summary['setup_wall_s']:.4f}"
        + f"; host slowdown {summary['host.slowdown']:.3f}"
    )
    for message in summary["errors"]:
        print(f"# mismatch: {message}")
    for name, unit in END_TO_END.items():
        _print_line(name, summary[name], unit)
    phases = summary["metrics"]
    for name, (unit, workload) in PHASES.items():
        if workload == args.workload:
            _print_line(name, phases[name], unit)
    _print_line("error_rate", error_rate, "ratio")

    if args.trace:
        phases["work_wall_s"] = summary["wall_s"]
        phases["host.slowdown"] = summary["host.slowdown"]
        metrics = {
            name: (value, _layer_unit(name)) for name, value in summary["layers"].items()
        }
        for name, (unit, _workload) in PHASES.items():
            metrics[name] = (phases.get(name, 0.0), unit)
        for name, unit in REPORTED.items():
            metrics[name] = (phases.get(name, 0.0), unit)
        metrics["serve.client.rtt_p50_ms"] = (phases.get("serve_p50_ms", 0.0), "ms")
        metrics["error_rate"] = (error_rate, "ratio")
    else:
        metrics = {name: (summary[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written") or name.endswith("source_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
