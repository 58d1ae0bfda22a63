"""One workload in a fresh interpreter: ``python -m perfbench.worker``.

Started by ``run.py``.  Once the workload is set up the worker prints
``READY <seconds>``: the CPU seconds from process start (its own and those of
processes it started) at the reference host speed, see ``clock.py``.  The
last line of standard output is a JSON summary.  Modes:

* ``probe``: set up, print ``READY``, tear down (a set-up time sample);
* ``measure``: also run rounds for ``--seconds`` and check the outputs;
* ``traced``: wrap the program's layers during set-up, then alternate
  untraced and traced rounds (untraced first and last) for ``--seconds``,
  check the outputs, and report per-layer metrics from set-up and the first
  traced round, the tracing overhead, and a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from .clock import HostSpeed, pin_to_one_cpu

WORKLOAD_NAMES = ("compile", "run", "serve")
#: Workloads that run in one process keep to one CPU (see ``clock.py``).
PINNED = ("compile", "run")


def _in_windows(span, windows) -> bool:
    return any(lo <= span.start <= hi for lo, hi in windows)


class Round:
    """One round's phases, work and wall time, and whether it was traced."""

    def __init__(self, phases, windows, traced):
        self.phases = phases
        self.work = sum(phases.values())
        self.wall = sum(hi - lo for lo, hi in windows)
        self.windows = windows
        self.traced = traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("probe", "measure", "traced"), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args(argv)

    # Sample the host's speed over set-up as over every timed window; the
    # heavy imports come after the sampler starts.
    if args.workload in PINNED:
        pin_to_one_cpu()
    setup_speed = HostSpeed().start()
    from . import layers
    from .spans import Tracer
    from .workloads import WORKLOADS

    traced = args.mode == "traced"
    tracer = Tracer(pid=os.getpid())
    if traced:
        layers.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.run_dir, traced=traced)
    setup_start = time.perf_counter()
    snapshot = None
    try:
        workload.setup()
        setup_end = time.perf_counter()
        setup_speed.stop()
        setup_cpu = workload.cpu_s() - setup_speed.thread_cpu
        setup = setup_cpu / setup_speed.slowdown()
        print(f"READY {setup!r}", flush=True)
        if args.mode == "probe":
            return 0
        if traced:
            tracer.uninstall()
            workload.set_tracing(False)

        rounds = []
        started = time.perf_counter()
        while True:
            trace_round = traced and len(rounds) % 2 == 1
            if trace_round:
                layers.install(tracer)
                workload.set_tracing(True)
            first = len(workload.windows)
            phases = workload.round()
            if trace_round:
                tracer.uninstall()
                workload.set_tracing(False)
            rounds.append(Round(phases, workload.windows[first:], trace_round))
            if len(rounds) == 1:
                # Read after the first round, so it does not depend on how
                # many rounds fit in the run.
                rss = workload.peak_rss_mb()
            if trace_round and snapshot is None:
                snapshot = (list(tracer.spans), dict(tracer.counters), workload.daemon_trace())
            done = time.perf_counter() - started >= args.seconds
            if done and (not traced or (len(rounds) >= 3 and not trace_round)):
                break
        workload.finish()
        workload.check(corrupt=args.corrupt_expected)
    finally:
        tracer.uninstall()
        workload.teardown()

    import numpy as np

    plain = [r for r in rounds if not r.traced]
    summary = {
        "workload": args.workload,
        "rounds": len(plain),
        "work_s": statistics.median(r.work for r in plain),
        "round_work_s": [r.work for r in plain],
        "wall_s": statistics.median(r.wall for r in plain),
        "setup_s": setup,
        "setup_wall_s": setup_end - setup_start,
        "host.slowdown": statistics.median(workload.slowdowns),
        "peak_rss_mb": rss,
        "ir_instrs": workload.ir_instrs,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "metrics": {
            **{key: statistics.median(r.phases[key] for r in plain) for key in plain[0].phases},
            **workload.figures,
        },
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if traced:
        traced_rounds = [r for r in rounds if r.traced]
        layer_metrics = _layer_summary(
            layers,
            tracer.pid,
            snapshot,
            (setup_start, setup_end),
            traced_rounds[0].windows,
            args.trace_file,
        )
        # The first round is often the slowest (caches and the heap warm up),
        # so traced rounds are compared with the untraced rounds after it.
        later = [r.work for r in rounds[1:] if not r.traced]
        layer_metrics["trace.overhead_frac"] = (
            statistics.median(r.work for r in traced_rounds) / statistics.median(later) - 1.0
        )
        summary["layers"] = layer_metrics
    print(json.dumps(summary), flush=True)
    return 0


def _layer_summary(layers, pid, snapshot, setup_window, traced_windows, trace_file):
    """Per-layer metrics over set-up and the first traced round, the gap of
    that round, and the Chrome trace."""
    from .spans import chrome_events, gap_seconds, spans_from_chrome, write_chrome_trace

    spans, counters, daemon = snapshot
    windows = [setup_window, *traced_windows]
    spans = [s for s in spans if _in_windows(s, windows)]
    if daemon:
        spans += [
            s for s in spans_from_chrome(daemon["traceEvents"]) if _in_windows(s, windows)
        ]
        for name, value in daemon["otherData"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    metrics = layers.per_layer(spans, counters)
    own = [s for s in spans if s.pid == pid]
    wall = sum(hi - lo for lo, hi in traced_windows)
    gap = sum(gap_seconds(own, lo, hi) for lo, hi in traced_windows)
    metrics["trace.gap_frac"] = gap / wall
    if trace_file:
        write_chrome_trace(
            trace_file,
            chrome_events(spans),
            {"setup_window": setup_window, "traced_windows": traced_windows},
        )
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
