"""Tests of the benchmark itself: spans, metric names and output checks.

The end-to-end tests start the benchmark command and take a few minutes;
they are marked slow (run them with ``-m slow``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from perfbench import layers, run
from perfbench.spans import Tracer, gap_seconds, layer_self_seconds, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _assert_nested(spans):
    by_id = {(s.pid, s.id): s for s in spans}
    for span in spans:
        assert span.start <= span.end
        if span.parent is None:
            assert span.op == span.id
            continue
        parent = by_id[(span.pid, span.parent)]
        assert parent.tid == span.tid
        assert parent.start <= span.start and span.end <= parent.end
        assert span.op == parent.op


def _assert_adds_up(spans, start, end):
    own = self_times(spans)
    total = sum(own.values()) + gap_seconds(spans, start, end)
    assert total == pytest.approx(end - start, rel=1e-9, abs=1e-9)


class _Layer:
    def outer(self, depth):
        time.sleep(0.001)
        if depth:
            self.inner(depth - 1)
            self.inner(depth - 1)
        return depth

    def inner(self, depth):
        time.sleep(0.001)
        return self.outer(depth)


def test_spans_nest_and_self_times_plus_gap_sum_to_wall_time():
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner", lambda result, *a: tracer.count("inner.calls"))
    start = time.perf_counter()
    _Layer().outer(2)
    time.sleep(0.002)
    _Layer().outer(1)
    end = time.perf_counter()
    tracer.uninstall()

    assert "outer" in vars(_Layer) and not hasattr(_Layer.outer, "__wrapped__")
    assert tracer.counters["inner.calls"] == 8
    assert len(tracer.spans) == 18
    _assert_nested(tracer.spans)
    _assert_adds_up(tracer.spans, start, end)
    assert gap_seconds(tracer.spans, start, end) >= 0.002
    seconds = layer_self_seconds(tracer.spans)
    assert set(seconds) == {"layer.outer", "layer.inner"}


def test_traced_compile_and_run_spans_nest_and_add_up():
    from repro.core import distill
    from repro.core.distill import compile_composition
    from repro.models import get_model

    original = distill.sanitize
    entry = get_model("necker_cube_s")
    tracer = Tracer(pid=os.getpid())
    layers.install(tracer)
    try:
        start = time.perf_counter()
        model = compile_composition(entry.build(), pipeline="default<O2>", store=False)
        model.run(entry.inputs(), num_trials=2, seed=1)
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    assert distill.sanitize is original

    _assert_nested(tracer.spans)
    _assert_adds_up(tracer.spans, start, end)
    metrics = layers.per_layer(tracer.spans, tracer.counters)
    assert set(metrics) == set(layers.layer_names())
    # Every span has a time metric, so the reported layer times plus the gap
    # account for the whole wall time.
    assert {s.name for s in tracer.spans} <= set(layers.TIME_LAYERS.values())
    reported = sum(metrics[name] for name in layers.TIME_LAYERS)
    gap = gap_seconds(tracer.spans, start, end)
    assert reported + gap == pytest.approx(end - start, rel=1e-9)
    for name in ("cogframe.sanitize_s", "passes.inline_s", "backends.compiled.execute_s"):
        assert metrics[name] > 0
    assert metrics["passes.inline.runs"] == 1
    assert metrics["core.codegen.ir_instrs_before"] == model.stats.instructions_before


def test_benchmark_json_names_every_printed_metric():
    bench = _benchmark()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {name: run._layer_unit(name) for name in layers.layer_names()}
    printed["trace.gap_frac"] = "ratio"
    printed["trace.overhead_frac"] = "ratio"
    printed.update({name: unit for name, (unit, _) in run.PHASES.items()})
    printed.update(run.REPORTED)
    printed["serve.client.rtt_p50_ms"] = "ms"
    printed["error_rate"] = "ratio"
    assert per_layer == printed
    assert [w["name"] for w in bench["workloads"]] == ["compile", "run", "serve"]


def test_injected_wrong_expected_value_is_counted(tmp_path, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(workloads, "SCALE_MECHANISMS", 24)
    workload = workloads.CompileWorkload(3, str(tmp_path))
    workload.setup()
    workload.suite = {"necker_cube_s": workload.suite["necker_cube_s"]}
    workload.round()
    workload.check()
    assert workload.failed == 0, workload.errors
    workload.check(corrupt=True)
    assert workload.failed == 1
    assert "params-only edit" in workload.errors[0]


def test_timed_windows_are_scaled_by_the_host_slowdown(tmp_path, monkeypatch):
    from perfbench import clock, workloads

    class Speed:
        thread_cpu = 0.5

        def start(self):
            return self

        def stop(self):
            pass

        def slowdown(self):
            return 2.0

    monkeypatch.setattr(workloads, "HostSpeed", Speed)
    cpu = iter([10.0, 13.5, 20.0, 21.5])
    monkeypatch.setattr(workloads, "process_cpu_s", lambda: next(cpu))
    workload = workloads.Workload(1, str(tmp_path))
    # (CPU seconds - the sampler's share) / slowdown
    assert workload.timed(lambda: "a") == ("a", pytest.approx(3.0 / 2.0))
    assert workload.timed(lambda: "b") == ("b", pytest.approx(1.0 / 2.0))
    assert workload.slowdowns == [2.0, 2.0]
    assert len(workload.windows) == 2

    speed = clock.HostSpeed().start()
    time.sleep(0.25)
    speed.stop()
    assert len(speed.samples) >= 2 and speed.thread_cpu >= sum(speed.samples)
    assert speed.slowdown() > 0 and len(speed.samples) >= 3


def test_run_workload_judges_every_sweep_element(tmp_path, monkeypatch):
    import repro.models
    from perfbench import workloads

    name = "necker_cube_s"
    monkeypatch.setattr(repro.models, "MODEL_REGISTRY", {name: repro.models.get_model(name)})
    monkeypatch.setattr(workloads, "SUITE_TRIALS", {name: 4})
    monkeypatch.setattr(workloads, "SWEEP_MODEL", "predator_prey_s")
    monkeypatch.setattr(workloads, "SWEEP_ELEMENTS", 4)
    workload = workloads.RunWorkload(2, str(tmp_path))
    workload.setup()
    workload.round()
    workload.round()
    workload.check()
    assert workload.failed == 0, workload.errors
    assert workload.figures["backends.lane.inexact_lanes"] >= workload.figures["backends.lane.beyond_rtol"] >= 0
    workload.check(corrupt=True)
    # The changed buffer fails both engine comparisons and the timed result.
    assert workload.failed == 3
    assert any("gpu-sim vs compiled" in e for e in workload.errors)
    assert any("lane vs compiled" in e for e in workload.errors)



def test_libm_normal_draws_match_the_scalar_draws():
    import numpy as np
    from repro.cogframe import prng

    from perfbench.workloads import libm_normal_draws

    keys = np.array([3.0, 17.0, 2.0**30, 5.0])
    counters = np.array([0.0, 8.0, 2.0, 1000.0])
    vectorized = prng.vectorized_normal
    with libm_normal_draws():
        values, new_counters = prng.vectorized_normal(keys, counters)
    assert prng.vectorized_normal is vectorized
    for key, counter, value, new_counter in zip(keys, counters, values, new_counters):
        want, want_counter = prng.normal_from_state(int(key), int(counter))
        assert value == want and new_counter == want_counter
    assert np.array_equal(new_counters, vectorized(keys, counters)[1])


def _run(workload, trace, *extra):
    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "run.py"),
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        *extra,
    ]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["compile", "run", "serve"])
def test_every_metric_is_printed_with_its_unit(workload):
    bench = _benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            for name, unit in expected.items():
                assert any(line.split()[::2] == [name, unit] for line in lines[:-1]), name
                assert result["metrics"][name]["value"] > 0


@pytest.mark.slow
def test_injected_wrong_expected_value_fails_the_run():
    proc = _run("serve", 0, "--corrupt-expected")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert any(
        line.split()[0] == "error_rate" and float(line.split()[1]) > 0
        for line in proc.stdout.splitlines()[:-1]
    )


@pytest.mark.slow
def test_exits_nonzero_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench_dir / name).write_text(open(os.path.join(ROOT, "perfbench", name)).read())
    command = [sys.executable, "perfbench/run.py", "--workload", "run", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
