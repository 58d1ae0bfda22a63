"""The three benchmark workloads: compile, run and serve.

Each workload builds its inputs from the seed in ``setup``, runs its timed
operations once per ``round`` and checks every output in ``check``.  Rounds
record the intervals they time in ``windows``; expected values are computed
outside those intervals and outside set-up.  ``attempted`` counts checked
operations and ``failed`` those that raised or whose output did not match.

Why these three: ``compile`` is dominated by pass time and the artifact store
and runs no generated code; ``run`` is dominated by generated code and the
engine kernels and compiles nothing in its timed part; ``serve`` sends small
requests, so protocol, dispatch and buffer marshalling are a large share of
its time, and it is the only workload that reaches the daemon.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .clock import HostSpeed, process_cpu_s

PIPELINE = "default<O2>"

#: Mechanisms in the generated compile model.
SCALE_MECHANISMS = 200
#: Structure seed of the compile model: ``generate_scale_spec(7)`` is the
#: figure-7 scaling spec.  O2 compile time follows the model's structure
#: (cold compiles of the specs of seeds 11-15 took 4.1-6.3 s and kept their
#: order across repeats), so ``--seed`` draws the projection weights, edit
#: sites and run seed of this one structure instead of a new structure.
SCALE_STRUCTURE_SEED = 7

#: Trials per registered non-grid model in one ``run`` round, sized so each
#: model runs for a quarter to half a second on a 2-core x86 VM.
SUITE_TRIALS = {
    "vectorized_necker_cube": 24,
    "necker_cube_s": 400,
    "necker_cube_m": 140,
    "botvinick_stroop": 800,
    "extended_stroop_a": 560,
    "extended_stroop_b": 600,
    "multitasking": 1000,
}

SWEEP_MODEL = "predator_prey_l"
SWEEP_ELEMENTS = 256
SWEEP_TRIALS = 2
SWEEP_ENGINES = ("compiled", "lane", "gpu-sim")

#: Serve request mix: one hot model at half the traffic so same-key requests
#: can coalesce, the rest spread evenly over small registered models.
SERVE_HOT = "botvinick_stroop"
SERVE_OTHERS = (
    "necker_cube_s",
    "extended_stroop_a",
    "extended_stroop_b",
    "predator_prey_s",
    "multitasking",
)
SERVE_CLIENTS = 2
#: Requests per client in one round.
SERVE_ROUND_REQUESTS = 200
#: Timed windows per round, so the host speed is sampled per window.
SERVE_CHUNKS = 4
#: Distinct run seeds a request draws from.
SERVE_RUN_SEEDS = 16


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def results_bytes(results) -> bytes:
    """The observable part of a RunResults as bytes: equal bytes mean equal
    pass counts and series lengths and bitwise-equal output and monitor
    values."""
    sizes: List[int] = []
    parts: List[np.ndarray] = []
    for trial in results.trials:
        sizes.append(trial.passes)
        parts.extend(trial.outputs.values())
        for series in trial.monitored.values():
            sizes.append(len(series))
            parts.extend(series)
    sizes.extend(np.size(part) for part in parts)
    values = np.concatenate([np.ravel(part) for part in parts]) if parts else np.empty(0)
    return np.asarray(sizes, dtype=np.int64).tobytes() + values.tobytes()


def _digest(results) -> bytes:
    return hashlib.sha256(results_bytes(results)).digest()


@contextlib.contextmanager
def libm_normal_draws():
    """Route the vectorised normal draws of the lane and gpu-sim engines
    through the scalar engines' ``normal_from_state`` (libm ``log`` and
    ``cos``) while the block runs."""
    from repro.cogframe import prng

    def draws(keys, counters):
        keys_u, counters_u = prng._coerce_states(keys, counters)
        keys_u, counters_u = np.broadcast_arrays(keys_u, counters_u)
        values = [
            prng.normal_from_state(int(key), int(counter))[0]
            for key, counter in zip(keys_u.ravel(), counters_u.ravel())
        ]
        new_counters = counters_u + np.uint64(2)
        return np.array(values, dtype=np.float64).reshape(counters_u.shape), new_counters.astype(np.float64)

    saved = prng.vectorized_normal
    prng.vectorized_normal = draws
    try:
        yield
    finally:
        prng.vectorized_normal = saved


def _triple(buffers):
    return (list(buffers["results"]), list(buffers["monitor"]), list(buffers["state"]))


def _corrupt(buffers):
    """An expected raw-buffer triple with its first result slot changed."""
    results, monitor, state = buffers
    return ([results[0] + 1.0, *results[1:]], monitor, state)


def _corrupt_results(results):
    results = copy.deepcopy(results)
    trial = results.trials[0]
    node = next(iter(trial.outputs))
    trial.outputs[node] = trial.outputs[node] + 1.0
    return results


class Workload:
    name = ""

    def __init__(self, seed: int, run_dir: str, traced: bool = False):
        self.seed = seed
        self.run_dir = run_dir
        self.traced = traced
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.windows: List[Tuple[float, float]] = []
        #: The host's slowdown measured around each timed window.
        self.slowdowns: List[float] = []
        #: Workload-specific figures, filled by ``finish`` and ``check``.
        self.figures: Dict[str, float] = {}
        self.ir_instrs = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def release(self, *attrs: str) -> None:
        """Drop the previous round's outputs before the next round starts, so
        peak memory does not depend on how many rounds fit in a run."""
        for attr in attrs:
            setattr(self, attr, None)
        gc.collect()

    def helper_cpu_s(self) -> float:
        """CPU seconds used so far by processes the workload started."""
        return 0.0

    def cpu_s(self) -> float:
        return process_cpu_s() + self.helper_cpu_s()

    def timed(self, fn):
        """Run ``fn`` in a timed window while the host's speed is sampled.

        Returns the result and the window's CPU seconds at the reference
        host speed (see ``clock.py``)."""
        speed = HostSpeed()
        start, cpu = time.perf_counter(), self.cpu_s()
        speed.start()
        result = fn()
        speed.stop()
        cpu, end = self.cpu_s() - cpu - speed.thread_cpu, time.perf_counter()
        factor = speed.slowdown()
        self.windows.append((start, end))
        self.slowdowns.append(factor)
        return result, cpu / factor

    def set_tracing(self, on: bool) -> None:
        """Called when the traced run switches its wrappers on or off."""
        self.tracing = on

    def daemon_trace(self) -> Optional[dict]:
        """Spans and counters recorded so far by a traced helper process."""
        return None

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Dict[str, float]:
        """Run the timed operations once; returns seconds per phase."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def finish(self) -> None:
        """Tear down after the last round."""

    def check(self, corrupt: bool = False) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release processes and files (also after a failure)."""


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def seeded_weights(spec, rng: random.Random):
    """A copy of ``spec`` whose matrix weights are rescaled by seeded factors
    in [0.8, 1.25].  Weights of 0 and +-1, which the optimiser can fold, are
    kept, so the model's structure and IR shape do not change."""
    spec = copy.deepcopy(spec)
    for projection in spec.projections:
        if isinstance(projection.matrix, list):
            projection.matrix = [
                [v if v in (0, 1, -1) else round(v * rng.uniform(0.8, 1.25), 9) for v in row]
                for row in projection.matrix
            ]
    return spec


def scale_edit_specs(spec, rng: random.Random):
    """Two single-edit copies of ``spec`` at seeded sites.

    The parameter edit scales one buffer-loaded function parameter, which
    ``recompile`` resolves without re-lowering ("params-only"); the
    projection edit scales one baked matrix, which re-lowers the receiver
    ("patched").
    """
    param_edit = copy.deepcopy(spec)
    sites = [
        (mech, key)
        for mech in param_edit.mechanisms
        if not mech.is_input
        for key, value in mech.function.params.items()
        if key != "non_negative" and isinstance(value, float) and value
    ]
    mech, key = rng.choice(sites)
    mech.function.params[key] = round(mech.function.params[key] * 1.25, 9)

    proj_edit = copy.deepcopy(spec)
    projections = [
        p
        for p in proj_edit.projections
        if isinstance(p.matrix, list) and any(v for row in p.matrix for v in row)
    ]
    projection = rng.choice(projections)
    projection.matrix = [[round(v * 1.25, 9) for v in row] for row in projection.matrix]
    return param_edit, proj_edit


class CompileWorkload(Workload):
    """Cold compile into an empty store, warm compile from it, two edits,
    then a cold compile of every registered model with the store off."""

    name = "compile"

    def setup(self) -> None:
        from repro.fuzz.gen import generate_scale_spec
        from repro.models import MODEL_REGISTRY

        rng = random.Random(self.seed)
        self.spec = seeded_weights(
            generate_scale_spec(SCALE_STRUCTURE_SEED, n_mechanisms=SCALE_MECHANISMS), rng
        )
        self.param_spec, self.proj_spec = scale_edit_specs(self.spec, rng)
        self.run_seed = rng.randrange(1 << 16)
        self.suite = dict(MODEL_REGISTRY)
        self.edited: List[Tuple[object, object]] = []
        self.rounds = 0
        self.last = None

    def _raw(self, model):
        from repro.fuzz.compare import raw_buffers

        return raw_buffers(model, self.spec.inputs, self.spec.num_trials, self.run_seed, "compiled")

    def round(self) -> Dict[str, float]:
        from repro.core.distill import compile_composition
        from repro.driver.artifacts import ArtifactStore
        from repro.driver.session import Session

        self.release("last")
        cold_composition = self.spec.build()
        warm_composition = self.spec.build()
        param_composition = self.param_spec.build()
        proj_composition = self.proj_spec.build()
        suite = {name: entry.build() for name, entry in self.suite.items()}
        store_dir = os.path.join(self.run_dir, f"store-{self.rounds}")
        store = ArtifactStore(store_dir)
        self.rounds += 1

        cold, cold_s = self.timed(
            lambda: Session(store=store).compile_model(cold_composition, pipeline=PIPELINE)
        )
        warm, warm_s = self.timed(
            lambda: Session(store=store).compile_model(warm_composition, pipeline=PIPELINE)
        )
        self.attempted += 2
        if warm.stats.artifact_hits < 1:
            self.fail("warm compile missed the artifact store")
        if cold.print_ir() != warm.print_ir():
            self.fail("warm and cold compiles print different IR")
        instrs = cold.stats.instructions_after

        edit_s = 0.0
        buffers = []
        for mode, composition in (("params-only", param_composition), ("patched", proj_composition)):
            report, seconds = self.timed(
                lambda: cold.recompile(composition=composition, store=False)
            )
            edit_s += seconds
            self.attempted += 1
            if report["mode"] != mode:
                self.fail(f"{mode} edit took the {report['mode']} path")
            buffers.append(self._raw(cold))
        self.edited.append(tuple(buffers))

        suite_s = 0.0
        compiled = {}
        for name, composition in suite.items():
            compiled[name], seconds = self.timed(
                lambda: compile_composition(composition, pipeline=PIPELINE, store=False)
            )
            suite_s += seconds
            instrs += compiled[name].stats.instructions_after
        self.attempted += len(suite)
        self.ir_instrs = instrs
        self.last = (cold, compiled)
        shutil.rmtree(store_dir, ignore_errors=True)
        return {
            "cold_compile_s": cold_s,
            "warm_compile_s": warm_s,
            "edit_recompile_s": edit_s,
            "suite_compile_s": suite_s,
        }

    def check(self, corrupt: bool = False) -> None:
        from repro.cogframe.runner import ReferenceRunner
        from repro.core.distill import compile_composition
        from repro.fuzz.compare import buffers_equal, final_rng_counters
        from repro.fuzz.oracle import _compare_reference

        expected = []
        for spec in (self.param_spec, self.proj_spec):
            model = compile_composition(spec.build(), pipeline=PIPELINE, store=False)
            expected.append((model, self._raw(model)))
        if corrupt:
            expected[0] = (expected[0][0], _corrupt(expected[0][1]))
        for index, observed in enumerate(self.edited):
            for label, (model, want), got in zip(("params-only", "patched"), expected, observed):
                mismatch = buffers_equal(want, got)
                if mismatch is None and final_rng_counters(model, want[2]) != final_rng_counters(
                    model, got[2]
                ):
                    mismatch = "final PRNG counters differ"
                if mismatch:
                    self.fail(f"round {index} {label} edit vs cold compile: {mismatch}")

        # Reference sample: the patched scale model and one seeded suite model.
        rng = random.Random(self.seed + 1)
        patched, suite = self.last
        name = rng.choice(sorted(suite))
        entry = self.suite[name]
        samples = [
            (patched, self.proj_spec.build, self.spec.inputs, self.spec.num_trials),
            (suite[name], entry.build, entry.inputs(), entry.num_trials),
        ]
        for model, build, inputs, trials in samples:
            got = model.run(inputs, num_trials=trials, seed=self.run_seed)
            want = ReferenceRunner(build(), seed=self.run_seed).run(inputs, num_trials=trials)
            detail = _compare_reference(want, got)
            if detail:
                self.fail(f"reference check of {model.composition.name}: {detail}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class RunWorkload(Workload):
    """Registered models and a lane/gpu-sim sweep on warm engines."""

    name = "run"

    def setup(self) -> None:
        from repro.cogframe.mechanisms import GridSearchControlMechanism
        from repro.driver.session import Session
        from repro.models import MODEL_REGISTRY
        from repro.models.registry import predator_prey_variant

        rng = np.random.default_rng(self.seed)
        session = Session(store=False)
        self.suite = []
        for name, entry in MODEL_REGISTRY.items():
            composition = entry.build()
            if any(isinstance(m, GridSearchControlMechanism) for m in composition.mechanisms.values()):
                continue
            instance = session.compile(composition, target="compiled", pipeline=PIPELINE)
            inputs = entry.inputs()
            instance.run(inputs, num_trials=1, seed=0)
            seed = int(rng.integers(1 << 31))
            self.suite.append((name, entry, instance, inputs, SUITE_TRIALS[name], seed))
            self.ir_instrs += instance.model.stats.instructions_after

        self.sweep_entry = predator_prey_variant(SWEEP_MODEL.rsplit("_", 1)[1])
        self.sweep_batch = [
            [
                {
                    key: rng.uniform(-5, 5, size=2)
                    for key in ("player_loc", "predator_loc", "prey_loc")
                }
            ]
            for _ in range(SWEEP_ELEMENTS)
        ]
        self.sweep_seeds = [int(s) for s in rng.integers(1 << 31, size=SWEEP_ELEMENTS)]
        composition = self.sweep_entry.build()
        self.sweep = {}
        for engine in SWEEP_ENGINES:
            instance = session.compile(composition, target=engine, pipeline=PIPELINE)
            instance.run_batch(self.sweep_batch[:2], num_trials=SWEEP_TRIALS, seed=self.sweep_seeds[:2])
            self.sweep[engine] = instance
        self.ir_instrs += self.sweep["compiled"].model.stats.instructions_after
        self.suite_results: Dict[str, object] = {}
        self.sweep_results: Dict[str, object] = {}
        self.first_digests: Optional[Dict[Tuple[str, object], bytes]] = None

    def round(self) -> Dict[str, float]:
        self.release("suite_results", "sweep_results")
        suite_s = 0.0
        results = {}
        for name, _entry, instance, inputs, trials, seed in self.suite:
            results[name], seconds = self.timed(
                lambda: instance.run(inputs, num_trials=trials, seed=seed)
            )
            suite_s += seconds
        self.attempted += len(self.suite)
        self.suite_results = results

        phases = {"suite_run_s": suite_s}
        sweep = {}
        for engine in SWEEP_ENGINES:
            instance = self.sweep[engine]
            sweep[engine], phases[f"sweep_{engine.split('-')[0]}_s"] = self.timed(
                lambda: instance.run_batch(
                    self.sweep_batch, num_trials=SWEEP_TRIALS, seed=self.sweep_seeds
                )
            )
        self.attempted += len(SWEEP_ENGINES) * SWEEP_ELEMENTS
        self.sweep_results = sweep

        # Every round's outputs must repeat the first round's bitwise;
        # ``check`` then judges the last round's.
        digests = {("suite", name): _digest(r) for name, r in results.items()}
        for engine, elements in sweep.items():
            digests.update(((engine, i), _digest(r)) for i, r in enumerate(elements))
        if self.first_digests is None:
            self.first_digests = digests
        for key, digest in digests.items():
            if digest != self.first_digests[key]:
                self.fail(f"{key[0]} {key[1]}: output differs from the first round's")
        return phases

    def check(self, corrupt: bool = False) -> None:
        from repro.cogframe.runner import ReferenceRunner
        from repro.fuzz.compare import buffers_equal, final_rng_counters
        from repro.fuzz.oracle import _compare_reference

        # Re-run every sweep element on raw buffers.  gpu-sim must equal
        # compiled bitwise (repro.fuzz.compare), and both engines' final PRNG
        # counters must agree exactly.  Lane elements that are not bitwise
        # equal are judged by ``_judge_inexact_lanes``.
        model = self.sweep["compiled"].model
        raw = {}
        for engine in SWEEP_ENGINES:
            elements = [
                (
                    model.allocate_buffers(self.sweep_batch[i], SWEEP_TRIALS, self.sweep_seeds[i]),
                    SWEEP_TRIALS,
                )
                for i in range(SWEEP_ELEMENTS)
            ]
            self.sweep[engine].execute_batch(elements)
            raw[engine] = [buffers for buffers, _ in elements]
        if corrupt:
            raw["compiled"][0]["results"][0] += 1.0
        inexact = []
        for index in range(SWEEP_ELEMENTS):
            base = _triple(raw["compiled"][index])
            counters = final_rng_counters(model, base[2])
            for engine in ("gpu-sim", "lane"):
                other = _triple(raw[engine][index])
                mismatch = buffers_equal(base, other)
                if final_rng_counters(model, other[2]) != counters:
                    mismatch = "final PRNG counters differ"
                elif mismatch and engine == "lane":
                    inexact.append(index)
                    continue
                if mismatch:
                    self.fail(f"sweep element {index}, {engine} vs compiled: {mismatch}")
            # The timed results are the ones these buffers collect into.
            for engine in SWEEP_ENGINES:
                rerun = model._collect_results(raw[engine][index], SWEEP_TRIALS, engine)
                if _digest(self.sweep_results[engine][index]) != _digest(rerun):
                    self.fail(f"sweep element {index} on {engine}: timed result differs from its re-run")
        self._judge_inexact_lanes(model, raw, inexact)

        # Reference sample: one sweep element and the first trials of every
        # suite model.
        rng = random.Random(self.seed + 1)
        index = rng.randrange(SWEEP_ELEMENTS)
        got = self.sweep_results["compiled"][index]
        want = ReferenceRunner(self.sweep_entry.build(), seed=self.sweep_seeds[index]).run(
            self.sweep_batch[index], num_trials=SWEEP_TRIALS
        )
        detail = _compare_reference(want, got)
        if detail:
            self.fail(f"reference check of sweep element {index}: {detail}")
        for name, entry, _instance, inputs, _trials, seed in self.suite:
            got = self.suite_results[name]
            want = ReferenceRunner(entry.build(), seed=seed).run(inputs, num_trials=3)
            got.trials = got.trials[:3]
            detail = _compare_reference(want, got)
            if detail:
                self.fail(f"reference check of {name}: {detail}")

    def _judge_inexact_lanes(self, model, raw, inexact) -> None:
        """Judge the lane elements that are not bitwise equal to compiled.

        The lane engine draws normals through numpy's ``log`` and ``cos``,
        which may differ from libm's in the last ulp (the documented lane
        exception), and a model can widen that ulp: a difference of nearly
        equal values keeps the absolute error but not the relative one.
        Such an element is re-run on lane with its normal draws routed
        through the scalar engines' ``normal_from_state`` and must then equal
        compiled bitwise, which leaves the numpy kernels as the only
        difference; the timed values must also agree with compiled within
        the oracle's reference tolerance.  ``backends.lane.inexact_lanes``
        counts these elements, and ``backends.lane.beyond_rtol`` the ones
        the oracle's lane rule (``LANE_RTOL``, no absolute tolerance) rejects.
        """
        from repro.fuzz.compare import buffers_equal
        from repro.fuzz.oracle import _compare_reference, _lane_buffers_equal

        beyond = 0
        elements = [
            (model.allocate_buffers(self.sweep_batch[i], SWEEP_TRIALS, self.sweep_seeds[i]), SWEEP_TRIALS)
            for i in inexact
        ]
        if elements:
            with libm_normal_draws():
                self.sweep["lane"].execute_batch(elements)
        for index, (buffers, _) in zip(inexact, elements):
            base, lane = raw["compiled"][index], raw["lane"][index]
            if _lane_buffers_equal(_triple(base), _triple(lane)) is not None:
                beyond += 1
            mismatch = buffers_equal(_triple(base), _triple(buffers))
            detail = _compare_reference(
                model._collect_results(base, SWEEP_TRIALS, "compiled"),
                model._collect_results(lane, SWEEP_TRIALS, "lane"),
            )
            if mismatch:
                self.fail(f"sweep element {index}, lane vs compiled with libm normal draws: {mismatch}")
            elif detail:
                self.fail(f"sweep element {index}, lane vs compiled beyond the reference tolerance: {detail}")
        self.figures["backends.lane.inexact_lanes"] = len(inexact)
        self.figures["backends.lane.beyond_rtol"] = beyond


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    """A closed loop of 2 clients, 1 connection each, against the daemon."""

    name = "serve"

    def setup(self) -> None:
        from repro.models import MODEL_REGISTRY
        from repro.serve import ServeClient, wait_for_server

        self.proc = None
        self.clients = []
        os.makedirs(self.run_dir, exist_ok=True)
        # AF_UNIX paths are limited to ~108 bytes: keep the socket relative.
        self.socket = os.path.relpath(os.path.join(self.run_dir, "serve.sock"))
        self.trace_out = os.path.join(self.run_dir, "daemon-trace.json")
        serve_args = [
            "--socket",
            self.socket,
            "--artifact-dir",
            os.path.join(self.run_dir, "daemon-store"),
        ]
        if self.traced:
            command = [sys.executable, "-m", "perfbench.serve_daemon", self.trace_out, *serve_args]
        else:
            command = [sys.executable, "-m", "repro.serve", *serve_args]
        self.proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        wait_for_server(self.socket, timeout=60.0)

        self.models = {name: MODEL_REGISTRY[name] for name in (SERVE_HOT, *SERVE_OTHERS)}
        self.inputs = {name: entry.inputs() for name, entry in self.models.items()}
        self.clients = [ServeClient(self.socket, timeout=60.0) for _ in range(SERVE_CLIENTS)]
        for name, entry in self.models.items():
            self.clients[0].run(name, self.inputs[name], num_trials=entry.num_trials, seed=0)
        self.streams = [random.Random(f"{self.seed}/{client}") for client in range(SERVE_CLIENTS)]
        self.served: List[Tuple[str, int, object]] = []
        self.latencies: List[float] = []
        self.busy_seconds = 0.0
        self.toggles = 0

    def _request(self, stream: random.Random) -> Tuple[str, int]:
        name = SERVE_HOT if stream.random() < 0.5 else stream.choice(SERVE_OTHERS)
        return name, stream.randrange(SERVE_RUN_SEEDS)

    def round(self) -> Dict[str, float]:
        gc.collect()
        requests = [
            [self._request(stream) for _ in range(SERVE_ROUND_REQUESTS)] for stream in self.streams
        ]
        errors: List[str] = []

        def loop(client, plan, out):
            for name, seed in plan:
                start = time.perf_counter()
                try:
                    results = client.run(
                        name,
                        self.inputs[name],
                        num_trials=self.models[name].num_trials,
                        seed=seed,
                    )
                except Exception as exc:  # noqa: BLE001 - counted as a failed request
                    results = None
                    errors.append(f"{name} seed {seed}: {type(exc).__name__}: {exc}")
                out.append((name, seed, results, time.perf_counter() - start))

        def closed_loop(plans, outcomes):
            threads = [
                threading.Thread(target=loop, args=args)
                for args in zip(self.clients, plans, outcomes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        work = 0.0
        size = SERVE_ROUND_REQUESTS // SERVE_CHUNKS
        for chunk in range(SERVE_CHUNKS):
            plans = [plan[chunk * size : (chunk + 1) * size] for plan in requests]
            outcomes: List[List[Tuple[str, int, object, float]]] = [[] for _ in self.clients]
            _, seconds = self.timed(lambda: closed_loop(plans, outcomes))
            work += seconds
            start, end = self.windows[-1]
            for out in outcomes:
                for name, seed, results, latency in out:
                    self.attempted += 1
                    if results is not None:
                        self.served.append((name, seed, results))
                    # Latency and rate come from untraced rounds only.
                    if not self.tracing:
                        self.latencies.append(latency)
            if not self.tracing:
                self.busy_seconds += end - start
        for message in errors:
            self.fail(message)
        return {"requests_s": work}

    def helper_cpu_s(self) -> float:
        return process_cpu_s(self.proc.pid)

    def set_tracing(self, on: bool) -> None:
        """Switch the traced daemon's wrappers too, and wait until it has."""
        super().set_tracing(on)
        if not self.traced:
            return
        self.toggles += 1
        want = f"{'on' if on else 'off'} {self.toggles}"
        os.kill(self.proc.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with open(self.trace_out + ".state") as fh:
                    if fh.read() == want:
                        return
            except FileNotFoundError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("the traced daemon did not switch its wrappers")
            time.sleep(0.005)

    def daemon_trace(self) -> Optional[dict]:
        if not self.traced:
            return None
        with open(self.trace_out) as fh:
            return json.load(fh)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def finish(self) -> None:
        stats = self.clients[0].stats()
        latencies = sorted(self.latencies)

        def percentile(q):
            return latencies[min(len(latencies) - 1, int(q * len(latencies)))] * 1000.0

        requests = stats["requests"]
        self.teardown()
        self.figures.update(
            {
                "serve_p50_ms": percentile(0.50),
                "serve_p99_ms": percentile(0.99),
                "serve_rps": len(latencies) / self.busy_seconds,
                "serve.daemon.latency_p50_ms": stats["latency_ms"]["p50_ms"],
                "serve.coalesce.rate": stats["coalesce"]["rate"],
                "serve.dispatches": stats["coalesce"]["dispatches"],
                "serve.max_batch": stats["coalesce"]["max_batch"],
                "serve.rejected": requests["rejected_busy"]
                + requests["rejected_deadline"]
                + requests["rejected_draining"],
                "serve.samples_beyond_p99": len(latencies) - int(0.99 * len(latencies)) - 1,
            }
        )

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def check(self, corrupt: bool = False) -> None:
        from repro.cogframe.runner import ReferenceRunner
        from repro.driver.session import Session
        from repro.fuzz.oracle import _compare_reference

        session = Session(store=False)
        instances = {
            name: session.compile(entry.build(), target="compiled", pipeline=PIPELINE)
            for name, entry in self.models.items()
        }
        self.ir_instrs = sum(i.model.stats.instructions_after for i in instances.values())
        expected = {}
        expected_bytes = {}
        for name, seed, results in self.served:
            key = (name, seed)
            if key not in expected:
                expected[key] = instances[name].run(
                    self.inputs[name], num_trials=self.models[name].num_trials, seed=seed
                )
                if corrupt and len(expected) == 1:
                    expected[key] = _corrupt_results(expected[key])
                expected_bytes[key] = results_bytes(expected[key])
            if results_bytes(results) != expected_bytes[key]:
                self.fail(f"served {name} seed {seed} differs bitwise from a solo run")

        rng = random.Random(self.seed + 1)
        for name, seed in rng.sample(sorted(expected), min(3, len(expected))):
            want = ReferenceRunner(self.models[name].build(), seed=seed).run(
                self.inputs[name], num_trials=self.models[name].num_trials
            )
            detail = _compare_reference(want, expected[(name, seed)])
            if detail:
                self.fail(f"reference check of {name} seed {seed}: {detail}")


WORKLOADS = {cls.name: cls for cls in (CompileWorkload, RunWorkload, ServeWorkload)}
