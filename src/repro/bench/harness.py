"""Benchmark harness: regenerate every table and figure of the evaluation.

Each ``figureN_report`` function reproduces one figure of the paper's
evaluation section and returns a :class:`FigureReport` whose rows mirror the
series plotted in the paper.  Absolute times differ from the paper's (this
reproduction executes compiled *Python*, not native code, on a container
instead of the paper's i7-8700 + GTX 1060), so every report also records the
paper's reference numbers where applicable; EXPERIMENTS.md discusses the
comparison.  The ``benchmarks/`` directory wraps these reports in
pytest-benchmark entry points.

All reports compile through one shared :class:`repro.Session`
(:data:`SESSION`), so a model that several figures rebuild (e.g. the medium
predator-prey variant) is compiled once per pipeline and reused — see
DESIGN.md, "Sessions and caching".
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import CloneDetector, Interval, MeshRefiner
from ..cogframe import ReferenceRunner
from ..cogframe.functions import DriftDiffusionIntegrator, LeakyCompetingIntegrator
from ..core.distill import CompiledModel, compile_composition
from ..core.specialize import emit_library_function, specialize_on_buffer
from ..backends.gpu_sim import GpuOccupancyModel
from ..models import FIGURE4_MODELS, get_model, predator_prey_variant
from ..models import predator_prey as pp_model
from ..driver.session import Session


#: Shared compilation session: structurally identical models rebuilt by
#: different figures hit the artifact cache instead of recompiling.
SESSION = Session()


@dataclass
class FigureReport:
    """Rows regenerating one figure/table of the paper."""

    figure: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def format_table(self) -> str:
        if not self.rows:
            return f"{self.figure}: {self.title}\n  (no rows)"
        columns = list(self.rows[0].keys())
        widths = {
            c: max(len(str(c)), *(len(_fmt(row.get(c))) for row in self.rows)) for c in columns
        }
        lines = [f"{self.figure}: {self.title}"]
        lines.append("  " + " | ".join(str(c).ljust(widths[c]) for c in columns))
        lines.append("  " + "-+-".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append(
                "  " + " | ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns)
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _time_call(fn: Callable[[], object], repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Figure 4 — running time of the model suite across engines
# ---------------------------------------------------------------------------

#: Paper speedups of CPython-DISTILL over CPython, eyeballed from Figure 4's
#: log-scale bars; used only for the paper-vs-measured comparison column.
PAPER_FIG4_SPEEDUPS = {
    "vectorized_necker_cube": 10.0,
    "necker_cube_s": 10.0,
    "necker_cube_m": 20.0,
    "predator_prey_s": 15.0,
    "botvinick_stroop": 778.0,
    "extended_stroop_a": 100.0,
    "extended_stroop_b": 100.0,
    "multitasking": 20.0,
}


def figure4_report(
    models: Optional[Sequence[str]] = None,
    trials_scale: float = 1.0,
    engines: Sequence[str] = ("reference", "ir-interp", "per-node", "compiled"),
) -> FigureReport:
    """Normalised running times of the model suite (paper Figure 4).

    Engine mapping (see DESIGN.md): ``reference`` = CPython/PsyNeuLink,
    ``ir-interp`` = generic JIT stand-in (PyPy/Pyston), ``per-node`` =
    CPython-DISTILL-per-node, ``compiled`` = CPython-DISTILL.
    """
    report = FigureReport("Figure 4", "Model suite running time, normalised to the reference runner")
    speedups = []
    for name in models or FIGURE4_MODELS:
        entry = get_model(name)
        composition = entry.build()
        inputs = entry.inputs()
        trials = max(int(entry.num_trials * trials_scale), 1)

        timings: Dict[str, float] = {}
        if "reference" in engines:
            runner = ReferenceRunner(entry.build(), seed=0)
            timings["reference"] = _time_call(lambda: runner.run(inputs, num_trials=trials))
        compiled = SESSION.compile_model(composition)
        for engine in engines:
            if engine == "reference":
                continue
            timings[engine] = _time_call(
                lambda e=engine: compiled.run(inputs, num_trials=trials, seed=0, engine=e)
            )
        base = timings.get("reference", 1.0)
        speedup = base / timings["compiled"] if "compiled" in timings else float("nan")
        speedups.append(speedup)
        report.add(
            model=name,
            trials=trials,
            **{f"{k}_s": v for k, v in timings.items()},
            **{f"norm_{k}": (v / base) for k, v in timings.items() if k != "reference"},
            distill_speedup=speedup,
            paper_speedup=PAPER_FIG4_SPEEDUPS.get(name, float("nan")),
        )
    report.add(
        model="average",
        trials="-",
        distill_speedup=float(np.mean(speedups)),
        paper_speedup=26.0,
    )
    report.note(
        "PyPy/Pyston cannot be installed offline; the IR interpreter plays the "
        "generic-JIT role and, like PyPy in the paper, is slower than the baseline."
    )
    report.note(
        "The paper's Multitasking model cannot run under PyPy/Pyston at all; here "
        "every engine runs it because the minitorch network is lowered to the same IR."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 5a — predator-prey scaling
# ---------------------------------------------------------------------------


def figure5a_report(
    variants: Sequence[str] = ("s", "m", "l"),
    include_xl: bool = True,
    xl_levels: int = 100,
    baseline_level_cap: int = 6,
) -> FigureReport:
    """Predator-prey scaling S/M/L/XL (paper Figure 5a).

    The reference runner is only measured up to ``baseline_level_cap`` levels
    per entity (the paper's CPython run of XL did not finish in 24 hours);
    its XL time is extrapolated from the measured cost per evaluation.
    """
    report = FigureReport("Figure 5a", "Predator-prey scaling: reference vs Distill")
    inputs = pp_model.default_inputs(1)
    per_eval_seconds = None
    for variant in variants:
        levels = pp_model.VARIANT_LEVELS[variant]
        entry = predator_prey_variant(variant)
        composition = entry.build()
        evaluations = levels ** 3 * composition.max_passes
        reference_time = float("nan")
        if levels <= baseline_level_cap:
            runner = ReferenceRunner(entry.build(), seed=0)
            reference_time = _time_call(lambda: runner.run(inputs, num_trials=1))
            per_eval_seconds = reference_time / evaluations
        compiled = SESSION.compile_model(composition)
        compiled_time = _time_call(
            lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
        )
        speedup = (
            (reference_time / compiled_time)
            if reference_time == reference_time
            else float("nan")
        )
        report.add(
            variant=variant.upper(),
            levels_per_entity=levels,
            evaluations=evaluations,
            reference_s=reference_time,
            distill_s=compiled_time,
            speedup=speedup,
            regression=bool(speedup < 1.0),
        )
    if include_xl:
        levels = xl_levels
        composition = pp_model.build_predator_prey(levels_per_entity=levels)
        evaluations = levels ** 3 * composition.max_passes
        estimated_reference = (
            per_eval_seconds * evaluations if per_eval_seconds is not None else float("nan")
        )
        compiled = SESSION.compile_model(composition)
        compiled_time = _time_call(
            lambda: compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim")
        )
        serial_time = float("nan")
        if levels <= 40:
            serial_time = _time_call(
                lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
            )
        xl_speedup = (
            (estimated_reference / compiled_time)
            if estimated_reference == estimated_reference
            else float("nan")
        )
        report.add(
            variant="XL",
            levels_per_entity=levels,
            evaluations=evaluations,
            reference_s=estimated_reference,
            distill_s=serial_time if serial_time == serial_time else compiled_time,
            speedup=xl_speedup,
            regression=bool(xl_speedup < 1.0),
        )
        report.note(
            "XL reference time is extrapolated from the measured per-evaluation cost "
            "(the paper's CPython XL run did not finish within 24 hours either)."
        )
    regressed = [row["variant"] for row in report.rows if row.get("regression")]
    if regressed:
        winners = [
            row["variant"]
            for row in report.rows
            if not row.get("regression") and row["speedup"] == row["speedup"]
        ]
        report.note(
            f"compilation overhead dominates the smallest grids: {', '.join(regressed)} "
            f"run slower compiled than interpreted (speedup < 1), and the crossover "
            f"sits between {regressed[-1]} and {winners[0] if winners else '?'} — "
            "distill wins as the evaluation count grows, not uniformly."
        )
    return report


# ---------------------------------------------------------------------------
# Figure 5b — per-node vs whole-model compilation
# ---------------------------------------------------------------------------


def figure5b_report(cycles: int = 100, trials: int = 20) -> FigureReport:
    """Botvinick Stroop: per-node vs whole-model compilation (Figure 5b)."""
    from ..models import stroop

    report = FigureReport("Figure 5b", "Botvinick Stroop: importance of model-wide optimisation")
    inputs = stroop.default_inputs("incongruent")
    build = lambda: stroop.build_botvinick_stroop(cycles=cycles)  # noqa: E731

    runner = ReferenceRunner(build(), seed=0)
    reference = _time_call(lambda: runner.run(inputs, num_trials=trials))
    compiled = SESSION.compile_model(build())
    per_node = _time_call(
        lambda: compiled.run(inputs, num_trials=trials, seed=0, engine="per-node")
    )
    whole = _time_call(
        lambda: compiled.run(inputs, num_trials=trials, seed=0, engine="compiled")
    )
    for label, seconds, paper_speedup in (
        ("reference (CPython)", reference, 1.0),
        ("Distill per-node", per_node, 3.4),
        ("Distill whole-model", whole, 778.0),
    ):
        report.add(
            configuration=label,
            seconds=seconds,
            normalised=seconds / reference,
            speedup=reference / seconds,
            paper_speedup=paper_speedup,
        )
    return report


# ---------------------------------------------------------------------------
# Figure 5b (lanes) — batched execution: scalar compiled vs the lane engine
# ---------------------------------------------------------------------------

#: Workload table for :func:`figure5b_lane_report`.  Each entry is
#: ``(name, build, inputs, lanes, trials, gate)``; ``gate=True`` rows are the
#: loop-heavy grid-search workloads the CI speedup floor is asserted over,
#: the rest are context (settling-style models vectorise less profitably).
def _fig5b_lane_workloads(quick: bool):
    from ..models import necker

    pp_inputs = pp_model.default_inputs(1)
    if quick:
        return [
            ("predator_prey_m", lambda: pp_model.build_predator_prey("m"), pp_inputs, 1024, 2, True),
            ("predator_prey_l", lambda: pp_model.build_predator_prey("l"), pp_inputs, 512, 2, True),
        ]
    return [
        ("predator_prey_m", lambda: pp_model.build_predator_prey("m"), pp_inputs, 1024, 2, True),
        ("predator_prey_l", lambda: pp_model.build_predator_prey("l"), pp_inputs, 1024, 2, True),
        ("predator_prey_l", lambda: pp_model.build_predator_prey("l"), pp_inputs, 8, 2, False),
        ("necker_cube_s", necker.build_necker_cube_s, necker.default_inputs(3), 1024, 2, False),
    ]


def figure5b_lane_report(quick: bool = False) -> FigureReport:
    """Batched ``run_batch``: scalar compiled vs the vectorised lane engine.

    A repro-only extension of Figure 5: every batch element becomes one SIMT
    lane of a numpy array program (see DESIGN.md, "Lane backend"), so the
    speedup over the scalar compiled engine grows with the batch size.  The
    8-lane predator-prey row documents the other side of the crossover — at
    small batches the masked whole-batch sweeps cost more than they save, and
    the row is flagged ``regression`` exactly like Figure 5a's S variant.
    """
    report = FigureReport(
        "Figure 5b (lanes)",
        "Batched grid-search execution: scalar compiled vs the lane engine",
    )
    for name, build, inputs, lanes, trials, gate in _fig5b_lane_workloads(quick):
        compiled = SESSION.compile_model(build())
        scalar = compiled.engine_instance("compiled")
        lane = compiled.engine_instance("lane")
        batch = [inputs] * lanes
        seeds = list(range(lanes))
        # Warm both engines (lane codegen is lazy; timing measures execution).
        scalar.run_batch(batch[:2], num_trials=trials, seed=seeds[:2])
        lane.run_batch(batch[:2], num_trials=trials, seed=seeds[:2])
        scalar_s = _time_call(
            lambda: scalar.run_batch(batch, num_trials=trials, seed=seeds)
        )
        lane_s = _time_call(
            lambda: lane.run_batch(batch, num_trials=trials, seed=seeds)
        )
        speedup = scalar_s / lane_s
        report.add(
            workload=name,
            lanes=lanes,
            trials=trials,
            compiled_s=scalar_s,
            lane_s=lane_s,
            speedup=speedup,
            lane_fallbacks=len(lane.lane_fallbacks),
            gate=gate,
            regression=bool(speedup < 1.0),
        )
    report.note(
        "Lanes are batch elements: the lane engine stacks every element's "
        "buffers into (n_lanes, slots) arrays and runs the masked array "
        "program once; rows with gate=true carry the CI speedup floor."
    )
    regressed = [
        f"{row['workload']}@{row['lanes']}" for row in report.rows if row["regression"]
    ]
    if regressed:
        report.note(
            f"regression rows ({', '.join(regressed)}): below the batch-size "
            "crossover the masked sweeps cost more than the per-element loop."
        )
    return report


# ---------------------------------------------------------------------------
# Figure 5c — parallel / GPU execution of Predator-Prey XL
# ---------------------------------------------------------------------------


def figure5c_report(
    levels_per_entity: int = 20, workers: int = 2, batch_size: int = 2
) -> FigureReport:
    """Serial vs multicore vs (simulated) GPU execution of the grid search.

    The mCPU rows run on a *persistent* engine instance: the worker pool is
    built once and reused across every timed ``run()``/``run_batch()`` call
    (``pool_starts`` proves it — it stays at 1 however many rows are timed).
    The first mCPU row therefore pays pool start-up; the warm row and the
    batched row show the amortised cost.
    """
    report = FigureReport(
        "Figure 5c", f"Predator-Prey parallel execution ({levels_per_entity}^3 evaluations/pass)"
    )
    composition = pp_model.build_predator_prey(levels_per_entity=levels_per_entity)
    inputs = pp_model.default_inputs(1)
    compiled = SESSION.compile_model(composition)

    serial = _time_call(lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled"))

    # The worker pool is released in the ``finally`` below: an exception in
    # any timed row must not leak idle worker processes into the caller.
    mcpu_instance = compiled.engine_instance("mcpu")
    mcpu_timings = 0
    try:
        mcpu_cold = _time_call(
            lambda: mcpu_instance.run(inputs, num_trials=1, seed=0, workers=workers)
        )
        mcpu_warm = _time_call(
            lambda: mcpu_instance.run(inputs, num_trials=1, seed=0, workers=workers)
        )
        batch = [inputs] * max(batch_size, 1)
        mcpu_batch = (
            _time_call(
                lambda: mcpu_instance.run_batch(
                    batch, num_trials=1, seed=0, workers=workers
                )
            )
            / len(batch)
        )
        mcpu_timings = 3
        pool_starts = mcpu_instance.pool_starts
    finally:
        # Release the worker pool: the report is a one-shot measurement and
        # must not leave idle worker processes behind in the caller.
        mcpu_instance.close()

    gpu = _time_call(lambda: compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim"))
    for label, seconds, paper_seconds, paper_speedup in (
        ("Distill serial", serial, 4.4, 1.0),
        (f"Distill mCPU cold ({workers} workers)", mcpu_cold, 0.9, 4.9),
        (f"Distill mCPU warm ({workers} workers)", mcpu_warm, 0.9, 4.9),
        (f"Distill mCPU batched x{len(batch)} ({workers} workers)", mcpu_batch, 0.9, 4.9),
        ("Distill GPU (SIMT simulator)", gpu, 0.7, 6.3),
    ):
        report.add(
            configuration=label,
            seconds=seconds,
            speedup_vs_serial=serial / seconds,
            paper_seconds=paper_seconds,
            paper_speedup=paper_speedup,
            pool_starts=pool_starts if "mCPU" in label else "-",
        )
    report.note(
        "The host has 2 cores (paper: 6C/12T) and no GPU (paper: GTX 1060); the mCPU "
        "speedup is bounded by the core count and the GPU row uses the data-parallel "
        "SIMT simulator, so magnitudes differ while the ordering is preserved."
    )
    report.note(
        f"pool_starts={pool_starts} after {mcpu_timings} mCPU timings: the persistent "
        "engine instance reused one worker pool for every run()/run_batch() call "
        "(no per-call Pool construction); the batched row divides one run_batch of "
        f"{len(batch)} elements by the batch size."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 6 — GPU register throttling / occupancy study
# ---------------------------------------------------------------------------


def figure6_report(grid_size: int = 1_000_000) -> FigureReport:
    """Occupancy and runtime under register caps (paper Figure 6)."""
    report = FigureReport("Figure 6", "GPU register throttling (analytical occupancy model)")
    composition = pp_model.build_predator_prey("m")
    compiled = SESSION.compile_model(composition)
    info = compiled.grid_searches[0]
    model = GpuOccupancyModel(
        private_bytes_per_thread=18_500.0,
        measured_reference_seconds=0.7,
    )
    for point in model.register_sweep(grid_size=grid_size):
        report.add(
            precision=point.precision,
            max_registers=point.max_registers,
            occupancy=point.occupancy,
            estimated_seconds=point.estimated_seconds,
            spill_bytes_per_thread=point.spill_bytes_per_thread,
        )
    report.note(
        "No GPU is available; the sweep uses the documented analytical occupancy/"
        "latency model anchored at the paper's 0.7 s reference point.  The model "
        "reproduces the paper's two observations: occupancy rises as the register "
        "cap shrinks while runtime worsens, and fp32 is barely faster than fp64 "
        "because the kernel is bound by the ~18.5 kB of replicated per-thread state "
        f"(compiled kernel private bytes: {info.private_bytes_per_eval})."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 7 — compilation cost breakdown
# ---------------------------------------------------------------------------


def figure7_report(trials: int = 4) -> FigureReport:
    """Run-time breakdown across optimisation levels (paper Figure 7)."""
    from ..models import multitasking as mt

    report = FigureReport("Figure 7", "Compilation and run-time breakdown at O0–O3")
    cases = [
        ("Predator-Prey L", lambda: pp_model.build_predator_prey("l"), pp_model.default_inputs(1), 1),
        ("Multitasking", lambda: mt.build_multitasking(max_cycles=120), mt.default_inputs(4), trials),
    ]
    baseline = None
    for label, build, inputs, num_trials in cases:
        for opt_level in (0, 1, 2, 3):
            # Figure 7 measures compilation cost itself, so it must bypass the
            # session cache: a memoized model would replay stale stats.
            compiled = compile_composition(build(), pipeline=f"default<O{opt_level}>")
            result = compiled.run(inputs, num_trials=num_trials, seed=0, engine="compiled")
            total = (
                result.breakdown["input_construction"]
                + result.breakdown["execution"]
                + result.breakdown["output_extraction"]
                + compiled.stats.total_seconds
            )
            if baseline is None:
                baseline = total
            agg = compiled.pipeline.aggregate_timings()
            report.add(
                model=label,
                opt_level=f"O{opt_level}",
                compilation_s=compiled.stats.total_seconds,
                input_construction_s=result.breakdown["input_construction"],
                execution_s=result.breakdown["execution"],
                output_extraction_s=result.breakdown["output_extraction"],
                total_s=total,
                relative_to_first=total / baseline,
                ir_instructions=compiled.stats.instructions_after,
                analysis_hits=compiled.stats.analysis_hits,
                analysis_misses=compiled.stats.analysis_misses,
                artifact_hits=compiled.stats.artifact_hits,
                artifact_misses=compiled.stats.artifact_misses,
                pass_runs_changed=sum(row["changed"] for row in agg.values()),
                pass_runs_noop=sum(row["noops"] for row in agg.values()),
                noop_passes=",".join(
                    sorted(n for n, row in agg.items() if row["changed"] == 0)
                )
                or "-",
            )
    report.note(
        "As in the paper, compilation cost is visible but amortised: it is paid once "
        "while models are run for hundreds to thousands of trials afterwards."
    )
    report.note(
        "analysis_hits/misses are the per-compile AnalysisManager counters: hits are "
        "dominator trees / loop info / predecessor maps served from cache instead of "
        "rebuilt per pass (see figure7_cache_report for the cold-path comparison)."
    )
    report.note(
        "pass_runs_changed/noop count per-pass invocations that did / did not modify "
        "the IR; noop_passes lists passes that never changed it — the autotuner's "
        "first pruning candidates (see figure10_autotune_report)."
    )
    return report


def figure7_cache_report(repeats: int = 3) -> FigureReport:
    """Cold vs cached compilation: the analysis-manager contribution.

    The "cold" rows compile with ``flags={"analysis_cache": False}`` — every
    pass recomputes its own dominator trees / loop info, the pre-manager
    behaviour — while the "cached" rows use the default per-compile
    :class:`~repro.analysis.manager.AnalysisManager`.  ``optimize_s`` is the
    phase the cache affects (best of ``repeats``); sanitize/codegen/lowering
    are identical in both configurations.
    """
    from ..models import multitasking as mt

    report = FigureReport(
        "Figure 7 (cache)", "O2 compile cost: cold vs cached analysis manager"
    )
    cases = [
        ("Predator-Prey M", lambda: pp_model.build_predator_prey("m")),
        ("Multitasking", lambda: mt.build_multitasking(max_cycles=120)),
    ]
    for label, build in cases:
        measured = {}
        for mode, flags in (("cold", {"analysis_cache": False}), ("cached", None)):
            best_opt = float("inf")
            best_total = float("inf")
            compiled = None
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                compiled = compile_composition(build(), pipeline="default<O2>", flags=flags)
                best_total = min(best_total, time.perf_counter() - start)
                best_opt = min(best_opt, compiled.stats.optimize_seconds)
            measured[mode] = best_opt
            report.add(
                model=label,
                mode=mode,
                optimize_s=best_opt,
                compile_s=best_total,
                analysis_hits=compiled.stats.analysis_hits,
                analysis_misses=compiled.stats.analysis_misses,
                skipped_passes=compiled.stats.analysis_skipped_passes,
                domtree_builds=compiled.analysis_stats["computed"].get("domtree", 0),
            )
        report.add(
            model=label,
            mode="speedup",
            optimize_s=measured["cold"] / measured["cached"],
            compile_s="-",
            analysis_hits="-",
            analysis_misses="-",
            skipped_passes="-",
            domtree_builds="-",
        )
    report.note(
        "Cached compiles build each function's dominator tree at most twice per O2 "
        "pipeline (cold build + one post-simplifycfg rebuild round, pinned by "
        "tests/test_analysis_manager.py); the cold path rebuilds it for every "
        "consuming pass."
    )
    return report


def _scale_edit_specs(spec):
    """Two deterministic single-edit copies of ``spec`` for recompile rows.

    Returns ``((param_edit, mechanism_name), (projection_edit, receiver_name))``.
    The param edit scales one mechanism function parameter — those load from
    the params buffer, so ``recompile`` resolves it without re-lowering any
    function ("params-only").  The projection edit scales one non-zero matrix,
    which is baked into the receiver's node function, forcing the per-unit
    re-lower + live-patch path ("patched").
    """
    import copy

    param_edit = copy.deepcopy(spec)
    param_target = None
    for mech in param_edit.mechanisms:
        if mech.is_input:
            continue
        for key, value in mech.function.params.items():
            if key != "non_negative" and isinstance(value, float) and value:
                mech.function.params[key] = round(value * 1.25, 9)
                param_target = mech.name
                break
        if param_target:
            break

    proj_edit = copy.deepcopy(spec)
    proj_target = None
    for projection in proj_edit.projections:
        if isinstance(projection.matrix, list) and any(
            v for row in projection.matrix for v in row
        ):
            projection.matrix = [
                [round(v * 1.25, 9) for v in row] for row in projection.matrix
            ]
            proj_target = projection.receiver
            break
    if param_target is None or proj_target is None:
        raise ValueError("spec offers no editable parameter/projection site")
    return (param_edit, param_target), (proj_edit, proj_target)


def figure7_scale_report(
    sizes: Sequence[int] = (50, 100, 200, 500),
    edit_point: int = 200,
    pipeline: str = "default<O2>",
    spec_seed: int = 7,
) -> FigureReport:
    """Compile cost vs mechanism count, and edit-recompile vs full compile.

    A repro-only extension of Figure 7: the scaling-workload generator
    (:func:`repro.fuzz.gen.generate_scale_spec`) builds layered mega-models
    of ``sizes`` mechanisms, each cold-compiled with the artifact store
    disabled so the rows measure the real distill→optimize→codegen cost.  At
    ``edit_point`` mechanisms two single-value edits are then pushed through
    ``CompiledModel.recompile``: a buffer-loaded parameter (resolved without
    re-lowering) and a baked projection matrix (re-lowers only the receiver's
    compile unit).  ``recompile_pct`` is the headline number: the cost of an
    edit relative to the cold full compile of the same model.
    """
    from ..fuzz.gen import generate_scale_spec

    report = FigureReport(
        "Figure 7 (scale)",
        "Compile cost vs mechanism count; edit-recompile vs full compile",
    )
    for n in sizes:
        spec = generate_scale_spec(spec_seed, n_mechanisms=n)
        composition = spec.build()
        n_projections = len(composition.projections)
        started = time.perf_counter()
        compiled = compile_composition(composition, pipeline=pipeline, store=False)
        full_seconds = time.perf_counter() - started
        stats = compiled.stats
        report.add(
            mechanisms=n,
            projections=n_projections,
            mode="full",
            seconds=full_seconds,
            pct_of_full=1.0,
            relowered=len(list(compiled.module.defined_functions())),
            sanitize_s=stats.sanitize_seconds,
            optimize_s=stats.optimize_seconds,
            lower_s=stats.lower_seconds,
            ir_instructions=stats.instructions_after,
        )
        if n != edit_point:
            compiled.close_engines()
            continue
        for label, (edited, _target) in zip(
            ("edit/params-only", "edit/patched"), _scale_edit_specs(spec)
        ):
            started = time.perf_counter()
            patch_report = compiled.recompile(
                composition=edited.build(), store=False
            )
            seconds = time.perf_counter() - started
            report.add(
                mechanisms=n,
                projections=n_projections,
                mode=label,
                seconds=seconds,
                pct_of_full=seconds / full_seconds,
                relowered=len(patch_report.get("relowered") or ()),
                sanitize_s="-",
                optimize_s="-",
                lower_s="-",
                ir_instructions=compiled.stats.instructions_after,
            )
            assert patch_report["mode"] in ("params-only", "patched"), patch_report
        compiled.close_engines()
    report.note(
        "Edits re-lower only the compile units whose structural fingerprint "
        "changed; a buffer-loaded parameter edit re-lowers none.  Cold compiles "
        "run with the artifact store disabled (store=False) so the scaling rows "
        "are cache-independent; warm-store behaviour is asserted separately by "
        "benchmarks/bench_fig7_scale.py."
    )
    full = [(row["mechanisms"], row["seconds"]) for row in report.rows if row["mode"] == "full"]
    if len(full) >= 2:
        text = (
            f"Full-compile seconds grow as mechanisms^{loglog_exponent(full):.2f} "
            f"(least-squares fit of log seconds on log mechanisms over {len(full)} sizes)."
        )
        largest, seconds = max(full)
        if largest >= 500:
            verdict = "met" if seconds < 5.0 else "not met"
            text += (
                f"  {largest}-mechanism {pipeline} compile: {seconds:.2f} s "
                f"(target under 5 s: {verdict})."
            )
        report.note(text)
    return report


def loglog_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log y`` on ``log x``: the ``k`` of ``y ~ x**k``."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


# ---------------------------------------------------------------------------
# Figure 2 — adaptive mesh refinement vs grid search
# ---------------------------------------------------------------------------


def empirical_attention_curve(
    compiled: CompiledModel,
    inputs: Dict[str, np.ndarray],
    levels: Sequence[float],
    samples_per_level: int = 200,
    fixed_allocation: Sequence[float] = (0.0, 0.0),
) -> List[Dict[str, float]]:
    """Average evaluation cost as a function of the prey attention level.

    This is the "grid" series of Figure 2: the model's evaluation kernel is
    executed ``samples_per_level`` times for every candidate level (using the
    data-parallel executor, i.e. exactly what running the model would do),
    and the mean cost per level is reported.
    """
    from ..backends.gpu_sim import VectorizedKernelExecutor

    info = compiled.grid_searches[0]
    kernel = compiled.module.get_function(info.kernel_name)
    executor = VectorizedKernelExecutor(kernel)
    flat_input = (
        list(inputs["player_loc"]) + list(inputs["predator_loc"]) + list(inputs["prey_loc"])
    )
    rows = []
    for level_index, level in enumerate(levels):
        lanes = samples_per_level
        lane_args = {
            1 + info.input_size + len(info.levels) + 1: (
                np.arange(lanes, dtype=np.float64) * info.counter_stride
                + level_index * lanes * info.counter_stride
            )
        }
        scalar_args: List[object] = [(compiled.layout.param_values, 0)]
        scalar_args += [float(v) for v in flat_input]
        scalar_args += [float(fixed_allocation[0]), float(fixed_allocation[1]), float(level)]
        scalar_args += [12345.0, 0.0]  # fixed PRNG key; per-lane counters above
        costs = executor(scalar_args, lane_args, lanes)
        rows.append({"attention": float(level), "mean_cost": float(np.mean(costs))})
    return rows


def figure2_report(grid_levels: int = 100, samples_per_level: int = 1000) -> FigureReport:
    """Mesh refinement over the prey-attention parameter (paper Figure 2)."""
    report = FigureReport(
        "Figure 2", "Finding the best prey attention: compiler analysis vs grid search"
    )
    composition = pp_model.build_predator_prey("m")
    compiled = SESSION.compile_model(composition)
    info = compiled.grid_searches[0]
    kernel = compiled.module.get_function(info.kernel_name)
    specialised = specialize_on_buffer(kernel, 0, compiled.layout.param_values)

    inputs = pp_model.default_inputs(1)[0]
    point_ranges = {}
    flat = list(inputs["player_loc"]) + list(inputs["predator_loc"]) + list(inputs["prey_loc"])
    for i, value in enumerate(flat):
        point_ranges[f"in{i}"] = Interval.point(float(value))
    point_ranges["alloc0"] = Interval.point(2.5)
    point_ranges["alloc1"] = Interval.point(2.5)
    point_ranges["rng_key"] = Interval(0.0, 2.0 ** 31)
    point_ranges["rng_counter"] = Interval(0.0, 2.0 ** 40)

    refiner = MeshRefiner(
        specialised,
        parameter="alloc2",
        objective="min",
        arg_ranges=point_ranges,
        assume_normal_range=3.0,
    )
    result = refiner.refine(0.0, 5.0, tolerance=0.05)

    # The "grid" series: the empirical mean-cost curve over sampled levels.
    curve_levels = list(np.linspace(0.0, 5.0, 26))
    curve = empirical_attention_curve(
        compiled,
        inputs,
        curve_levels,
        samples_per_level=max(samples_per_level // 5, 50),
        fixed_allocation=(2.5, 2.5),
    )
    empirical_best = min(curve, key=lambda row: row["mean_cost"])

    grid_runs = grid_levels * samples_per_level
    report.add(
        method="adaptive mesh refinement (VRP)",
        model_executions=0,
        analysis_rounds=result.rounds,
        vrp_runs=result.vrp_runs,
        estimated_optimum=result.estimate,
        interval=f"[{result.final_interval.lo:.3f}, {result.final_interval.hi:.3f}]",
    )
    report.add(
        method=f"sampled grid ({grid_levels} levels x {samples_per_level} samples)",
        model_executions=grid_runs,
        analysis_rounds="-",
        vrp_runs=0,
        estimated_optimum=f"{empirical_best['attention']:.3f} "
        f"(mean cost {empirical_best['mean_cost']:.3f})",
        interval="-",
    )
    report.note(
        "The paper reports ~7 refinement rounds versus hundreds of thousands of model "
        "runs for the sampled grid; the measured rounds are listed above."
    )
    for step in result.history:
        report.add(
            method=f"  round {step.round_index}",
            model_executions=0,
            analysis_rounds=step.round_index,
            vrp_runs=2,
            estimated_optimum=f"chose {step.chosen}",
            interval=f"[{(step.left if step.chosen == 'left' else step.right).lo:.3f}, "
            f"{(step.left if step.chosen == 'left' else step.right).hi:.3f}]",
        )
    return report


# ---------------------------------------------------------------------------
# Figure 3 — DDM / LCA clone detection
# ---------------------------------------------------------------------------


def figure3_report() -> FigureReport:
    """Clone detection between the LCA and DDM accumulation kernels (Figure 3)."""
    report = FigureReport("Figure 3", "DDM vs LCA accumulation kernels under parameter bindings")
    from ..ir import Module

    module = Module("figure3")
    lca = emit_library_function(
        LeakyCompetingIntegrator(noise=1.0, time_step=0.01, non_negative=0.0),
        input_size=1,
        module=module,
        name="lca_step",
        param_args=("leak", "competition", "offset"),
    )
    ddm = emit_library_function(
        DriftDiffusionIntegrator(noise=1.0, time_step=0.01),
        input_size=1,
        module=module,
        name="ddm_step",
        param_args=("rate",),
    )
    detector = CloneDetector()
    unbound = detector.compare(lca, ddm)
    bound = detector.compare(
        lca,
        ddm,
        left_bindings={"leak": 0.0, "competition": 0.0, "offset": 0.0},
        right_bindings={"rate": 1.0},
    )
    report.add(
        comparison="LCA vs DDM (no bindings)",
        equivalent=unbound.equivalent,
        detail=unbound.reason,
    )
    report.add(
        comparison="LCA(rate=0, offset=0) vs DDM(rate=1)",
        equivalent=bound.equivalent,
        detail=bound.reason,
        matched_instructions=bound.matched_instructions,
    )
    report.note(
        "The paper's Figure 3 highlights the identical accumulation core; with the "
        "same bindings the structural comparator reports equivalence, so the LCA "
        "node can be replaced by the DDM's analytical solution."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 8 — codegen shape: dispatch-loop vs structured emission
# ---------------------------------------------------------------------------

#: The registered models whose run time is dominated by reconstructed loops
#: (grid searches, settling passes with per-pass PRNG draws) — the workloads
#: the structured emitter targets.  The acceptance bar (structured >= 1.3x
#: dispatch) is asserted over these; the remaining suite models appear in the
#: report as context rows.
FIG8_LOOP_HEAVY_MODELS = (
    "predator_prey_s",
    "vectorized_necker_cube",
    "necker_cube_m",
)

FIG8_CONTEXT_MODELS = ("botvinick_stroop", "multitasking")


def figure8_report(
    models: Optional[Sequence[str]] = None,
    trials_scale: float = 1.0,
    repeats: int = 5,
) -> FigureReport:
    """Codegen shape: dispatch-loop vs structured emission (repro-only figure).

    Every model is compiled twice — the default structured emitter and the
    legacy block-dispatch ladder (``flags={"structured_codegen": False}``) —
    and the raw ``run_model`` execution of both artifacts is timed (buffer
    allocation and result extraction excluded: they are engine-independent).
    Compiles bypass the shared session deliberately: the two flag values
    would be distinct cache keys anyway, and the rows also record per-config
    lowering cost.
    """
    report = FigureReport(
        "Figure 8", "Codegen shape: dispatch-loop vs structured emission"
    )
    chosen = list(models) if models is not None else list(
        FIG8_LOOP_HEAVY_MODELS + FIG8_CONTEXT_MODELS
    )
    loop_heavy_speedups = []
    for name in chosen:
        entry = get_model(name)
        inputs = entry.inputs()
        trials = max(int(entry.num_trials * 3 * trials_scale), 1)

        structured = compile_composition(entry.build(), pipeline="default<O2>")
        dispatch = compile_composition(
            entry.build(), pipeline="default<O2>", flags={"structured_codegen": False}
        )
        try:

            def run_once(model):
                buffers = model.allocate_buffers(inputs, trials, 0)
                model._run_whole_compiled(buffers, trials)

            structured_s = _time_call(lambda: run_once(structured), repeats)
            dispatch_s = _time_call(lambda: run_once(dispatch), repeats)
        finally:
            structured.close_engines()
            dispatch.close_engines()
        speedup = dispatch_s / structured_s
        loop_heavy = name in FIG8_LOOP_HEAVY_MODELS
        if loop_heavy:
            loop_heavy_speedups.append(speedup)
        fallbacks = structured.stats.dispatch_fallbacks
        report.add(
            model=name,
            trials=trials,
            loop_heavy=loop_heavy,
            dispatch_s=dispatch_s,
            structured_s=structured_s,
            speedup=speedup,
            structured_lower_s=structured.stats.lower_seconds,
            dispatch_lower_s=dispatch.stats.lower_seconds,
            relooper_bails=len(fallbacks),
        )
        for fn_name in fallbacks:
            reason = structured.stats.dispatch_fallback_reasons.get(fn_name, "?")
            report.note(
                f"{name}: @{fn_name} fell back to the dispatch emitter: {reason}"
            )
    if loop_heavy_speedups:
        report.add(
            model="loop-heavy mean",
            trials="-",
            loop_heavy=True,
            dispatch_s="-",
            structured_s="-",
            speedup=float(np.mean(loop_heavy_speedups)),
            structured_lower_s="-",
            dispatch_lower_s="-",
            relooper_bails="-",
        )
    report.note(
        "Structured emission replaces the `_block` dispatch ladder with native "
        "while/if/else, folds constant GEP chains, coalesces allocas into one "
        "frame buffer, pools constants/intrinsic bindings into closure cells "
        "and inlines the counter-based PRNG; the dispatch rows rerun the same "
        "IR through the legacy emitter."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 9 — serving daemon: cold compile vs warm session vs coalesced load
# ---------------------------------------------------------------------------

#: Workloads for :func:`figure9_serving_report`.  ``gate=True`` rows carry the
#: CI floor (served-warm p50 must beat the cold per-request compile by the
#: asserted factor); both suite models here are compile-dominated at one
#: trial, which is exactly the shape the warm daemon amortises.
FIG9_WORKLOADS = (
    ("necker_cube_s", 1, True),
    ("botvinick_stroop", 1, True),
)


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index] * 1000.0


def figure9_serving_report(
    quick: bool = False,
    load_clients: int = 4,
    coalesce_window_ms: float = 2.0,
) -> FigureReport:
    """Serving daemon: cold per-request compile vs warm daemon vs coalesced load.

    A repro-only extension of the evaluation: three ways to answer the same
    stream of run requests.  ``cold`` pays a fresh ``compile_composition``
    per request (the per-process baseline the daemon replaces — measured
    in-process, i.e. *without* interpreter start-up, which only flatters the
    baseline); ``served-warm`` sends sequential requests to a daemon whose
    session already holds the compiled model; ``served-coalesced`` drives the
    daemon with ``load_clients`` concurrent threads so same-key requests
    coalesce into shared ``run_batch`` dispatches (a small linger window
    makes the batching deterministic enough to benchmark).  Correctness of
    the coalesced path is pinned bitwise by tests/test_serve.py; this report
    only measures it.
    """
    import tempfile
    import threading

    from ..serve import ServeClient, ServeConfig, Server, wait_for_server

    cold_repeats = 2 if quick else 3
    warm_requests = 12 if quick else 40
    load_requests = 5 if quick else 12  # per client

    report = FigureReport(
        "Figure 9", "Serving daemon: cold compile vs warm session vs coalesced load"
    )
    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    sock = os.path.join(tmp, "bench.sock")
    server = Server(
        sock,
        artifact_dir=False,
        config=ServeConfig(
            max_queue=256,
            max_coalesce=64,
            coalesce_window=coalesce_window_ms / 1000.0,
        ),
    )
    server.start()
    try:
        wait_for_server(sock)
        for name, trials, gate in FIG9_WORKLOADS:
            entry = get_model(name)
            inputs = entry.inputs()

            cold = []
            for repeat in range(cold_repeats):
                start = time.perf_counter()
                compiled = compile_composition(
                    entry.build(), pipeline="default<O2>", store=False
                )
                compiled.run(inputs, num_trials=trials, seed=repeat, engine="compiled")
                cold.append(time.perf_counter() - start)
                compiled.close_engines()
            cold_p50 = _percentile_ms(cold, 0.5)
            report.add(
                workload=name,
                mode="cold",
                requests=len(cold),
                clients=1,
                p50_ms=cold_p50,
                p99_ms=_percentile_ms(cold, 0.99),
                req_per_s=len(cold) / sum(cold),
                coalesce_rate=0.0,
                speedup_vs_cold=1.0,
                gate=gate,
            )

            with ServeClient(sock, timeout=600.0) as client:
                client.run(name, inputs, num_trials=trials, seed=0)  # warm the session
                warm = []
                warm_started = time.perf_counter()
                for seed in range(warm_requests):
                    start = time.perf_counter()
                    client.run(name, inputs, num_trials=trials, seed=seed)
                    warm.append(time.perf_counter() - start)
                warm_elapsed = time.perf_counter() - warm_started
            warm_p50 = _percentile_ms(warm, 0.5)
            report.add(
                workload=name,
                mode="served-warm",
                requests=warm_requests,
                clients=1,
                p50_ms=warm_p50,
                p99_ms=_percentile_ms(warm, 0.99),
                req_per_s=warm_requests / warm_elapsed,
                coalesce_rate=0.0,
                speedup_vs_cold=cold_p50 / warm_p50,
                gate=gate,
            )

            before = server.stats()
            latencies_lock = threading.Lock()
            load_latencies: List[float] = []
            errors: List[BaseException] = []

            def load_client(worker: int):
                try:
                    with ServeClient(sock, timeout=600.0) as client:
                        for request in range(load_requests):
                            start = time.perf_counter()
                            client.run(
                                name,
                                inputs,
                                num_trials=trials,
                                seed=worker * load_requests + request,
                            )
                            elapsed = time.perf_counter() - start
                            with latencies_lock:
                                load_latencies.append(elapsed)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=load_client, args=(worker,))
                for worker in range(load_clients)
            ]
            load_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            load_elapsed = time.perf_counter() - load_started
            if errors:
                raise errors[0]
            after = server.stats()
            completed = (
                after["requests"]["completed"] - before["requests"]["completed"]
            )
            coalesced = (
                after["coalesce"]["coalesced_requests"]
                - before["coalesce"]["coalesced_requests"]
            )
            load_p50 = _percentile_ms(load_latencies, 0.5)
            report.add(
                workload=name,
                mode="served-coalesced",
                requests=len(load_latencies),
                clients=load_clients,
                p50_ms=load_p50,
                p99_ms=_percentile_ms(load_latencies, 0.99),
                req_per_s=len(load_latencies) / load_elapsed,
                coalesce_rate=(coalesced / completed) if completed else 0.0,
                speedup_vs_cold=cold_p50 / load_p50,
                gate=gate,
            )
    finally:
        server.shutdown(drain=False)
    report.note(
        "cold = fresh compile_composition + run per request (store disabled), the "
        "per-process baseline minus interpreter start-up; served rows include the "
        "full socket round trip against one warm daemon session."
    )
    report.note(
        f"served-coalesced drives {load_clients} concurrent clients with a "
        f"{coalesce_window_ms:g} ms linger window; coalesce_rate is the fraction "
        "of completed requests that shared another request's dispatch."
    )
    return report


FIG10_MODELS = (
    ("necker_cube_s", True),
    ("predator_prey_s", True),
    ("botvinick_stroop", True),
)


def figure10_autotune_report(quick: bool = False) -> FigureReport:
    """Pipeline autotuner: default<O2> vs the equivalence-proven tuned winner.

    A repro-only extension of the evaluation (the paper hard-codes one
    pipeline per optimisation level).  For each workload the autotuner
    generates candidate pipelines from the incumbent's per-pass changed/no-op
    profile, proves each candidate bitwise-equivalent on the workload's
    representative inputs, races the survivors, and reports the winner's
    weighted compile+run objective next to the incumbent's.  ``gate`` rows
    feed ``check_autotune_floor``: the winner's objective must never exceed
    the incumbent's (the incumbent itself is always raced and eligible, so
    "no candidate wins" degrades to returning the incumbent, not to a
    regression).
    """
    from ..driver.autotune import AutotuneConfig, run_autotune
    from ..fuzz.gen import generate_scale_spec

    config = AutotuneConfig(
        budget=6 if quick else 12,
        repeats=2 if quick else 3,
        warmup=0 if quick else 1,
    )
    report = FigureReport(
        "Figure 10", "Pipeline autotuner: default<O2> vs tuned winner"
    )

    workloads = []
    for name, gate in FIG10_MODELS:
        entry = get_model(name)
        workloads.append(
            (name, entry.build(), entry.inputs(), entry.num_trials, gate)
        )
    for seed, n_mechanisms in ((0, 60), (1, 120)):
        spec = generate_scale_spec(seed, n_mechanisms=n_mechanisms, width=6)
        workloads.append(
            (spec.name, spec.build(), spec.inputs, spec.num_trials, True)
        )

    for name, composition, inputs, num_trials, gate in workloads:
        result = run_autotune(
            composition, inputs, num_trials=num_trials, config=config,
            store=False,
        )
        rejected = sum(1 for r in result.records if r.status == "rejected")
        errored = sum(1 for r in result.records if r.status == "error")
        report.add(
            workload=name,
            default_pipeline=result.incumbent,
            default_objective_s=result.incumbent_objective,
            tuned_pipeline=result.winner,
            tuned_objective_s=result.objective,
            improvement=result.improvement,
            candidates_searched=result.searched,
            proven_equivalent=sum(1 for r in result.records if r.equivalent),
            rejected=rejected,
            errored=errored,
            tuned_is_incumbent=result.winner == result.incumbent,
            gate=gate,
        )
    report.note(
        f"objective = {config.compile_weight:g} * pipeline_compile_s + "
        f"{config.run_weight:g} * min-of-{config.repeats} run_s; every raced "
        "candidate was first proven bitwise-equivalent (result/monitor/state "
        "buffers + final PRNG counters) to the incumbent on the workload's "
        "representative inputs."
    )
    report.note(
        "store=False: every row reflects a fresh search. Cached resolution "
        "(pipeline=\"auto\") is covered by figure9's serving path and "
        "tests/test_autotune.py."
    )
    winners: Dict[str, int] = {}
    for row in report.rows:
        winners[row["tuned_pipeline"]] = winners.get(row["tuned_pipeline"], 0) + 1
    summary = ", ".join(f"{pipeline} on {count}" for pipeline, count in sorted(winners.items()))
    verdict = (
        "every winner is default<O1>"
        if set(winners) == {"default<O1>"}
        else "not every winner is default<O1>"
    )
    report.note(f"Winners by pipeline: {summary} of {len(report.rows)} workloads; {verdict}.")
    return report


def fuzz_campaign_report(
    seed: int = 0, n_models: int = 10, pipelines=None
) -> FigureReport:
    """Timing/coverage report for a generative conformance campaign.

    Not a paper figure — a harness-level health report: how much wall clock a
    campaign of ``n_models`` random models costs per oracle leg, how large
    the generated models are, and whether any leg diverged.  The nightly CI
    fuzz job uploads this table next to any reproducers.
    """
    from .. import fuzz

    kwargs = {"pipelines": pipelines} if pipelines is not None else {}
    campaign = fuzz.run_campaign(
        seed=seed, n_models=n_models, shrink=False, **kwargs
    )
    report = FigureReport(
        figure="fuzz-campaign",
        title=f"generative conformance campaign ({n_models} models, seed {seed})",
    )
    seconds = [float(row["seconds"]) for row in campaign.rows]
    grids = [int(row["grid"]) for row in campaign.rows]
    report.add(
        models=n_models,
        failures=len(campaign.failures),
        legs=campaign.legs,
        grid_models=sum(1 for g in grids if g),
        mean_seconds_per_model=float(np.mean(seconds)) if seconds else 0.0,
        max_seconds_per_model=max(seconds) if seconds else 0.0,
        seconds_per_leg=(campaign.elapsed_seconds / campaign.legs) if campaign.legs else 0.0,
        total_seconds=campaign.elapsed_seconds,
    )
    for failure in campaign.failures:
        report.note(failure.describe())
    if not campaign.failures:
        report.note("all legs bitwise-identical (engines x pipelines x cold/cached)")
    return report


def all_reports(quick: bool = True) -> List[FigureReport]:
    """Regenerate every figure (used by ``examples/regenerate_paper_figures.py``)."""
    reports = [
        figure2_report(),
        figure3_report(),
        figure4_report(trials_scale=0.5 if quick else 1.0),
        figure5a_report(variants=("s", "m", "l"), include_xl=not quick, xl_levels=40 if quick else 100),
        figure5b_report(trials=10 if quick else 20),
        figure5b_lane_report(quick=quick),
        figure5c_report(levels_per_entity=12 if quick else 20),
        figure6_report(),
        figure7_report(trials=2 if quick else 4),
        figure7_cache_report(repeats=2 if quick else 4),
        figure8_report(trials_scale=0.5 if quick else 1.0, repeats=3 if quick else 5),
    ]
    return reports
