"""Distill's compilation core: lower a composition to IR and run it.

Typical usage goes through the driver facade (see DESIGN.md)::

    import repro
    from repro.models.predator_prey import build_predator_prey, default_inputs

    model = build_predator_prey("m")
    engine = repro.compile(model, target="compiled", pipeline="default<O2>")
    results = engine.run(default_inputs(4), num_trials=16)

This module holds the actual compilation stages
(:func:`compile_composition`) and the :class:`CompiledModel` artifact
bundle.  :func:`compile_model` remains as a deprecated shim over
:func:`compile_composition`.

The compiled model exposes the same result structure as the interpretive
reference runner, so downstream analysis code does not care which engine
produced the numbers (paper design principle 1: no model changes).
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..backends.interp import Interpreter
from ..backends.pycodegen import PythonCodeGenerator
from ..cogframe import conditions as cond
from ..cogframe.composition import Composition
from ..cogframe.mechanisms import GridSearchControlMechanism
from ..cogframe.runner import RunResults, TrialResult, normalize_inputs
from ..cogframe.sanitize import SanitizationInfo, sanitize
from ..driver.engines import get_engine
from ..driver.pipeline import resolve_pipeline
from ..passes.pass_manager import PassManager
from .codegen import CompiledArtifacts, generate_model_ir
from .structs import StaticLayout, build_layout

#: Deprecated: the built-in engine names.  Backends now self-register with
#: :mod:`repro.driver.engines`; use :func:`repro.list_engines` instead.
ENGINES = ("compiled", "ir-interp", "per-node", "mcpu", "gpu-sim")


@dataclass
class CompileStats:
    """Wall-clock breakdown of a compilation (Figure 7 "Compilation" bars)."""

    sanitize_seconds: float = 0.0
    layout_seconds: float = 0.0
    codegen_seconds: float = 0.0
    optimize_seconds: float = 0.0
    lower_seconds: float = 0.0
    instructions_before: int = 0
    instructions_after: int = 0
    #: Analysis-manager cache counters for the optimisation pipeline (hits
    #: are analyses served from cache, misses were computed; skipped_passes
    #: counts per-function pass visits elided by clean-run records).
    analysis_hits: int = 0
    analysis_misses: int = 0
    analysis_invalidations: int = 0
    analysis_skipped_passes: int = 0
    #: Artifact-store counters for this compile: ``artifact_hits`` counts
    #: store entries that skipped work (a model-entry hit skips sanitize
    #: through codegen entirely; an optimize-entry hit skips the pipeline),
    #: ``artifact_misses`` counts lookups that fell through to a real
    #: compile, ``artifact_writes`` counts entries published, and
    #: ``artifact_patches`` counts functions replaced in-place by
    #: incremental recompiles of this model.
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_writes: int = 0
    artifact_patches: int = 0
    #: Wall-clock spent in incremental recompiles of this model (cumulative).
    recompile_seconds: float = 0.0
    #: Functions the structured emitter could not express and lowered through
    #: the legacy dispatch ladder, plus the relooper's reason per function
    #: (reported by the Figure 8 harness).
    dispatch_fallbacks: List[str] = field(default_factory=list)
    dispatch_fallback_reasons: Dict[str, str] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.sanitize_seconds
            + self.layout_seconds
            + self.codegen_seconds
            + self.optimize_seconds
            + self.lower_seconds
        )


class CompiledModel:
    """A composition compiled to IR plus the drivers for every engine."""

    def __init__(
        self,
        composition: Composition,
        info: SanitizationInfo,
        layout: StaticLayout,
        artifacts: CompiledArtifacts,
        stats: CompileStats,
        compiled_functions: Dict[str, object],
        pipeline: Optional[PassManager] = None,
        opt_level: Optional[int] = None,
        flags: Optional[Dict[str, object]] = None,
        seed: int = 0,
    ):
        self.composition = composition
        self.info = info
        self.layout = layout
        self.artifacts = artifacts
        self.module = artifacts.module
        self.pipeline = pipeline
        self.pipeline_text = pipeline.describe() if pipeline is not None else ""
        self.opt_level = opt_level
        self.flags = dict(flags or {})
        self.seed = int(seed)
        self.stats = stats
        #: ``AnalysisManager.cache_info()`` of the compile that produced this
        #: model (filled in by :func:`compile_composition`).
        self.analysis_stats: Dict[str, object] = {}
        #: The generated Python source of the compiled backend (stored so the
        #: artifact store can replay it without re-lowering).
        self.source: Optional[str] = None
        #: Per-function *compile unit* keys of the pre-optimization module
        #: (see :func:`repro.driver.artifacts.unit_fingerprints`); describes
        #: the original full compile and is what the optimize-artifact entry
        #: was keyed on.
        self.unit_fingerprints: Dict[str, str] = {}
        #: Per-function structural fingerprints of the pre-optimization
        #: module.  The incremental recompiler compares freshly regenerated
        #: functions against these to classify an edit as param-buffer-only
        #: (identical IR) versus requiring a re-lower.
        self.function_fingerprints: Dict[str, str] = {}
        self._compiled = compiled_functions
        self._engine_instances: Dict[str, object] = {}
        self._engine_lock = threading.Lock()

    # -- introspection -------------------------------------------------------------
    def print_ir(self) -> str:
        from ..ir.printer import print_module

        return print_module(self.module)

    def function(self, name: str):
        """The compiled Python callable for an IR function."""
        return self._compiled[name]

    @property
    def grid_searches(self):
        return self.artifacts.grid_searches

    # -- buffers ---------------------------------------------------------------------
    def allocate_buffers(self, inputs: Sequence, num_trials: int, seed: int):
        layout = self.layout
        input_sets = normalize_inputs(self.composition, inputs)
        rows = len(input_sets)
        flat_inputs: List[float] = []
        for entry in input_sets:
            row = [0.0] * max(layout.input_size, 1)
            for name, (offset, size) in layout.input_layout.items():
                values = np.asarray(entry[name], dtype=float).ravel()
                row[offset : offset + size] = [float(v) for v in values]
            flat_inputs.extend(row)
        buffers = {
            "params": layout.allocate_params(),
            "state": layout.allocate_state(seed),
            "prev": layout.allocate_outputs(),
            "cur": layout.allocate_outputs(),
            "inputs": flat_inputs if flat_inputs else [0.0],
            "results": [0.0] * max(num_trials * layout.result_record_size(), 1),
            "monitor": [0.0] * max(num_trials * layout.monitor_record_size(), 1),
            "rows": rows,
        }
        return buffers

    def _collect_results(self, buffers, num_trials: int, engine: str) -> RunResults:
        layout = self.layout
        results = RunResults(model_name=self.composition.name, engine=engine)
        record_size = layout.result_record_size()
        for trial in range(num_trials):
            base = trial * record_size
            record = buffers["results"][base : base + record_size]
            outputs = {
                name: np.array(record[offset : offset + size])
                for name, (offset, size) in layout.result_layout.items()
            }
            passes = int(record[layout.result_size])
            monitored: Dict[str, List[np.ndarray]] = {}
            if layout.monitor_size:
                for name, (offset, size) in layout.monitor_layout.items():
                    series = []
                    for p in range(passes):
                        slot = (trial * layout.max_passes + p) * layout.monitor_size + offset
                        series.append(np.array(buffers["monitor"][slot : slot + size]))
                    monitored[name] = series
            results.trials.append(TrialResult(outputs=outputs, passes=passes, monitored=monitored))
        return results

    # -- execution ----------------------------------------------------------------------
    def run(
        self,
        inputs: Sequence,
        num_trials: Optional[int] = None,
        seed: int = 0,
        engine: str = "compiled",
        workers: Optional[int] = None,
    ) -> RunResults:
        """Run the compiled model.

        ``engine`` selects the execution strategy:

        * ``"compiled"``   — whole-model compiled code (CPython-DISTILL);
        * ``"ir-interp"``  — the per-instruction IR interpreter (generic-JIT
          stand-in baseline);
        * ``"per-node"``   — compiled nodes, Python scheduling
          (CPython-DISTILL-per-node, Figure 5b);
        * ``"mcpu"``       — grid-search evaluations partitioned over worker
          processes (DISTILL-mCPU, Figure 5c);
        * ``"gpu-sim"``    — data-parallel SIMT simulation of the evaluation
          kernel (DISTILL-GPU, Figures 5c and 6).

        Engines are resolved through the driver's backend registry
        (:mod:`repro.driver.engines`), so backends registered by user code
        are accepted as well; :func:`repro.list_engines` enumerates them.

        Engine bindings are memoized per model (:meth:`engine_instance`), so
        consecutive ``run`` calls reuse persistent engine state — notably the
        mcpu worker pool and the gpu-sim vectorised lane arrays.
        """
        instance = self.engine_instance(engine)
        options: Dict[str, object] = {}
        if workers is not None:
            options["workers"] = workers
        return instance.run(inputs, num_trials=num_trials, seed=seed, **options)

    def run_batch(
        self,
        inputs_batch: Sequence[Sequence],
        num_trials: Union[int, Sequence[Optional[int]], None] = None,
        seed: Union[int, Sequence[int]] = 0,
        engine: str = "compiled",
        workers: Optional[int] = None,
    ) -> List[RunResults]:
        """Run several independent input batches against this compiled model.

        Semantically equivalent to one :meth:`run` per element (results are
        bitwise identical); parallel engines execute the elements in lockstep
        and dispatch the whole batch's grid evaluations per scheduler step in
        one pool round-trip.  See :meth:`EngineInstance.run_batch`.
        """
        instance = self.engine_instance(engine)
        options: Dict[str, object] = {}
        if workers is not None:
            options["workers"] = workers
        return instance.run_batch(
            inputs_batch, num_trials=num_trials, seed=seed, **options
        )

    def engine_instance(self, engine: str = "compiled"):
        """The cached :class:`EngineInstance` binding this model to ``engine``.

        One instance exists per (model, engine name); it owns whatever
        persistent state the engine keeps between runs (worker pools,
        vectorised lane state).  Use :meth:`close_engines` to release that
        state explicitly.
        """
        with self._engine_lock:
            instance = self._engine_instances.get(engine)
        if instance is not None:
            return instance
        prepared = get_engine(engine).prepare(self)
        with self._engine_lock:
            instance = self._engine_instances.setdefault(engine, prepared)
        if instance is not prepared:
            prepared.close()  # lost the race; drop the duplicate's resources
        return instance

    def close_engines(self) -> None:
        """Release resources held by cached engine instances (worker pools)."""
        with self._engine_lock:
            instances = list(self._engine_instances.values())
        for instance in instances:
            instance.close()

    def reset_engine(self, engine: str) -> None:
        """Drop the cached binding for ``engine``, hard-releasing its pool.

        The serving daemon's retry path calls this after a suspected
        worker-pool failure so the next :meth:`engine_instance` call starts
        from a clean binding.  The instance's ``reset()`` (terminate
        semantics) is preferred over ``close()`` — a pool with a lost
        in-flight task never finishes a graceful join.
        """
        with self._engine_lock:
            instance = self._engine_instances.pop(engine, None)
        if instance is None:
            return
        reset = getattr(instance, "reset", None)
        (reset if reset is not None else instance.close)()

    # -- incremental recompilation ------------------------------------------------
    def recompile(self, composition=None, changed=None, store=None):
        """Re-lower only the functions affected by an edit, in place.

        ``composition`` is an edited composition (defaults to this model's
        own, for in-place edits made through :meth:`set_parameter` /
        :meth:`set_projection_matrix`); ``changed`` optionally names the
        edited mechanisms explicitly, skipping the structural diff.  When the
        edit is layout-compatible, only the changed node functions and the
        (cheap) scheduler functions are regenerated and patched into the
        live artifact; otherwise this transparently falls back to a full
        compile and adopts its result.  Either way ``self`` remains the
        valid handle.  Returns a report dict (see
        :func:`repro.core.patch.recompile_model`).
        """
        from .patch import recompile_model

        return recompile_model(self, composition=composition, changed=changed, store=store)

    def set_parameter(self, node: str, param: str, value) -> Dict[str, object]:
        """Edit one function parameter of ``node`` and incrementally recompile."""
        mech = self.composition.mechanisms[node]
        if param not in mech.function.params:
            raise KeyError(f"mechanism {node!r} has no parameter {param!r}")
        mech.function.params[param] = value
        return self.recompile(changed={node})

    def set_projection_matrix(
        self, sender: str, receiver: str, matrix, port: str = "input"
    ) -> Dict[str, object]:
        """Edit a projection's matrix and incrementally recompile the receiver."""
        for projection in self.composition.projections:
            if (
                projection.sender.name == sender
                and projection.receiver.name == receiver
                and projection.port == port
            ):
                projection.matrix = matrix
                # Only the receiver's node function bakes the matrix.
                return self.recompile(changed={receiver})
        raise KeyError(f"no projection {sender!r} -> {receiver!r}.{port}")

    # -- engine implementations --------------------------------------------------------------
    def _model_args(self, buffers, num_trials: int):
        return [
            (buffers["params"], 0),
            (buffers["state"], 0),
            (buffers["prev"], 0),
            (buffers["cur"], 0),
            (buffers["inputs"], 0),
            (buffers["results"], 0),
            (buffers["monitor"], 0),
            num_trials,
            buffers["rows"],
        ]

    def _run_whole_compiled(self, buffers, num_trials: int) -> None:
        run_model = self._compiled["run_model"]
        run_model(*self._model_args(buffers, num_trials))

    def _run_whole_interp(self, buffers, num_trials: int) -> None:
        interp = Interpreter(self.module)
        interp.call("run_model", self._model_args(buffers, num_trials))

    def _run_per_node(self, buffers, num_trials: int) -> None:
        """Compiled node functions driven by a Python scheduler (Figure 5b)."""
        layout = self.layout
        composition = self.composition
        params = (buffers["params"], 0)
        state_buf = buffers["state"]
        state = (state_buf, 0)
        prev_buf, cur_buf = buffers["prev"], buffers["cur"]
        record_size = layout.result_record_size()

        node_fns = {
            name: self._compiled[f"node_{name}"] for name in layout.execution_order
        }
        count_offsets = {
            name: layout.state_struct.field_slot_offset(
                layout.state_struct.field_index(StaticLayout.count_field(name))
            )
            for name in layout.execution_order
        }
        epoch_offsets = {
            name: layout.state_struct.field_slot_offset(
                layout.state_struct.field_index(StaticLayout.state_field(name, "eval_epoch"))
            )
            for name in layout.execution_order
            if isinstance(composition.mechanisms[name], GridSearchControlMechanism)
        }

        for trial in range(num_trials):
            # Reset per-trial state and the double buffers.
            for offset, values in layout.state_reset_entries:
                state_buf[offset : offset + len(values)] = values
            for i in range(len(prev_buf)):
                prev_buf[i] = 0.0
                cur_buf[i] = 0.0
            row = trial % buffers["rows"]
            ext = (buffers["inputs"], row * layout.input_size)

            call_counts = {name: 0 for name in layout.execution_order}
            passes_run = 0
            for pass_idx in range(layout.max_passes):
                scheduler_state = cond.SchedulerState(
                    pass_index=pass_idx,
                    trial_index=trial,
                    call_counts=dict(call_counts),
                    outputs=self._outputs_view(prev_buf),
                )
                if pass_idx > 0 and composition.termination.is_satisfied(scheduler_state):
                    break
                for name in layout.execution_order:
                    if not composition.conditions[name].is_satisfied(scheduler_state):
                        continue
                    if name in epoch_offsets:
                        state_buf[epoch_offsets[name]] = float(
                            trial * layout.max_passes + pass_idx
                        )
                    node_fns[name](params, state, (prev_buf, 0), (cur_buf, 0), ext)
                    call_counts[name] += 1
                    state_buf[count_offsets[name]] += 1.0
                prev_buf[:] = cur_buf
                if layout.monitor_size:
                    record = (trial * layout.max_passes + pass_idx) * layout.monitor_size
                    for node_name, (offset, size) in layout.monitor_layout.items():
                        out_offset, _ = layout.output_offsets[node_name]
                        buffers["monitor"][record + offset : record + offset + size] = prev_buf[
                            out_offset : out_offset + size
                        ]
                passes_run = pass_idx + 1
            base = trial * record_size
            for node_name, (offset, size) in layout.result_layout.items():
                out_offset, _ = layout.output_offsets[node_name]
                buffers["results"][base + offset : base + offset + size] = prev_buf[
                    out_offset : out_offset + size
                ]
            buffers["results"][base + layout.result_size] = float(passes_run)

    def _outputs_view(self, prev_buf) -> Dict[str, np.ndarray]:
        return {
            name: np.array(prev_buf[offset : offset + size])
            for name, (offset, size) in self.layout.output_offsets.items()
        }


def compile_composition(
    composition: Composition,
    pipeline: Union[str, PassManager] = "default<O2>",
    seed: int = 0,
    verify: Union[str, bool, None] = None,
    flags: Optional[Dict[str, object]] = None,
    opt_level: Optional[int] = None,
    store=None,
) -> CompiledModel:
    """Compile ``composition`` with Distill.

    The stages mirror the paper: sanitization-run mining (types and shapes),
    static data-structure conversion, IR generation for every node and the
    scheduler, the optimisation ``pipeline`` (a textual description such as
    ``"default<O2>,licm"`` or a prebuilt :class:`PassManager`) and lowering
    to the execution engines.

    ``store`` selects the content-addressed artifact store (see
    :mod:`repro.driver.artifacts`): ``None`` consults the
    ``REPRO_ARTIFACT_DIR`` environment variable, ``False`` disables the
    store, a path or :class:`~repro.driver.artifacts.ArtifactStore` uses
    that store.  On a model-entry hit the whole compile — sanitize, layout,
    IR generation, optimisation and lowering — is replaced by decoding the
    stored module and re-executing the stored Python source; on an
    optimize-entry hit (same IR under a different model key, e.g. a sibling
    model differing only in plain parameter values) only the optimisation
    pipeline is skipped.

    ``verify`` is the module-verification policy (``"each"``, ``"boundary"``
    or ``"off"``; legacy booleans accepted).  With the default ``None``, a
    textual pipeline gets ``"boundary"`` (verify once after IR generation
    and once after the last pass, not after every pass) and a prebuilt
    :class:`PassManager` keeps its own policy.  An explicit policy always
    wins; a caller-supplied manager is then rewrapped rather than mutated.

    ``flags`` is an optional mapping of auxiliary compilation options; it is
    recorded on the returned model and participates in
    :class:`repro.Session` cache keys.  ``opt_level`` is informational (set
    by the deprecated :func:`compile_model` shim).

    Each compile owns one :class:`repro.analysis.manager.AnalysisManager`:
    analyses (dominator trees, loop info, ...) computed by one pass are
    reused by later passes until invalidated, and its hit/miss counters are
    recorded in :class:`CompileStats` and on ``CompiledModel.analysis_stats``
    (reported by the Figure 7 harness).  Pass ``flags={"analysis_cache":
    False}`` for the cold reference configuration that recomputes every
    analysis per pass — used by the differential tests and benchmarks.
    """
    from ..analysis.manager import AnalysisManager
    from ..driver.artifacts import (
        model_artifact_key,
        optimize_artifact_key,
        resolve_store,
        unit_fingerprints,
    )
    from ..driver.session import _pipeline_fingerprint
    from ..ir.fingerprint import function_fingerprint
    from ..ir.serialize import decode_module, encode_module

    pipeline = resolve_pipeline(pipeline, verify=verify)
    store = resolve_store(store)

    stats = CompileStats()

    structured = bool((flags or {}).get("structured_codegen", True))
    sanitize_mode = bool((flags or {}).get("sanitize", False))
    if sanitize_mode and not structured:
        raise ValueError(
            'flags={"sanitize": True} requires the structured emitter; '
            'it cannot be combined with flags={"structured_codegen": False}'
        )

    # Warm-path: a model-entry hit replays the entire compile from the store
    # (decoded optimized IR + stored generated source) without running any of
    # the stages below.
    model_key = None
    if store is not None:
        model_key = model_artifact_key(composition, pipeline, seed, flags)
        entry = store.get(model_key)
        if entry is not None:
            model = _model_from_store_entry(
                entry,
                composition=composition,
                pipeline=pipeline,
                opt_level=opt_level,
                flags=flags,
                seed=seed,
                stats=stats,
            )
            if model is not None:
                return model
        stats.artifact_misses += 1

    analysis_manager = AnalysisManager(
        enabled=bool((flags or {}).get("analysis_cache", True))
    )

    start = time.perf_counter()
    info = sanitize(composition, seed=seed)
    stats.sanitize_seconds = time.perf_counter() - start

    start = time.perf_counter()
    layout = build_layout(composition, info)
    stats.layout_seconds = time.perf_counter() - start

    start = time.perf_counter()
    artifacts = generate_model_ir(composition, info, layout)
    stats.codegen_seconds = time.perf_counter() - start
    stats.instructions_before = artifacts.module.instruction_count()

    # Per-function compile units of the *pre-optimization* module: the raw
    # structural fingerprints classify later edits (incremental recompiles),
    # the transitive unit keys address the optimize artifact.  Models that
    # differ only in plain parameter values (loaded from the params buffer,
    # not baked) generate identical IR and therefore share optimize entries.
    pipeline_fp = _pipeline_fingerprint(pipeline)
    function_fps = {
        name: function_fingerprint(fn)
        for name, fn in artifacts.module.functions.items()
    }
    unit_fps = unit_fingerprints(artifacts.module, pipeline_fp, flags, function_fps)

    optimized_entry = None
    opt_key = None
    if store is not None:
        opt_key = optimize_artifact_key(unit_fps)
        optimized_entry = store.get(opt_key)

    if optimized_entry is not None:
        # Optimize-entry hit: swap in the stored optimized module and skip
        # the pipeline (it was verified when first compiled).
        start = time.perf_counter()
        artifacts.module = decode_module(optimized_entry["module"])
        stats.optimize_seconds = time.perf_counter() - start
        stats.instructions_after = artifacts.module.instruction_count()
        stats.artifact_hits += 1
        analysis_stats = analysis_manager.cache_info()
    else:
        if store is not None:
            stats.artifact_misses += 1
        # The pass manager verifies at the policy's boundaries: the freshly
        # generated module is checked before the first pass runs, and the
        # optimised module after the last one.
        start = time.perf_counter()
        pipeline.run(artifacts.module, analysis_manager)
        stats.optimize_seconds = time.perf_counter() - start
        stats.instructions_after = artifacts.module.instruction_count()
        # Cache counters are snapshotted *before* lowering so the Figure 7
        # rows and the pinned analysis-manager tests keep describing the
        # optimisation pipeline alone (lowering re-reads domtree/loopinfo
        # from the same cache).
        stats.analysis_hits = analysis_manager.hits
        stats.analysis_misses = analysis_manager.misses
        stats.analysis_invalidations = analysis_manager.invalidations
        stats.analysis_skipped_passes = analysis_manager.skipped_passes
        analysis_stats = analysis_manager.cache_info()
        if store is not None:
            store.put(
                opt_key,
                {
                    "format": 1,
                    "module": encode_module(artifacts.module),
                    "instructions_after": stats.instructions_after,
                },
            )
            stats.artifact_writes += 1

    # Lowering: the structured emitter reconstructs loops/conditionals from
    # the dominator-tree and loop-info analyses the pipeline already cached.
    # ``flags={"structured_codegen": False}`` selects the legacy dispatch
    # ladder (kept for the structured-vs-dispatch differential tests and the
    # Figure 8 report).
    start = time.perf_counter()
    generator = PythonCodeGenerator(
        artifacts.module,
        structured=structured,
        analysis_manager=analysis_manager if analysis_manager.enabled else None,
        sanitize=sanitize_mode,
    )
    source = generator.generate_source()
    compiled_functions = generator.exec_source(source)
    stats.lower_seconds = time.perf_counter() - start
    stats.dispatch_fallbacks = list(generator.dispatch_fallbacks)
    stats.dispatch_fallback_reasons = dict(generator.dispatch_fallback_reasons)

    # The manager's lifetime is this compile: release the cached analyses
    # (and the pipeline's back-reference) so session-memoized models do not
    # pin dominator trees and range maps that can never be read again.
    analysis_manager.clear()
    pipeline.analysis_manager = None

    model = CompiledModel(
        composition,
        info,
        layout,
        artifacts,
        stats,
        compiled_functions,
        pipeline=pipeline,
        opt_level=opt_level,
        flags=flags,
        seed=seed,
    )
    model.analysis_stats = analysis_stats
    model.source = source
    model.unit_fingerprints = unit_fps
    model.function_fingerprints = function_fps

    if store is not None:
        store.put(
            model_key,
            {
                "format": 1,
                "info": info,
                "layout": layout,
                "grid_searches": artifacts.grid_searches,
                "module": encode_module(artifacts.module),
                "source": source,
                "unit_fingerprints": unit_fps,
                "function_fingerprints": function_fps,
                "instructions_before": stats.instructions_before,
                "instructions_after": stats.instructions_after,
                "dispatch_fallbacks": stats.dispatch_fallbacks,
                "dispatch_fallback_reasons": stats.dispatch_fallback_reasons,
            },
        )
        stats.artifact_writes += 1
    return model


def _model_from_store_entry(
    entry,
    composition: Composition,
    pipeline: PassManager,
    opt_level: Optional[int],
    flags: Optional[Dict[str, object]],
    seed: int,
    stats: CompileStats,
) -> Optional[CompiledModel]:
    """Rebuild a :class:`CompiledModel` from a model-entry store payload.

    Decodes the stored optimized module and re-executes the stored generated
    Python source — no sanitize, layout, IR generation, optimisation or
    source generation runs.  Returns ``None`` when the payload is from an
    incompatible format (treated as a miss by the caller).
    """
    from ..ir.serialize import decode_module

    if not isinstance(entry, dict) or entry.get("format") != 1:
        return None
    try:
        start = time.perf_counter()
        module = decode_module(entry["module"])
        artifacts = CompiledArtifacts(
            module=module,
            layout=entry["layout"],
            grid_searches=entry["grid_searches"],
        )
        generator = PythonCodeGenerator(
            module,
            structured=bool((flags or {}).get("structured_codegen", True)),
            sanitize=bool((flags or {}).get("sanitize", False)),
        )
        compiled_functions = generator.exec_source(entry["source"])
    except Exception:
        return None
    stats.lower_seconds = time.perf_counter() - start
    stats.instructions_before = entry["instructions_before"]
    stats.instructions_after = entry["instructions_after"]
    stats.artifact_hits += 1
    stats.dispatch_fallbacks = list(entry["dispatch_fallbacks"])
    stats.dispatch_fallback_reasons = dict(entry["dispatch_fallback_reasons"])
    pipeline.analysis_manager = None
    model = CompiledModel(
        composition,
        entry["info"],
        artifacts.layout,
        artifacts,
        stats,
        compiled_functions,
        pipeline=pipeline,
        opt_level=opt_level,
        flags=flags,
        seed=seed,
    )
    model.source = entry["source"]
    model.unit_fingerprints = dict(entry["unit_fingerprints"])
    model.function_fingerprints = dict(entry["function_fingerprints"])
    return model


def compile_model(
    composition: Composition,
    opt_level: int = 2,
    seed: int = 0,
    verify: bool = True,
) -> CompiledModel:
    """Deprecated: use :func:`repro.compile` / :meth:`repro.Session.compile`
    (or :func:`compile_composition` for the low-level path) instead.

    Kept as a thin shim so pre-driver call sites continue to work; it maps
    ``opt_level`` onto the ``default<Ok>`` pipeline alias.
    """
    warnings.warn(
        "repro.core.distill.compile_model() is deprecated; use repro.compile()"
        " or repro.Session.compile() instead",
        DeprecationWarning,
        stacklevel=2,
    )
    level = max(0, min(int(opt_level), 3))
    return compile_composition(
        composition,
        pipeline=f"default<O{level}>",
        seed=seed,
        verify="boundary" if verify else "off",
        opt_level=opt_level,
    )
