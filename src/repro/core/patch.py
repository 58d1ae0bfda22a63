"""Incremental recompilation: re-lower only the functions an edit touched.

Distill's compile pipeline is content-addressed per *compile unit* (one IR
function); this module exploits that to patch a live :class:`CompiledModel`
after a model edit instead of recompiling from scratch:

1. sanitize + layout run on the edited composition (they are cheap relative
   to optimisation and lowering, and an edit can change mined state);
2. a **layout-compatibility gate** checks that the static data structures
   (param/state/output struct layouts, input/result/monitor maps, execution
   order) are unchanged — otherwise every baked offset is suspect and the
   recompiler transparently falls back to a full compile, adopting its
   result in place;
3. a *patch module* is generated with
   :class:`~repro.core.codegen.ModelCodeGenerator` in selective mode
   (``only=changed``): full bodies for the edited mechanisms and the
   scheduler functions, bare ``node_<name>`` declarations for everything
   else;
4. regenerated functions whose structural fingerprint matches the previous
   compile are discarded (a pure parameter-value edit reaches a fixpoint
   here: plain parameters load from the params buffer, so the IR is
   bit-identical and only the layout's default param values need swapping);
5. anything genuinely stale is optimised with the model's own pipeline —
   each regenerated function as its own unit, nothing inlined across them —
   lowered with the unchanged nodes *linked in* from the previous compile
   (their compiled callables are injected into the exec namespace), and
   grafted into the live module.

The full-module compile remains the differential anchor: the fuzz oracle's
incremental leg (``python -m repro.fuzz --incremental``) asserts that a
patched model is bitwise-equal — results, monitors and final PRNG counters —
to a cold compile of the edited composition on every engine.

Patched models are deliberately **not** written back to the artifact store:
their ``unit_fingerprints`` describe the original full compile, and the cold
path would happily re-create (or re-fetch) the exact entry anyway.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Set

from ..cogframe.composition import Composition
from ..cogframe.mechanisms import GridSearchControlMechanism
from ..cogframe.sanitize import sanitize
from .codegen import ModelCodeGenerator
from .structs import StaticLayout, build_layout

__all__ = ["recompile_model"]


# ---------------------------------------------------------------------------
# Edit discovery
# ---------------------------------------------------------------------------


def _codegen_keys(composition: Composition) -> Dict[str, tuple]:
    """Everything that feeds each mechanism's generated node function.

    Besides the mechanism itself (type, ports, function parameters and — for
    control mechanisms — levels and steps), the node body bakes the incoming
    projection matrices and slices, and membership in the monitored /
    input / output sets decides which record-keeping code is emitted.
    """
    from ..driver.session import _canonical, _condition_key, _mechanism_key

    incoming: Dict[str, list] = {name: [] for name in composition.mechanisms}
    for p in composition.projections:
        incoming.setdefault(p.receiver.name, []).append(
            (p.sender.name, p.port, _canonical(p.matrix), _canonical(p.sender_slice))
        )
    return {
        name: (
            _mechanism_key(mech),
            tuple(incoming[name]),
            _condition_key(composition.conditions[name]),
            name in composition.input_nodes,
            name in composition.output_nodes,
            name in composition.monitored_nodes,
        )
        for name, mech in composition.mechanisms.items()
    }


def _diff_compositions(old: Composition, new: Composition) -> Optional[Set[str]]:
    """Mechanisms whose node function could differ between two compositions.

    Returns ``None`` when the edit is structural (mechanisms added or
    removed) and a patch cannot apply.  Scheduler-level edits (conditions,
    termination, ``max_passes``) need no entry here: the scheduler functions
    are always regenerated, and layout-affecting edits are caught by the
    compatibility gate.
    """
    if set(old.mechanisms) != set(new.mechanisms):
        return None
    old_keys, new_keys = _codegen_keys(old), _codegen_keys(new)
    return {name for name in new.mechanisms if old_keys[name] != new_keys[name]}


def _expand_changed(composition: Composition, changed: Set[str]) -> Set[str]:
    """Pull in control mechanisms whose eval kernels bake a changed step.

    A grid-search kernel inlines the functions and initial state of its step
    mechanisms, so editing a mechanism that doubles as a controller's step
    invalidates the kernel even though the controller itself was not named.
    """
    expanded = set(changed)
    for name, mech in composition.mechanisms.items():
        if name in expanded or not isinstance(mech, GridSearchControlMechanism):
            continue
        if any(step.mechanism.name in changed for step in mech.steps):
            expanded.add(name)
    return expanded


# ---------------------------------------------------------------------------
# Layout compatibility
# ---------------------------------------------------------------------------


def _layout_compatible(old: StaticLayout, new: StaticLayout) -> bool:
    """True when every offset baked into the previous compile still holds.

    Compares the three static structs by full structural signature (field
    names and types in order — :func:`repro.ir.fingerprint.type_signature`)
    plus the buffer maps and the execution order.  Parameter *values* are
    free to differ: they live in the params buffer, not the layout shape.
    """
    from ..ir.fingerprint import type_signature

    return (
        type_signature(old.params_struct) == type_signature(new.params_struct)
        and type_signature(old.state_struct) == type_signature(new.state_struct)
        and type_signature(old.output_struct) == type_signature(new.output_struct)
        and old.execution_order == new.execution_order
        and old.input_layout == new.input_layout
        and old.result_layout == new.result_layout
        and old.monitor_layout == new.monitor_layout
        and old.output_offsets == new.output_offsets
        and old.max_passes == new.max_passes
        and old.input_size == new.input_size
    )


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _graft_functions(old_module, patch_module) -> None:
    """Install the patch module's defined functions into the live module.

    Replaced functions keep their name slot; calls inside grafted functions
    are re-pointed at the live module's functions (unchanged nodes keep
    their original definitions; intrinsics are declared on demand).
    """
    from ..ir.instructions import Call

    grafted = {}
    for fn in patch_module.defined_functions():
        old_module.functions[fn.name] = fn
        fn.module = old_module
        grafted[fn.name] = fn
    for fn in grafted.values():
        for instr in fn.instructions():
            if not isinstance(instr, Call):
                continue
            callee = instr.callee
            if callee.module is old_module:
                continue
            target = old_module.functions.get(callee.name)
            if target is None:
                if callee.intrinsic_name:
                    target = old_module.declare_intrinsic(callee.intrinsic_name)
                else:
                    callee.module = old_module
                    old_module.functions[callee.name] = callee
                    target = callee
            instr.callee = target


def _merge_grid_searches(model, regenerated) -> None:
    if not regenerated:
        return
    by_name = {g.control_name: g for g in regenerated}
    merged = [by_name.pop(g.control_name, g) for g in model.artifacts.grid_searches]
    merged.extend(by_name.values())
    model.artifacts.grid_searches = merged


def _invalidate_engines(model) -> None:
    model.close_engines()
    with model._engine_lock:
        model._engine_instances.clear()


def _swap_metadata(model, composition, info, layout) -> None:
    model.composition = composition
    model.info = info
    model.layout = layout
    model.artifacts.layout = layout


def _adopt(model, fresh) -> None:
    """Replace ``model``'s contents with a freshly compiled model's, in place.

    Used by the full-recompile fallback so callers keep one stable handle
    regardless of which path an edit took.  Cumulative recompile counters
    survive the swap.
    """
    patches = model.stats.artifact_patches
    recompile_seconds = model.stats.recompile_seconds
    model.composition = fresh.composition
    model.info = fresh.info
    model.layout = fresh.layout
    model.artifacts = fresh.artifacts
    model.module = fresh.module
    model.pipeline = fresh.pipeline
    model.pipeline_text = fresh.pipeline_text
    model.opt_level = fresh.opt_level
    model.flags = fresh.flags
    model.seed = fresh.seed
    model.stats = fresh.stats
    model.stats.artifact_patches = patches
    model.stats.recompile_seconds = recompile_seconds
    model.analysis_stats = fresh.analysis_stats
    model.source = fresh.source
    model.unit_fingerprints = fresh.unit_fingerprints
    model.function_fingerprints = fresh.function_fingerprints
    model._compiled = fresh._compiled
    with model._engine_lock:
        model._engine_instances.clear()


def _full_recompile(model, composition, store, started, reason: str) -> Dict[str, object]:
    from .distill import compile_composition

    fresh = compile_composition(
        composition,
        pipeline=model.pipeline,
        seed=model.seed,
        verify=None,  # a prebuilt manager keeps its own policy
        flags=model.flags or None,
        opt_level=model.opt_level,
        store=store,
    )
    _invalidate_engines(model)
    _adopt(model, fresh)
    elapsed = time.perf_counter() - started
    model.stats.recompile_seconds += elapsed
    return {
        "mode": "full",
        "reason": reason,
        "changed": None,
        "relowered": sorted(fresh._compiled),
        "seconds": elapsed,
    }


def recompile_model(
    model,
    composition: Optional[Composition] = None,
    changed: Optional[Iterable[str]] = None,
    store=None,
) -> Dict[str, object]:
    """Patch ``model`` in place to match an edited composition.

    ``composition`` defaults to the model's own (for in-place edits);
    ``changed`` names the edited mechanisms.  When both are omitted — or
    when ``changed`` is omitted for an in-place edit — every mechanism is
    regenerated and the fingerprint fixpoint discards the unchanged ones.
    When a *distinct* composition is passed without ``changed``, the edit
    set is discovered by structural diff.

    Contract for explicit ``changed``: it must cover every mechanism whose
    parameters, projections or function were edited (controls whose steps
    reference a changed mechanism are pulled in automatically).  The fuzz
    oracle's incremental leg cross-checks the result against a cold compile.
    """
    from ..analysis.manager import AnalysisManager
    from ..backends.pycodegen import PythonCodeGenerator
    from ..ir.fingerprint import function_fingerprint

    started = time.perf_counter()
    stats = model.stats
    new_composition = composition if composition is not None else model.composition

    if changed is not None:
        if set(new_composition.mechanisms) != set(model.composition.mechanisms):
            return _full_recompile(
                model, new_composition, store, started, "mechanism set changed"
            )
        changed_set = set(changed)
        unknown = changed_set - set(new_composition.mechanisms)
        if unknown:
            raise KeyError(f"changed names unknown mechanisms: {sorted(unknown)}")
    elif new_composition is model.composition:
        changed_set = set(new_composition.mechanisms)
    else:
        diffed = _diff_compositions(model.composition, new_composition)
        if diffed is None:
            return _full_recompile(
                model, new_composition, store, started, "mechanism set changed"
            )
        changed_set = diffed
    changed_set = _expand_changed(new_composition, changed_set)

    # Re-mine types/shapes/state on the edited composition: cheap relative
    # to optimise+lower, and edits can move the sanitize-baked values.
    info = sanitize(new_composition, seed=model.seed)
    layout = build_layout(new_composition, info)
    if not _layout_compatible(model.layout, layout):
        return _full_recompile(
            model, new_composition, store, started, "layout incompatible"
        )

    generator = ModelCodeGenerator(new_composition, info, layout, only=changed_set)
    patch_artifacts = generator.generate()
    patch_module = patch_artifacts.module

    new_fps = {
        fn.name: function_fingerprint(fn) for fn in patch_module.defined_functions()
    }
    stale = sorted(
        name
        for name, fp in new_fps.items()
        if model.function_fingerprints.get(name) != fp
    )

    if not stale:
        # Pure parameter-value edit: the IR is bit-identical (plain params
        # and grid levels load from the params buffer), so only the layout's
        # default values — and the parallel engines' grid metadata — move.
        _swap_metadata(model, new_composition, info, layout)
        _merge_grid_searches(model, generator.grid_searches)
        _invalidate_engines(model)
        elapsed = time.perf_counter() - started
        stats.recompile_seconds += elapsed
        return {
            "mode": "params-only",
            "changed": sorted(changed_set),
            "relowered": [],
            "seconds": elapsed,
        }

    flags = model.flags or {}
    analysis_manager = AnalysisManager(enabled=bool(flags.get("analysis_cache", True)))
    # A patch keeps its compile units separate: nothing is inlined across
    # them (a node body into the scheduler functions, run_pass into
    # run_trial), so the patch optimises and lowers each regenerated unit
    # once instead of again inside its callers.
    for fn in patch_module.defined_functions():
        fn.attributes["noinline"] = True
    model.pipeline.run(patch_module, analysis_manager)

    lowerer = PythonCodeGenerator(
        patch_module,
        structured=bool(flags.get("structured_codegen", True)),
        analysis_manager=analysis_manager if analysis_manager.enabled else None,
        sanitize=bool(flags.get("sanitize", False)),
    )
    # Unchanged nodes link in from the previous compile: their declarations
    # resolve to the existing compiled callables through the exec namespace.
    extra_symbols = {
        lowerer._py_name(fn): model._compiled[fn.name]
        for fn in patch_module.functions.values()
        if fn.is_declaration and not fn.intrinsic_name
    }
    compiled = lowerer.compile(extra_symbols=extra_symbols)
    analysis_manager.clear()
    model.pipeline.analysis_manager = None

    _graft_functions(model.module, patch_module)
    model._compiled.update(compiled)
    model.function_fingerprints.update(new_fps)
    _swap_metadata(model, new_composition, info, layout)
    _merge_grid_searches(model, generator.grid_searches)
    # The stored source and unit keys describe the original full compile;
    # a patched artifact is never written back to the store.
    model.source = None
    _invalidate_engines(model)

    elapsed = time.perf_counter() - started
    stats.artifact_patches += len(stale)
    stats.recompile_seconds += elapsed
    return {
        "mode": "patched",
        "changed": sorted(changed_set),
        "relowered": stale,
        "seconds": elapsed,
    }
