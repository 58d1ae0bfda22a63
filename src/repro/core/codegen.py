"""Whole-model code generation (paper sections 3.4–3.6).

Given a composition, its sanitization info and the static layout, this module
emits a complete IR module:

* ``node_<name>``   — one function per mechanism (section 3.4.1 templates);
* ``eval_<control>`` — the grid-search evaluation kernel of each control
  mechanism (the unit of parallel / GPU execution, section 3.6);
* ``control_input_<control>`` — helper used by the parallel drivers to obtain
  the controller's true input values;
* ``run_pass``      — one scheduler pass: compiled activation conditions plus
  node calls (section 3.5: optimisation crosses the scheduler/node boundary);
* ``run_pass_rest`` — the same pass with control mechanisms skipped (used by
  the multicore/GPU drivers which evaluate the grid themselves);
* ``run_trial``     — per-trial state reset, the pass loop, compiled
  termination condition, monitor recording and the result record;
* ``run_model``     — the trial loop.

Node functions are marked ``alwaysinline``; at -O2/-O3 the inliner collapses
the entire model (scheduler included) into ``run_model``, which is what
enables the whole-model optimisations the paper credits for its largest
speedups (Figure 5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..cogframe import conditions as cond
from ..cogframe.composition import Composition
from ..cogframe.mechanisms import GridSearchControlMechanism, Mechanism
from ..cogframe.sanitize import SanitizationInfo
from ..errors import CompilationError
from ..ir import (
    BOOL,
    F64,
    I64,
    VOID,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    Value,
)
from ..ir.types import ArrayType
from .node_codegen import (
    EvalEmitContext,
    MechEmitContext,
    emit_node_function,
    emit_port_values,
    node_function_type,
    store_outputs,
)
from .structs import StaticLayout


@dataclass
class GridSearchInfo:
    """Metadata about a compiled grid-search region (consumed by backends)."""

    control_name: str
    kernel_name: str
    input_helper_name: str
    levels: List[List[float]]
    grid_size: int
    counter_stride: int
    input_size: int
    #: Bytes of read-write state replicated per evaluation/thread (used by the
    #: GPU simulator's occupancy model; includes the replicated PRNG state).
    private_bytes_per_eval: int


@dataclass
class CompiledArtifacts:
    """Everything the drivers need besides the IR module itself."""

    module: Module
    layout: StaticLayout
    grid_searches: List[GridSearchInfo] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Condition compilation
# ---------------------------------------------------------------------------


def emit_condition(
    builder: IRBuilder,
    condition: cond.Condition,
    layout: StaticLayout,
    pass_idx: Value,
    state_ptr: Value,
    prev_ptr: Value,
) -> Value:
    """Lower an activation/termination condition to an i1 value."""
    b = builder
    if isinstance(condition, cond.Always):
        return b.true()
    if isinstance(condition, cond.Never):
        return b.false()
    if isinstance(condition, cond.AtPass):
        return b.icmp("eq", pass_idx, b.i64(condition.n))
    if isinstance(condition, (cond.AfterPass, cond.AfterNPasses)):
        return b.icmp("sge", pass_idx, b.i64(condition.n))
    if isinstance(condition, cond.EveryNPasses):
        return b.icmp(
            "eq", b.srem(pass_idx, b.i64(condition.n)), b.i64(condition.offset)
        )
    if isinstance(condition, cond.EveryNCalls):
        count_field = StaticLayout.count_field(condition.dependency)
        index = layout.state_struct.field_index(count_field)
        count = b.load(b.gep(state_ptr, [0, index]))
        count_int = b.fptosi(count)
        positive = b.icmp("sgt", count_int, b.i64(0))
        divisible = b.icmp("eq", b.srem(count_int, b.i64(condition.n)), b.i64(0))
        return b.and_(positive, divisible)
    if isinstance(condition, cond.ThresholdCrossed):
        offset, size = layout.output_offsets[condition.node]
        field_index = layout.output_struct.field_index(
            StaticLayout.output_field(condition.node)
        )
        field_ptr = b.gep(prev_ptr, [0, field_index])
        field_type = layout.output_struct.field_type(field_index)
        values = []
        for i in range(size):
            if field_type.is_scalar:
                values.append(b.load(field_ptr))
            else:
                values.append(b.load(b.gep(field_ptr, [0, i])))
        if condition.statistic == "max_abs":
            stats = [b.fabs(v) for v in values]
            stat = stats[0]
            for v in stats[1:]:
                stat = b.fmax(stat, v)
        elif condition.statistic == "max":
            stat = values[0]
            for v in values[1:]:
                stat = b.fmax(stat, v)
        else:  # min
            stat = values[0]
            for v in values[1:]:
                stat = b.fmin(stat, v)
        predicate = {">=": "oge", ">": "ogt", "<=": "ole", "<": "olt"}[condition.comparator]
        return b.fcmp(predicate, stat, b.f64(condition.threshold))
    if isinstance(condition, cond.All):
        result = b.true()
        for sub in condition.conditions:
            result = b.and_(
                result, emit_condition(b, sub, layout, pass_idx, state_ptr, prev_ptr)
            )
        return result
    if isinstance(condition, cond.Any):
        result = b.false()
        for sub in condition.conditions:
            result = b.or_(
                result, emit_condition(b, sub, layout, pass_idx, state_ptr, prev_ptr)
            )
        return result
    if isinstance(condition, cond.Not):
        inner = emit_condition(b, condition.condition, layout, pass_idx, state_ptr, prev_ptr)
        return b.xor(inner, b.true())
    raise CompilationError(
        f"condition {condition.describe()} is outside the compilable subset"
    )


# ---------------------------------------------------------------------------
# Whole-model generator
# ---------------------------------------------------------------------------


class ModelCodeGenerator:
    """Emit the full IR module for a composition.

    ``only`` selects *selective* generation for incremental recompiles
    (see :mod:`repro.core.patch`): node bodies are emitted only for the
    named mechanisms, every other mechanism contributes just a
    ``node_<name>`` declaration (same type, no blocks), and the scheduler
    functions — which call every node and are cheap relative to node
    bodies — are always regenerated.  The resulting *patch module* links
    against the unchanged nodes of a previous compile at lowering time.
    """

    def __init__(
        self,
        composition: Composition,
        info: SanitizationInfo,
        layout: StaticLayout,
        only: Optional[Iterable[str]] = None,
    ):
        self.composition = composition
        self.info = info
        self.layout = layout
        self.only = None if only is None else set(only)
        self.module = Module(f"distill_{composition.name}")
        self.module.add_struct(layout.params_struct)
        self.module.add_struct(layout.state_struct)
        self.module.add_struct(layout.output_struct)
        self.grid_searches: List[GridSearchInfo] = []
        self._node_type: Optional[FunctionType] = None

    # -- entry point ---------------------------------------------------------------
    def generate(self) -> CompiledArtifacts:
        for name in self.layout.execution_order:
            mech = self.composition.mechanisms[name]
            if self.only is not None and name not in self.only:
                self._declare_node(name)
                continue
            if isinstance(mech, GridSearchControlMechanism):
                self._emit_control(mech)
            else:
                emit_node_function(self.module, self.layout, self.composition, self.info, mech)
        self._emit_run_pass("run_pass", include_control=True)
        self._emit_run_pass("run_pass_rest", include_control=False)
        self._emit_run_trial()
        self._emit_run_model()
        return CompiledArtifacts(self.module, self.layout, self.grid_searches)

    def _declare_node(self, name: str) -> None:
        """Declare ``node_<name>`` so schedulers can call an unchanged node.

        Only the node entry point needs declaring: the scheduler functions
        never reference a control's ``eval_``/``control_input_`` helpers
        directly (those are reached through the node body or the parallel
        engines' :class:`GridSearchInfo`, both of which an incremental
        recompile carries over from the previous compile).
        """
        if self._node_type is None:
            # One signature object serves every declaration (types are
            # immutable values).
            self._node_type = node_function_type(self.layout)
        self.module.add_function(
            f"node_{name}", self._node_type, ["params", "state", "prev", "cur", "ext"]
        )

    # -- control mechanisms ------------------------------------------------------------
    def _emit_control(self, control: GridSearchControlMechanism) -> None:
        kernel = self._emit_eval_kernel(control)
        helper = self._emit_control_input_helper(control)
        self._emit_control_node(control, kernel)
        prng_bytes = 2 * 8
        state_bytes = sum(
            np.asarray(v).size * 8
            for step in control.steps
            for v in step.mechanism.state_spec().values()
        )
        self.grid_searches.append(
            GridSearchInfo(
                control_name=control.name,
                kernel_name=kernel.name,
                input_helper_name=helper.name,
                levels=[list(lv) for lv in control.levels],
                grid_size=control.grid_size,
                counter_stride=control.counter_stride_per_evaluation(),
                input_size=control.input_size,
                private_bytes_per_eval=prng_bytes + state_bytes + 8 * control.input_size,
            )
        )

    def _emit_eval_kernel(self, control: GridSearchControlMechanism) -> Function:
        """``eval_<name>(params*, in..., alloc..., key, counter) -> cost``."""
        num_in = control.input_size
        num_signals = len(control.levels)
        arg_types = [PointerType(self.layout.params_struct)]
        arg_names = ["params"]
        arg_types += [F64] * num_in
        arg_names += [f"in{i}" for i in range(num_in)]
        arg_types += [F64] * num_signals
        arg_names += [f"alloc{i}" for i in range(num_signals)]
        arg_types += [F64, F64]
        arg_names += ["rng_key", "rng_counter"]
        fn = self.module.add_function(
            f"eval_{control.name}", FunctionType(F64, arg_types), arg_names
        )
        block = fn.append_block("entry")
        b = IRBuilder(block)
        b.current_source_node = control.name

        params_ptr = fn.args[0]
        inputs = fn.args[1 : 1 + num_in]
        allocs = fn.args[1 + num_in : 1 + num_in + num_signals]
        rng_key, rng_counter = fn.args[-2], fn.args[-1]

        # Kernel-local PRNG state (the replicated read-write state of §3.6).
        rng_state = b.alloca(ArrayType(F64, 2), name="eval_rng")
        rng_ptr = b.gep(rng_state, [0, 0])
        b.store(rng_key, rng_ptr)
        b.store(rng_counter, b.gep(rng_state, [0, 1]))

        produced: Dict[str, List[Value]] = {}
        for step in control.steps:
            mech = step.mechanism
            b.current_source_node = mech.name
            variable: List[Value] = []
            for source in step.sources:
                kind = source[0]
                if kind == "input":
                    _, start, length = source
                    variable.extend(inputs[start : start + length])
                elif kind == "allocation":
                    index = source[1]
                    if index == -1:
                        variable.extend(allocs)
                    else:
                        variable.append(allocs[index])
                else:
                    variable.extend(produced[source[1]])
            ctx = EvalEmitContext(
                b,
                self.layout,
                mech.name,
                params_ptr,
                rng_ptr,
                self.info.mechanisms[mech.name].state,
            )
            produced[mech.name] = mech.function.emit(ctx, variable)
        b.current_source_node = control.name
        b.ret(produced[control.objective_step][0])
        return fn

    def _emit_control_input_helper(self, control: GridSearchControlMechanism) -> Function:
        """``control_input_<name>(params, state, prev, cur, ext, out*)``."""
        arg_types = list(node_function_type(self.layout).param_types) + [PointerType(F64)]
        fn = self.module.add_function(
            f"control_input_{control.name}",
            FunctionType(VOID, arg_types),
            ["params", "state", "prev", "cur", "ext", "out"],
        )
        block = fn.append_block("entry")
        b = IRBuilder(block)
        b.current_source_node = control.name
        params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr, out_ptr = fn.args
        variable = emit_port_values(
            b, self.layout, self.composition, control, prev_ptr, ext_ptr
        )
        for i, value in enumerate(variable):
            b.store(value, b.gep(out_ptr, [i]))
        b.ret()
        return fn

    def _emit_control_node(self, control: GridSearchControlMechanism, kernel: Function) -> None:
        """``node_<control>``: the serial grid loop with reservoir selection."""
        layout = self.layout
        fn = self.module.add_function(
            f"node_{control.name}",
            node_function_type(layout),
            ["params", "state", "prev", "cur", "ext"],
        )
        # The grid loop is deliberately *not* inlined into the trial driver:
        # it is the parallel region backends may replace.
        fn.attributes["alwaysinline"] = False
        params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr = fn.args

        entry = fn.append_block("entry")
        loop = fn.append_block("grid_loop")
        tie_check = fn.append_block("tie_check")
        tie_break = fn.append_block("tie_break")
        latch = fn.append_block("grid_latch")
        done = fn.append_block("grid_done")

        b = IRBuilder(entry)
        b.current_source_node = control.name

        # True (undistorted) controller input.
        variable = emit_port_values(b, layout, self.composition, control, prev_ptr, ext_ptr)

        ctx = MechEmitContext(b, layout, control.name, params_ptr, state_ptr)
        epoch = ctx.load_state("eval_epoch")[0]
        rng_ptr = ctx.rng_ptr()

        num_signals = len(control.levels)
        level_counts = [len(lv) for lv in control.levels]
        grid_size = control.grid_size
        stride = control.counter_stride_per_evaluation()
        key = b.load(rng_ptr, name="ctl_key")
        counter_base = b.fmul(epoch, b.f64(float(grid_size * stride)))

        b.br(loop)

        # -- loop body -------------------------------------------------------------
        b.position_at_end(loop)
        idx = b.phi(I64, "grid_idx")
        best_cost = b.phi(F64, "best_cost")
        ties = b.phi(F64, "ties")
        best_allocs = [b.phi(F64, f"best_alloc{i}") for i in range(num_signals)]

        # Decompose the flat index into per-signal indices and level values.
        allocs: List[Value] = []
        remainder = idx
        for signal in range(num_signals):
            tail = 1
            for later in range(signal + 1, num_signals):
                tail *= level_counts[later]
            signal_idx = b.sdiv(remainder, b.i64(tail))
            remainder = b.srem(remainder, b.i64(tail))
            levels_field = StaticLayout.param_field(control.name, f"levels{signal}")
            findex = layout.params_struct.field_index(levels_field)
            ftype = layout.params_struct.field_type(findex)
            fptr = b.gep(params_ptr, [0, findex])
            if ftype.is_scalar:
                allocs.append(b.load(fptr))
            else:
                allocs.append(b.load(b.gep(fptr, [0, signal_idx])))

        counter = b.fadd(counter_base, b.fmul(b.sitofp(idx), b.f64(float(stride))))
        cost = b.call(kernel, [params_ptr] + variable + allocs + [key, counter], "cost")

        is_less = b.fcmp("olt", cost, best_cost)
        is_equal = b.fcmp("oeq", cost, best_cost)
        new_best_cost = b.select(is_less, cost, best_cost)
        ties_after = b.select(
            is_less, b.f64(1.0), b.select(is_equal, b.fadd(ties, b.f64(1.0)), ties)
        )
        b.cond_br(is_equal, tie_break, tie_check)

        # Tie: draw from the controller's own stream (reservoir sampling).
        b.position_at_end(tie_break)
        draw = b.rng_uniform(rng_ptr)
        take_tie = b.fcmp("olt", draw, b.fdiv(b.f64(1.0), ties_after))
        b.br(tie_check)

        b.position_at_end(tie_check)
        tie_taken = b.phi(BOOL, "tie_taken")
        tie_taken.add_incoming(b.false(), loop)
        tie_taken.add_incoming(take_tie, tie_break)
        take = b.or_(is_less, tie_taken)
        next_best_allocs = [
            b.select(take, alloc, prev_best)
            for alloc, prev_best in zip(allocs, best_allocs)
        ]
        next_idx = b.add(idx, b.i64(1))
        more = b.icmp("slt", next_idx, b.i64(grid_size))
        b.br(latch)

        b.position_at_end(latch)
        b.cond_br(more, loop, done)

        # Wire up the loop phis.
        idx.add_incoming(b.i64(0), entry)
        idx.add_incoming(next_idx, latch)
        best_cost.add_incoming(b.f64(float("inf")), entry)
        best_cost.add_incoming(new_best_cost, latch)
        ties.add_incoming(b.f64(0.0), entry)
        ties.add_incoming(ties_after, latch)
        for i, phi in enumerate(best_allocs):
            phi.add_incoming(b.f64(float(control.levels[i][0])), entry)
            phi.add_incoming(next_best_allocs[i], latch)

        # -- after the loop ----------------------------------------------------------
        b.position_at_end(done)
        final_allocs = [b.phi(F64, f"final_alloc{i}") for i in range(num_signals)]
        final_cost = b.phi(F64, "final_cost")
        for i, phi in enumerate(final_allocs):
            phi.add_incoming(next_best_allocs[i], latch)
        final_cost.add_incoming(new_best_cost, latch)

        ctx_done = MechEmitContext(b, layout, control.name, params_ptr, state_ptr)
        ctx_done.store_state("last_best_cost", [final_cost])
        store_outputs(b, layout, control.name, cur_ptr, final_allocs)
        b.ret()

    # -- pass / trial / model drivers ------------------------------------------------------
    def _emit_run_pass(self, name: str, include_control: bool) -> Function:
        layout = self.layout
        arg_types = list(node_function_type(layout).param_types) + [I64, I64]
        fn = self.module.add_function(
            name,
            FunctionType(VOID, arg_types),
            ["params", "state", "prev", "cur", "ext", "pass_idx", "trial_idx"],
        )
        fn.attributes["alwaysinline"] = True
        params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr, pass_idx, trial_idx = fn.args
        current = fn.append_block("entry")

        # The interpretive runner evaluates every node's activation condition
        # against a *start-of-pass* snapshot of the scheduler state (execution
        # counts in particular).  Emit all condition values in the entry block,
        # before any node call increments a counter, so that an EveryNCalls
        # condition whose dependency runs earlier in the same pass sees the
        # pre-pass count exactly as the reference and per-node schedulers do.
        # (prev/cur double buffering already makes ThresholdCrossed stable.)
        scheduled = []
        cond_values: Dict[str, Value] = {}
        entry_builder = IRBuilder(current)
        for node_name in layout.execution_order:
            mech = self.composition.mechanisms[node_name]
            is_control = isinstance(mech, GridSearchControlMechanism)
            if is_control and not include_control:
                continue
            scheduled.append((node_name, is_control))
            condition = self.composition.conditions[node_name]
            cond_values[node_name] = emit_condition(
                entry_builder, condition, layout, pass_idx, state_ptr, prev_ptr
            )

        for node_name, is_control in scheduled:
            b = IRBuilder(current)
            run_block = fn.append_block(f"run_{node_name}")
            next_block = fn.append_block(f"after_{node_name}")
            b.cond_br(cond_values[node_name], run_block, next_block)

            b = IRBuilder(run_block)
            b.current_source_node = node_name
            if is_control:
                # epoch = trial * max_passes + pass, written before the search.
                epoch = b.add(
                    b.mul(trial_idx, b.i64(layout.max_passes)), pass_idx
                )
                ctx = MechEmitContext(b, layout, node_name, params_ptr, state_ptr)
                ctx.store_state("eval_epoch", [b.sitofp(epoch)])
            node_fn = self.module.get_function(f"node_{node_name}")
            b.call(node_fn, [params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr])
            # Execution-count metadata (read by EveryNCalls and the modeller).
            count_index = layout.state_struct.field_index(StaticLayout.count_field(node_name))
            count_ptr = b.gep(state_ptr, [0, count_index])
            b.store(b.fadd(b.load(count_ptr), b.f64(1.0)), count_ptr)
            b.br(next_block)
            current = next_block

        IRBuilder(current).ret()
        return fn

    def _emit_run_trial(self) -> Function:
        layout = self.layout
        arg_types = list(node_function_type(layout).param_types) + [
            PointerType(F64),  # results
            PointerType(F64),  # monitor
            I64,  # trial index
        ]
        fn = self.module.add_function(
            "run_trial",
            FunctionType(I64, arg_types),
            ["params", "state", "prev", "cur", "ext", "results", "monitor", "trial_idx"],
        )
        params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr, results_ptr, monitor_ptr, trial_idx = fn.args

        entry = fn.append_block("entry")
        pass_header = fn.append_block("pass_header")
        pass_body = fn.append_block("pass_body")
        trial_done = fn.append_block("trial_done")

        b = IRBuilder(entry)
        # Reset read-write state (integrators, counters) — PRNG keys persist.
        for offset, values in layout.state_reset_entries:
            for i, value in enumerate(values):
                slot_index = self._state_slot_gep(b, state_ptr, offset + i)
                b.store(b.f64(float(value)), slot_index)
        # Zero the double buffers.
        for buffer_ptr in (prev_ptr, cur_ptr):
            for slot in range(layout.output_struct.slot_count()):
                b.store(b.f64(0.0), self._output_slot_gep(b, buffer_ptr, slot))
        b.br(pass_header)

        # -- pass loop header: termination check -------------------------------------------
        b.position_at_end(pass_header)
        pass_idx = b.phi(I64, "pass_idx")
        pass_idx.add_incoming(b.i64(0), entry)
        not_first = b.icmp("sgt", pass_idx, b.i64(0))
        terminated = emit_condition(
            b, self.composition.termination, layout, pass_idx, state_ptr, prev_ptr
        )
        over_limit = b.icmp("sge", pass_idx, b.i64(layout.max_passes))
        stop = b.or_(over_limit, b.and_(not_first, terminated))
        b.cond_br(stop, trial_done, pass_body)

        # -- pass body ------------------------------------------------------------------------
        b.position_at_end(pass_body)
        run_pass = self.module.get_function("run_pass")
        b.call(
            run_pass,
            [params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr, pass_idx, trial_idx],
        )
        # cur -> prev (double-buffer swap by copy).
        for slot in range(layout.output_struct.slot_count()):
            value = b.load(self._output_slot_gep(b, cur_ptr, slot))
            b.store(value, self._output_slot_gep(b, prev_ptr, slot))
        # Monitor recording (end-of-pass values).
        if layout.monitor_size:
            record = b.add(b.mul(trial_idx, b.i64(layout.max_passes)), pass_idx)
            record_base = b.mul(record, b.i64(layout.monitor_size))
            for node_name, (offset, size) in layout.monitor_layout.items():
                out_offset, _ = layout.output_offsets[node_name]
                for i in range(size):
                    value = b.load(self._output_slot_gep(b, prev_ptr, out_offset + i))
                    slot_ptr = b.gep(monitor_ptr, [b.add(record_base, b.i64(offset + i))])
                    b.store(value, slot_ptr)
        next_pass = b.add(pass_idx, b.i64(1))
        pass_idx.add_incoming(next_pass, pass_body)
        b.br(pass_header)

        # -- trial end: result record ------------------------------------------------------------
        b.position_at_end(trial_done)
        record_size = layout.result_record_size()
        record_base = b.mul(trial_idx, b.i64(record_size))
        for node_name, (offset, size) in layout.result_layout.items():
            out_offset, _ = layout.output_offsets[node_name]
            for i in range(size):
                value = b.load(self._output_slot_gep(b, prev_ptr, out_offset + i))
                b.store(value, b.gep(results_ptr, [b.add(record_base, b.i64(offset + i))]))
        b.store(
            b.sitofp(pass_idx),
            b.gep(results_ptr, [b.add(record_base, b.i64(layout.result_size))]),
        )
        b.ret(pass_idx)
        return fn

    def _emit_run_model(self) -> Function:
        layout = self.layout
        arg_types = [
            PointerType(layout.params_struct),
            PointerType(layout.state_struct),
            PointerType(layout.output_struct),
            PointerType(layout.output_struct),
            PointerType(F64),  # all external inputs, row-major
            PointerType(F64),  # results
            PointerType(F64),  # monitor
            I64,  # num_trials
            I64,  # num_input_rows
        ]
        fn = self.module.add_function(
            "run_model",
            FunctionType(VOID, arg_types),
            [
                "params",
                "state",
                "prev",
                "cur",
                "inputs",
                "results",
                "monitor",
                "num_trials",
                "num_rows",
            ],
        )
        (
            params_ptr,
            state_ptr,
            prev_ptr,
            cur_ptr,
            inputs_ptr,
            results_ptr,
            monitor_ptr,
            num_trials,
            num_rows,
        ) = fn.args

        entry = fn.append_block("entry")
        header = fn.append_block("trial_header")
        body = fn.append_block("trial_body")
        done = fn.append_block("done")

        b = IRBuilder(entry)
        b.br(header)

        b.position_at_end(header)
        trial = b.phi(I64, "trial")
        trial.add_incoming(b.i64(0), entry)
        more = b.icmp("slt", trial, num_trials)
        b.cond_br(more, body, done)

        b.position_at_end(body)
        row = b.srem(trial, num_rows)
        ext_ptr = b.gep(inputs_ptr, [b.mul(row, b.i64(max(layout.input_size, 1)))])
        run_trial = self.module.get_function("run_trial")
        b.call(
            run_trial,
            [params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr, results_ptr, monitor_ptr, trial],
        )
        next_trial = b.add(trial, b.i64(1))
        trial.add_incoming(next_trial, body)
        b.br(header)

        b.position_at_end(done)
        b.ret()
        return fn

    # -- small helpers ---------------------------------------------------------------------------
    def _output_slot_gep(self, b: IRBuilder, buffer_ptr: Value, slot: int) -> Value:
        """Pointer to a linear slot of the output struct (by field + element)."""
        return self._slot_gep(b, self.layout.output_struct, buffer_ptr, slot, "output")

    def _state_slot_gep(self, b: IRBuilder, state_ptr: Value, slot: int) -> Value:
        return self._slot_gep(b, self.layout.state_struct, state_ptr, slot, "state")

    @staticmethod
    def _slot_gep(b: IRBuilder, struct, ptr: Value, slot: int, what: str) -> Value:
        try:
            index, within = struct.field_at_slot(slot)
        except IndexError:
            raise CompilationError(f"{what} slot {slot} out of range") from None
        field_ptr = b.gep(ptr, [0, index])
        if struct.field_type(index).is_scalar:
            return field_ptr
        return b.gep(field_ptr, [0, within])


def generate_model_ir(
    composition: Composition, info: SanitizationInfo, layout: StaticLayout
) -> CompiledArtifacts:
    """Convenience wrapper around :class:`ModelCodeGenerator`."""
    return ModelCodeGenerator(composition, info, layout).generate()
