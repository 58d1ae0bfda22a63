"""Per-node code generation: library-function templates to IR (paper §3.4).

Every mechanism becomes one IR function

``node_<name>(params*, state*, prev*, cur*, ext*)``

that reads its inputs from the previous-pass output structure (or from the
flattened external-input buffer for input nodes), evaluates the mechanism's
library-function template fully unrolled over the statically known shapes,
updates its read-write state, and writes its outputs into the current-pass
output structure.  Projection matrices are baked into the IR as constants;
mechanism parameters are loaded from the static parameter structure so the
model can be re-run with different parameter values without recompilation.

Grid-search control mechanisms get two functions instead: an *evaluation
kernel* (one candidate allocation in, scalar cost out — the unit the parallel
and GPU backends distribute) and the node function containing the grid loop
with reservoir-sampling selection; these are emitted by
:mod:`repro.core.codegen` using the :class:`EvalEmitContext` defined here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cogframe.composition import Composition
from ..cogframe.functions.base import EmitContext
from ..cogframe.mechanisms import GridSearchControlMechanism, Mechanism
from ..cogframe.sanitize import SanitizationInfo
from ..errors import CompilationError
from ..ir import (
    F64,
    VOID,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    Value,
)
from .structs import StaticLayout


class MechEmitContext(EmitContext):
    """EmitContext backed by the static parameter/state structures."""

    def __init__(
        self,
        builder: IRBuilder,
        layout: StaticLayout,
        mech_name: str,
        params_ptr: Value,
        state_ptr: Value,
    ):
        self.builder = builder
        self.layout = layout
        self.mech_name = mech_name
        self.params_ptr = params_ptr
        self.state_ptr = state_ptr

    # -- helpers --------------------------------------------------------------------
    def _field_values(self, struct_ptr: Value, field: str) -> List[Value]:
        b = self.builder
        struct = struct_ptr.type.pointee
        index = struct.field_index(field)
        ftype = struct.field_type(index)
        field_ptr = b.gep(struct_ptr, [0, index], name=field)
        if ftype.is_scalar:
            return [b.load(field_ptr)]
        values = []
        for i in range(ftype.count):
            element_ptr = b.gep(field_ptr, [0, i])
            values.append(b.load(element_ptr))
        return values

    def _store_field(self, struct_ptr: Value, field: str, values: Sequence[Value]) -> None:
        b = self.builder
        struct = struct_ptr.type.pointee
        index = struct.field_index(field)
        ftype = struct.field_type(index)
        field_ptr = b.gep(struct_ptr, [0, index], name=field)
        if ftype.is_scalar:
            b.store(values[0], field_ptr)
            return
        if len(values) != ftype.count:
            raise CompilationError(
                f"store to {field}: expected {ftype.count} values, got {len(values)}"
            )
        for i, value in enumerate(values):
            b.store(value, b.gep(field_ptr, [0, i]))

    # -- EmitContext API ---------------------------------------------------------------
    def param(self, name: str) -> List[Value]:
        return self._field_values(
            self.params_ptr, StaticLayout.param_field(self.mech_name, name)
        )

    def param_scalar(self, name: str) -> Value:
        values = self.param(name)
        if len(values) != 1:
            raise CompilationError(
                f"parameter {name!r} of {self.mech_name!r} is not a scalar"
            )
        return values[0]

    def load_state(self, name: str) -> List[Value]:
        return self._field_values(
            self.state_ptr, StaticLayout.state_field(self.mech_name, name)
        )

    def store_state(self, name: str, values: Sequence[Value]) -> None:
        self._store_field(
            self.state_ptr, StaticLayout.state_field(self.mech_name, name), values
        )

    def rng_ptr(self) -> Value:
        b = self.builder
        struct = self.state_ptr.type.pointee
        index = struct.field_index(StaticLayout.rng_field(self.mech_name))
        field_ptr = b.gep(self.state_ptr, [0, index])
        # Pointer to the first slot (key); the intrinsic reads key/counter.
        return b.gep(field_ptr, [0, 0], name=f"{self.mech_name}_rng")

    def constant(self, value: float) -> Value:
        return self.builder.f64(float(value))


class EvalEmitContext(MechEmitContext):
    """EmitContext for the control evaluation kernel.

    Pipeline mechanisms evaluated inside the grid search use *local* state
    (fresh initial values per evaluation — the per-thread read-write copies
    the paper describes) and a kernel-local PRNG state whose counter is
    derived from the evaluation index.
    """

    def __init__(
        self,
        builder: IRBuilder,
        layout: StaticLayout,
        mech_name: str,
        params_ptr: Value,
        local_rng_ptr: Value,
        initial_state: Dict[str, np.ndarray],
    ):
        super().__init__(builder, layout, mech_name, params_ptr, state_ptr=params_ptr)
        self._local_rng_ptr = local_rng_ptr
        self._initial_state = initial_state
        self._local_state: Dict[str, List[Value]] = {}

    def load_state(self, name: str) -> List[Value]:
        if name in self._local_state:
            return list(self._local_state[name])
        initial = np.asarray(self._initial_state[name], dtype=float).ravel()
        return [self.builder.f64(float(v)) for v in initial]

    def store_state(self, name: str, values: Sequence[Value]) -> None:
        self._local_state[name] = list(values)

    def rng_ptr(self) -> Value:
        return self._local_rng_ptr


def node_function_type(layout: StaticLayout) -> FunctionType:
    """Signature shared by every node function."""
    return FunctionType(
        VOID,
        [
            PointerType(layout.params_struct),
            PointerType(layout.state_struct),
            PointerType(layout.output_struct),
            PointerType(layout.output_struct),
            PointerType(F64),
        ],
    )


def emit_port_values(
    builder: IRBuilder,
    layout: StaticLayout,
    composition: Composition,
    mech: Mechanism,
    prev_ptr: Value,
    ext_ptr: Value,
) -> List[Value]:
    """Emit the concatenated input variable of ``mech`` (paper §3.3 signals).

    Each port starts from the external stimulus (input nodes only) and adds
    one term per incoming projection; projection matrices are baked constants,
    sender values are loads from the previous-pass output structure.
    """
    b = builder
    port_values: Dict[str, List[Optional[Value]]] = {
        port.name: [None] * port.size for port in mech.input_ports
    }

    def accumulate(port: str, index: int, value: Value) -> None:
        existing = port_values[port][index]
        port_values[port][index] = value if existing is None else b.fadd(existing, value)

    # External stimulus drives the first port of input nodes.
    if mech.name in composition.input_nodes:
        offset, size = layout.input_layout[mech.name]
        first_port = mech.input_ports[0].name
        for i in range(size):
            ptr = b.gep(ext_ptr, [offset + i], name=f"ext_{mech.name}_{i}")
            accumulate(first_port, i, b.load(ptr))

    # Projections from other nodes (previous-pass values).
    out_struct = layout.output_struct
    for projection in composition.incoming_projections(mech):
        sender = projection.sender.name
        field_index = out_struct.field_index(StaticLayout.output_field(sender))
        field_type = out_struct.field_type(field_index)
        field_ptr = b.gep(prev_ptr, [0, field_index], name=f"prev_{sender}")

        def load_sender(i: int) -> Value:
            if field_type.is_scalar:
                value = b.load(field_ptr)
            else:
                value = b.load(b.gep(field_ptr, [0, i]))
            value.metadata["reads_output_of"] = sender
            return value

        start = 0
        length = projection.sender.output_size
        if projection.sender_slice is not None:
            start, length = projection.sender_slice
        sender_values = [load_sender(start + i) for i in range(length)]

        matrix = projection.matrix
        if matrix is None:
            contributions = sender_values
        elif np.isscalar(matrix):
            scale = b.f64(float(matrix))
            contributions = [b.fmul(scale, v) for v in sender_values]
        else:
            matrix = np.asarray(matrix, dtype=float)
            contributions = []
            for row in range(matrix.shape[0]):
                acc: Optional[Value] = None
                for col in range(matrix.shape[1]):
                    term = b.fmul(b.f64(float(matrix[row, col])), sender_values[col])
                    acc = term if acc is None else b.fadd(acc, term)
                contributions.append(acc if acc is not None else b.f64(0.0))
        for i, contribution in enumerate(contributions):
            accumulate(projection.port, i, contribution)

    # Flatten in port declaration order, filling untouched elements with 0.0.
    variable: List[Value] = []
    for port in mech.input_ports:
        for value in port_values[port.name]:
            variable.append(value if value is not None else b.f64(0.0))
    return variable


def store_outputs(
    builder: IRBuilder,
    layout: StaticLayout,
    mech_name: str,
    cur_ptr: Value,
    values: Sequence[Value],
) -> None:
    """Write a node's output values into the current-pass output structure."""
    b = builder
    struct = layout.output_struct
    field_index = struct.field_index(StaticLayout.output_field(mech_name))
    field_type = struct.field_type(field_index)
    field_ptr = b.gep(cur_ptr, [0, field_index], name=f"cur_{mech_name}")
    expected = 1 if field_type.is_scalar else field_type.count
    if len(values) != expected:
        raise CompilationError(
            f"node {mech_name!r}: function template produced {len(values)} outputs, "
            f"layout expects {expected}"
        )
    if field_type.is_scalar:
        b.store(values[0], field_ptr)
        return
    for i, value in enumerate(values):
        b.store(value, b.gep(field_ptr, [0, i]))


def emit_node_function(
    module: Module,
    layout: StaticLayout,
    composition: Composition,
    info: SanitizationInfo,
    mech: Mechanism,
) -> "Function":
    """Emit the ``node_<name>`` function for a non-control mechanism."""
    if isinstance(mech, GridSearchControlMechanism):
        raise CompilationError(
            "control mechanisms are emitted by the whole-model code generator"
        )
    fn = module.add_function(
        f"node_{mech.name}",
        node_function_type(layout),
        ["params", "state", "prev", "cur", "ext"],
    )
    fn.attributes["alwaysinline"] = True
    block = fn.append_block("entry")
    builder = IRBuilder(block)
    builder.current_source_node = mech.name
    params_ptr, state_ptr, prev_ptr, cur_ptr, ext_ptr = fn.args

    variable = emit_port_values(builder, layout, composition, mech, prev_ptr, ext_ptr)
    ctx = MechEmitContext(builder, layout, mech.name, params_ptr, state_ptr)
    outputs = mech.function.emit(ctx, variable)
    if len(outputs) != info.mechanisms[mech.name].output_size:
        raise CompilationError(
            f"node {mech.name!r}: template produced {len(outputs)} outputs, "
            f"sanitization saw {info.mechanisms[mech.name].output_size}"
        )
    store_outputs(builder, layout, mech.name, cur_ptr, outputs)
    builder.ret()
    return fn
