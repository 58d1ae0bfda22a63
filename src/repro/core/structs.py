"""Static data-structure conversion (paper section 3.3).

Cognitive models keep their signals, parameters and bookkeeping in Python
dicts and lists keyed by strings.  Their shapes and keys are invariant during
execution, so Distill converts them into statically defined structures and
replaces string keys with fixed offsets (enums).  This module computes those
layouts from the sanitization info:

* the **parameter structure** (read-only): every mechanism parameter, the
  control mechanisms' candidate-level tables and the projection-independent
  constants;
* the **state structure** (read-write): integrator state, PRNG states,
  per-node execution counters and control bookkeeping;
* the **node-output structure**: one field per mechanism output; two
  instances of it (previous / current) implement the double buffering the
  scheduler semantics require;
* flattened layouts for external inputs, per-trial result records and the
  per-pass monitor buffer.

The same layout object is used by the code generator (to emit GEPs with
constant offsets) and by the drivers (to fill the buffers with concrete
values before execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..cogframe.composition import Composition
from ..cogframe.mechanisms import GridSearchControlMechanism
from ..cogframe.prng import CounterRNG
from ..cogframe.sanitize import SanitizationInfo
from ..ir.types import F64, ArrayType, StructType


def _field(mech: str, name: str) -> str:
    """Canonical field name (the 'enum key') for a mechanism's entry."""
    return f"{mech}__{name}"


@dataclass
class StaticLayout:
    """All static structures derived for one model."""

    params_struct: StructType
    state_struct: StructType
    output_struct: StructType
    #: Values to pour into a freshly allocated parameter buffer.
    param_values: List[float]
    #: Values to pour into a freshly allocated state buffer (seed-independent
    #: part; PRNG keys are filled by :meth:`initial_state_values`).
    state_init_values: List[float]
    #: Slot ranges of state fields that must be reset at the start of every
    #: trial (everything except PRNG states): list of (offset, values).
    state_reset_entries: List[Tuple[int, List[float]]]
    #: Slot offsets of the PRNG state (key, counter) per mechanism.
    rng_offsets: Dict[str, int]
    #: (offset, size) of each mechanism's output in the output struct.
    output_offsets: Dict[str, Tuple[int, int]]
    #: External input layout: mechanism -> (offset, size); total size.
    input_layout: Dict[str, Tuple[int, int]]
    input_size: int
    #: Result record layout: mechanism -> (offset, size); plus pass count slot.
    result_layout: Dict[str, Tuple[int, int]]
    result_size: int
    #: Monitor record layout per pass: mechanism -> (offset, size).
    monitor_layout: Dict[str, Tuple[int, int]]
    monitor_size: int
    max_passes: int
    execution_order: List[str]

    # -- field name helpers ------------------------------------------------------
    @staticmethod
    def param_field(mech: str, name: str) -> str:
        return _field(mech, name)

    @staticmethod
    def state_field(mech: str, name: str) -> str:
        return _field(mech, name)

    @staticmethod
    def rng_field(mech: str) -> str:
        return _field(mech, "rng")

    @staticmethod
    def count_field(mech: str) -> str:
        return _field(mech, "calls")

    @staticmethod
    def output_field(mech: str) -> str:
        return _field(mech, "out")

    # -- buffer construction -------------------------------------------------------
    def allocate_params(self) -> List[float]:
        return list(self.param_values)

    def allocate_state(self, seed: int = 0) -> List[float]:
        """A fresh state buffer with PRNG keys derived from ``seed``."""
        state = list(self.state_init_values)
        for index, name in enumerate(self.execution_order):
            offset = self.rng_offsets.get(name)
            if offset is None:
                continue
            state[offset] = float(CounterRNG.derive_key(seed, stream=index))
            state[offset + 1] = 0.0
        return state

    def allocate_outputs(self) -> List[float]:
        return [0.0] * max(self.output_struct.slot_count(), 1)

    def result_record_size(self) -> int:
        return self.result_size + 1  # +1 for the pass count

    def monitor_record_size(self) -> int:
        return self.monitor_size * self.max_passes


def build_layout(composition: Composition, info: SanitizationInfo) -> StaticLayout:
    """Compute the static layout for ``composition`` from its sanitization info."""
    params_struct = StructType(f"{composition.name}_params")
    state_struct = StructType(f"{composition.name}_state")
    output_struct = StructType(f"{composition.name}_outputs")

    param_values: List[float] = []
    state_init_values: List[float] = []
    state_reset_entries: List[Tuple[int, List[float]]] = []
    rng_offsets: Dict[str, int] = {}
    output_offsets: Dict[str, Tuple[int, int]] = {}
    output_slots = 0

    def add_param_field(name: str, values: np.ndarray) -> None:
        flat = np.asarray(values, dtype=float).ravel()
        if flat.size == 1:
            params_struct.add_field(name, F64)
        else:
            params_struct.add_field(name, ArrayType(F64, flat.size))
        param_values.extend(float(v) for v in flat)

    def add_state_field(name: str, values: np.ndarray, reset: bool = True) -> int:
        flat = np.asarray(values, dtype=float).ravel()
        offset = len(state_init_values)  # one initial value per state slot
        if flat.size == 1:
            state_struct.add_field(name, F64)
        else:
            state_struct.add_field(name, ArrayType(F64, flat.size))
        state_init_values.extend(float(v) for v in flat)
        if reset:
            state_reset_entries.append((offset, [float(v) for v in flat]))
        return offset

    for name in info.execution_order:
        mech_info = info.mechanisms[name]
        mech = composition.mechanisms[name]

        # Read-only parameters (strings/None were filtered by sanitize()).
        for param_name, values in sorted(mech_info.params.items()):
            add_param_field(_field(name, param_name), values)

        # Control mechanisms additionally carry their candidate-level tables.
        if isinstance(mech, GridSearchControlMechanism):
            for signal_index, levels in enumerate(mech.levels):
                add_param_field(_field(name, f"levels{signal_index}"), np.asarray(levels))
            # Parameters of the simulation-pipeline mechanisms are already in
            # the struct because pipeline mechanisms are composition nodes.

        # Read-write state.
        for state_name, values in sorted(mech_info.state.items()):
            add_state_field(_field(name, state_name), values, reset=True)
        # Per-node execution counter (used by EveryNCalls and for metadata).
        add_state_field(_field(name, "calls"), np.array([0.0]), reset=True)
        # PRNG state: (key, counter); the key is seed-dependent, never reset.
        if mech_info.needs_rng or mech_info.is_control:
            rng_offsets[name] = add_state_field(
                _field(name, "rng"), np.array([0.0, 0.0]), reset=False
            )

        # Output buffer entry.
        offset = output_slots
        size = mech_info.output_size
        if size == 1:
            output_struct.add_field(_field(name, "out"), F64)
        else:
            output_struct.add_field(_field(name, "out"), ArrayType(F64, size))
        output_offsets[name] = (offset, size)
        output_slots += size

    # Result record: final outputs of the designated output nodes.
    result_layout: Dict[str, Tuple[int, int]] = {}
    result_size = 0
    for name in composition.output_nodes:
        size = info.mechanisms[name].output_size
        result_layout[name] = (result_size, size)
        result_size += size

    monitor_layout: Dict[str, Tuple[int, int]] = {}
    monitor_size = 0
    for name in composition.monitored_nodes:
        size = info.mechanisms[name].output_size
        monitor_layout[name] = (monitor_size, size)
        monitor_size += size

    return StaticLayout(
        params_struct=params_struct,
        state_struct=state_struct,
        output_struct=output_struct,
        param_values=param_values,
        state_init_values=state_init_values,
        state_reset_entries=state_reset_entries,
        rng_offsets=rng_offsets,
        output_offsets=output_offsets,
        input_layout=dict(info.input_layout),
        input_size=info.input_size,
        result_layout=result_layout,
        result_size=result_size,
        monitor_layout=monitor_layout,
        monitor_size=monitor_size,
        max_passes=info.max_passes,
        execution_order=list(info.execution_order),
    )
