"""Execution backends for compiled cognitive models.

The backends share one runtime model (flat slot buffers, ``(buffer, offset)``
pointers, counter-based PRNG intrinsics) defined in
:mod:`repro.backends.runtime`:

* :mod:`repro.backends.interp` — per-instruction IR interpreter (the semantic
  reference and the "generic JIT" baseline stand-in).
* :mod:`repro.backends.pycodegen` — translates optimised IR into flat Python
  source with no per-instruction dispatch; this is the "native execution"
  analogue in this reproduction.
* :mod:`repro.backends.multicore` — partitions grid-search parallel regions
  across processes/threads.
* :mod:`repro.backends.lane` — lowers every function to numpy lane
  programs; the ``lane`` engine runs batch elements as lanes.
* :mod:`repro.backends.gpu_sim` — runs grid kernels as lane programs, one
  lane per grid point, with an occupancy/latency model (stands in for the
  NVPTX/CUDA path).

Each backend module registers an :class:`repro.driver.ExecutionEngine` with
the driver's backend registry (``compiled``, ``per-node``, ``ir-interp``,
``mcpu``, ``gpu-sim``); ``repro.list_engines()`` enumerates them and
``repro.compile(model, target=...)`` dispatches through the registry.
"""

from . import runtime
from .interp import Interpreter, IRInterpreterEngine, run_function

__all__ = ["runtime", "Interpreter", "IRInterpreterEngine", "run_function"]
