"""Which program calls the traced run wraps, and the per-layer metrics.

Every wrapper patches a name where its caller looks it up: a module-level
function in the importing module (``repro.core.distill.sanitize``), or a
method on the class whose instances the callers hold (``Pass.run`` on each
pass class of ``default<O2>``, ``EngineInstance.execute`` on each engine's
instance class, ``ArtifactStore.get``/``put``).  Every span name has a
time metric, so the self times of one process's spans plus the gap add up to
its timed wall time.
"""

from __future__ import annotations

import os
from typing import Dict, List

from .spans import Tracer, layer_self_seconds

#: The distinct passes of ``default<O2>``, in first-use order.
O2_PASSES = (
    "inline",
    "simplifycfg",
    "mem2reg",
    "constprop",
    "dce",
    "cse",
    "instcombine",
    "licm",
)

#: Per-layer time metrics: metric name -> span name whose self time it sums.
TIME_LAYERS = {
    # The session's own time around the compile it drives.
    "driver.session.compile_model_s": "driver.session.compile_model",
    "driver.session.compile_s": "driver.session.compile",
    "driver.session.structural_fingerprint_s": "driver.session.structural_fingerprint",
    # compile_composition's own time: compile work no finer span covers.
    "core.distill.compile_composition_s": "core.distill.compile_composition",
    "cogframe.sanitize_s": "cogframe.sanitize",
    "core.structs.build_layout_s": "core.structs.build_layout",
    "core.codegen.generate_model_ir_s": "core.codegen.generate_model_ir",
    # recompile's own time: edit diffing and patching no finer span covers.
    "core.patch.recompile_s": "core.patch.recompile",
    "ir.fingerprint_s": "ir.fingerprint",
    "ir.verifier_s": "ir.verifier",
    **{f"passes.{p}_s": f"passes.{p}" for p in O2_PASSES},
    "ir.serialize.encode_s": "ir.serialize.encode",
    "ir.serialize.decode_s": "ir.serialize.decode",
    "driver.artifacts.put_s": "driver.artifacts.put",
    "driver.artifacts.get_s": "driver.artifacts.get",
    "backends.pycodegen.generate_source_s": "backends.pycodegen.generate_source",
    "backends.pycodegen.exec_source_s": "backends.pycodegen.exec_source",
    "backends.lane.codegen_s": "backends.lane.codegen",
    "core.distill.allocate_buffers_s": "core.distill.allocate_buffers",
    # EngineInstance.run/run_batch minus allocate_buffers minus execute.
    "core.distill.collect_s": "driver.engines.run",
    "backends.compiled.execute_s": "backends.compiled.execute",
    "backends.lane.execute_s": "backends.lane.execute",
    "backends.gpu_sim.execute_s": "backends.gpu_sim.execute",
    # The client's own time around a request: transport, the daemon's
    # queueing and work, and request encoding.
    "serve.client.run_s": "serve.client.run",
    "serve.protocol.results_from_wire_s": "serve.protocol.results_from_wire",
    "serve.protocol.results_to_wire_s": "serve.protocol.results_to_wire",
}

#: Per-layer counts the wrappers accumulate.
COUNT_LAYERS = (
    "core.codegen.ir_instrs_before",
    *(f"passes.{p}.{kind}" for p in O2_PASSES for kind in ("runs", "changed")),
    "analysis.manager.hits",
    "analysis.manager.misses",
    "driver.artifacts.bytes_written",
    "driver.artifacts.hits",
    "driver.artifacts.misses",
    "backends.pycodegen.source_bytes",
    "backends.pycodegen.dispatch_fallbacks",
    "core.patch.relowered",
    "backends.lane.fallbacks",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable.  Imports the program, so call after
    ``sys.path`` holds ``src``."""
    import repro.core.distill as distill
    import repro.core.patch as patch
    import repro.driver.artifacts as artifacts
    import repro.driver.session as session
    import repro.ir.fingerprint as fingerprint
    import repro.ir.serialize as serialize
    import repro.passes.pass_manager as pass_manager
    import repro.serve.client  # noqa: F401 - binds repro.serve.protocol
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    from repro.backends.pycodegen import LanePythonCodeGenerator, PythonCodeGenerator
    from repro.core.codegen import ModelCodeGenerator
    from repro.driver.engines import EngineInstance, list_engines
    from repro.driver.pipeline import resolve_pipeline

    wrap, count = tracer.wrap, tracer.count

    # Compile pipeline: cogframe -> core -> passes -> backends.pycodegen.
    wrap(session.Session, "compile_model", "driver.session.compile_model")
    wrap(session.Session, "compile", "driver.session.compile")
    for owner in (session, server):
        wrap(owner, "structural_fingerprint", "driver.session.structural_fingerprint")

    def compiled(model, *args, **kwargs):
        count("analysis.manager.hits", model.stats.analysis_hits)
        count("analysis.manager.misses", model.stats.analysis_misses)

    wrap(distill, "compile_composition", "core.distill.compile_composition", compiled)
    for owner in (distill, patch):
        wrap(owner, "sanitize", "cogframe.sanitize")
        wrap(owner, "build_layout", "core.structs.build_layout")

    def generated(artifacts_, *args, **kwargs):
        count("core.codegen.ir_instrs_before", artifacts_.module.instruction_count())

    wrap(ModelCodeGenerator, "generate", "core.codegen.generate_model_ir", generated)
    wrap(fingerprint, "function_fingerprint", "ir.fingerprint")
    wrap(artifacts, "unit_fingerprints", "ir.fingerprint")
    wrap(pass_manager, "verify_module", "ir.verifier")

    def pass_ran(changed, pass_, *args, **kwargs):
        count(f"passes.{pass_.name}.runs")
        count(f"passes.{pass_.name}.changed", bool(changed))

    seen = set()
    for pass_ in resolve_pipeline("default<O2>").passes:
        if type(pass_) not in seen:
            seen.add(type(pass_))
            wrap(type(pass_), "run", f"passes.{pass_.name}", pass_ran)

    def recompiled(report, *args, **kwargs):
        count("core.patch.relowered", len(report.get("relowered") or ()))

    wrap(patch, "recompile_model", "core.patch.recompile", recompiled)

    # Store: ir.serialize and driver.artifacts.
    wrap(serialize, "encode_module", "ir.serialize.encode")
    wrap(serialize, "decode_module", "ir.serialize.decode")

    def got(payload, *args, **kwargs):
        count("driver.artifacts.hits" if payload is not None else "driver.artifacts.misses")

    def put(_result, store, key, *args, **kwargs):
        count("driver.artifacts.bytes_written", os.path.getsize(store.path_for(key)))

    wrap(artifacts.ArtifactStore, "get", "driver.artifacts.get", got)
    wrap(artifacts.ArtifactStore, "put", "driver.artifacts.put", put)

    # Lowering: the scalar generator and the lane generator share methods.
    def codegen_name(prefix):
        def name(generator, *args, **kwargs):
            if isinstance(generator, LanePythonCodeGenerator):
                return "backends.lane.codegen"
            return f"backends.pycodegen.{prefix}"

        return name

    def source_made(source, generator, *args, **kwargs):
        if isinstance(generator, LanePythonCodeGenerator):
            count("backends.lane.fallbacks", len(generator.lane_fallbacks))
        else:
            count("backends.pycodegen.source_bytes", len(source))
            count("backends.pycodegen.dispatch_fallbacks", len(generator.dispatch_fallbacks))

    wrap(PythonCodeGenerator, "generate_source", codegen_name("generate_source"), source_made)
    wrap(PythonCodeGenerator, "exec_source", codegen_name("exec_source"))

    # Engines: buffer marshalling, the run choreography and each kernel.
    wrap(distill.CompiledModel, "allocate_buffers", "core.distill.allocate_buffers")
    wrap(EngineInstance, "run", "driver.engines.run")
    wrap(EngineInstance, "run_batch", "driver.engines.run")

    def engine_name(instance, *args, **kwargs):
        return "backends.%s.execute" % instance.engine_name.replace("-", "_")

    list_engines()
    for cls in [EngineInstance, *EngineInstance.__subclasses__()]:
        for attr in ("execute", "execute_batch"):
            if attr in vars(cls) and not (cls is EngineInstance and attr == "execute"):
                wrap(cls, attr, engine_name)

    # Serving: the client side of the wire protocol; the daemon's engines
    # and compiles are covered by the wrappers above.
    wrap(repro.serve.client.ServeClient, "run", "serve.client.run")
    wrap(protocol, "results_from_wire", "serve.protocol.results_from_wire")
    wrap(protocol, "results_to_wire", "serve.protocol.results_to_wire")


def per_layer(spans, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer time (summed self seconds) and count metrics."""
    seconds = layer_self_seconds(spans)
    metrics = {metric: seconds.get(span, 0.0) for metric, span in TIME_LAYERS.items()}
    metrics.update({name: float(counters.get(name, 0)) for name in COUNT_LAYERS})
    return metrics


def layer_names() -> List[str]:
    return [*TIME_LAYERS, *COUNT_LAYERS]
