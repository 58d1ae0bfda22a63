"""Tests for the model builders, the minitorch stand-in, the compiled-Python
backend, code specialisation utilities, reservoir sampling and gpu-sim."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import lane as lane_backend
from repro.backends.gpu_sim import GpuOccupancyModel, GpuSimEvaluator
from repro.backends.grid_driver import (
    GridRequest,
    PreparedGrid,
    allocation_for_index,
    grid_strides,
)
from repro.backends.interp import Interpreter
from repro.backends.pycodegen import PythonCodeGenerator, compile_module_to_python
from repro.cogframe import CounterRNG, ReferenceRunner, sanitize
from repro.bench.harness import empirical_attention_curve
from repro.core.codegen import CompiledArtifacts
from repro.core.distill import CompiledModel, CompileStats, compile_composition
from repro.core.reservoir import merge_chunk_minima, reservoir_argmin
from repro.core.specialize import emit_library_function, specialize_on_buffer
from repro.cogframe.functions import DriftDiffusionIntegrator, Logistic
from repro.fuzz.compare import arrays_equal
from repro.ir import F64, ArrayType, FunctionType, IRBuilder, Module, pointer, verify_module
from repro.models import FIGURE4_MODELS, MODEL_REGISTRY, get_model, predator_prey_variant
from repro.models import multitasking, necker, predator_prey, stroop
from repro import minitorch

from helpers import build_branchy_function, build_loop_sum_function
from strategies import coordinate_floats


class TestModelBuilders:
    @pytest.mark.parametrize("name", FIGURE4_MODELS)
    def test_registry_models_sanitize(self, name):
        entry = get_model(name)
        composition = entry.build()
        info = sanitize(composition)
        assert info.input_size > 0
        assert info.output_size > 0
        assert set(info.execution_order) == set(composition.mechanisms)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_model("does_not_exist")

    def test_predator_prey_variant_sizes(self):
        assert predator_prey.build_predator_prey("s").node("control").grid_size == 8
        assert predator_prey.build_predator_prey("m").node("control").grid_size == 64
        assert predator_prey.build_predator_prey("l").node("control").grid_size == 216
        entry = predator_prey_variant("xl")
        assert "1000000" in entry.description

    def test_necker_variants_structure(self):
        small = necker.build_necker_cube_s()
        assert len([n for n in small.mechanisms if n.startswith("vertex")]) == 3
        vectorized = necker.build_vectorized_necker_cube()
        assert vectorized.node("vertices").output_size == 8

    def test_necker_vectorized_equivalent_to_per_vertex(self):
        """The paper's §4.4 claim, checked behaviourally: the hand-vectorised
        model computes the same dynamics as the per-vertex model."""
        passes = 12
        per_vertex = necker.build_necker_cube_m(passes=passes)
        vectorized = necker.build_vectorized_necker_cube(passes=passes, noise=0.0)
        # disable noise in the per-vertex variant as well
        per_vertex_nonoise = necker.build_necker_cube(num_vertices=8, passes=passes, noise=0.0)
        inputs = necker.default_inputs(8)
        ref_a = ReferenceRunner(per_vertex_nonoise, seed=0).run(inputs, num_trials=1)
        ref_b = ReferenceRunner(vectorized, seed=0).run(inputs, num_trials=1)
        stacked = np.concatenate(
            [ref_a.trials[0].outputs[f"vertex_{i}"] for i in range(8)]
        )
        np.testing.assert_allclose(stacked, ref_b.trials[0].outputs["vertices"], rtol=1e-9)

    def test_stroop_conditions_distinct(self):
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=40), pipeline="default<O2>")
        peaks = {}
        for condition in ("congruent", "incongruent"):
            result = compiled.run(stroop.default_inputs(condition), num_trials=1, seed=0)
            peaks[condition] = float(np.max(np.abs(result.monitored_series("energy"))))
        assert peaks["incongruent"] > peaks["congruent"]

    def test_multitasking_summary(self):
        model = multitasking.build_multitasking(max_cycles=80)
        inputs = multitasking.default_inputs(4)
        results = ReferenceRunner(model, seed=1).run(inputs, num_trials=8)
        summary = multitasking.summarize_decisions(results, inputs)
        assert summary["correct"] + summary["incorrect"] == 8
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert summary["mean_rt"] > 0


class TestMinitorch:
    def test_linear_forward(self):
        layer = minitorch.nn.Linear(3, 2, seed=0)
        layer.set_weights(np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]]), np.array([0.0, 1.0]))
        out = layer(minitorch.Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.numpy(), [-2.0, 4.0])

    def test_autograd_gradient_descent_reduces_loss(self):
        network = minitorch.nn.Sequential(
            minitorch.nn.Linear(2, 4, seed=1), minitorch.nn.ReLU(), minitorch.nn.Linear(4, 1, seed=2)
        )
        loss_fn = minitorch.nn.MSELoss()
        optimizer = minitorch.optim.SGD(network.parameters(), lr=0.05)
        x = minitorch.Tensor([0.5, -1.0])
        target = [0.75]
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = loss_fn(network(x), target)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss

    def test_bridge_matches_network(self):
        network = multitasking.build_pretrained_network()
        fn = minitorch.NeuralNetworkFunction(network)
        stimulus = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        expected = network(minitorch.Tensor(stimulus)).numpy()
        np.testing.assert_allclose(
            fn.compute(stimulus, fn.params, {}, None), expected, rtol=1e-12
        )

    def test_bridge_rejects_unsupported_layers(self):
        class Strange(minitorch.nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError):
            minitorch.NeuralNetworkFunction(minitorch.nn.Sequential(Strange()))


class TestPythonBackend:
    def test_generated_code_matches_interpreter(self):
        module = Module("pyc")
        build_loop_sum_function(module)
        build_branchy_function(module)
        verify_module(module)
        compiled = compile_module_to_python(module)
        interp = Interpreter(module)
        for args in ([2.0, 3.0], [-1.0, 4.0], [0.0, 0.0]):
            assert compiled["loop_sum"](*args) == pytest.approx(interp.call("loop_sum", args))
            assert compiled["branchy"](*args) == pytest.approx(interp.call("branchy", args))

    def test_generated_source_is_flat_python(self):
        module = Module("pyc")
        build_loop_sum_function(module)
        source = PythonCodeGenerator(module).generate_source()
        assert "def ir_loop_sum" in source
        assert "while True:" in source  # the reconstructed natural loop
        assert "_block" not in source  # no dispatch ladder for reducible CFGs
        assert "dict(" not in source  # no dynamic structures in the hot path

    @given(coordinate_floats, coordinate_floats)
    @settings(max_examples=50, deadline=None)
    def test_property_codegen_equals_interpreter(self, x, y):
        module = Module("pyc_prop")
        build_branchy_function(module)
        compiled = compile_module_to_python(module)
        interp = Interpreter(module)
        assert compiled["branchy"](x, y) == pytest.approx(interp.call("branchy", [x, y]))


class TestSpecialization:
    def test_emit_library_function_matches_reference(self):
        fn_obj = Logistic(gain=2.0, bias=0.5)
        module = Module("spec")
        fn = emit_library_function(fn_obj, input_size=1, module=module, name="logistic1")
        verify_module(module)
        interp = Interpreter(module)
        for x in (-2.0, 0.0, 1.5):
            expected = fn_obj.compute(np.array([x]), fn_obj.params, {}, None)[0]
            assert interp.call("logistic1", [x]) == pytest.approx(expected)

    def test_emit_with_param_args_and_state(self):
        fn_obj = DriftDiffusionIntegrator(noise=0.0, time_step=0.1)
        module = Module("spec")
        fn = emit_library_function(
            fn_obj, input_size=1, module=module, name="ddm", param_args=("rate",)
        )
        interp = Interpreter(module)
        # args: in0, previous_value, rate, rng pointer (noise=0 -> unused draws)
        from repro.backends import runtime

        rng = runtime.allocate_buffer(2)
        value = interp.call("ddm", [2.0, 0.5, 3.0, (rng, 0)])
        assert value == pytest.approx(0.5 + 3.0 * 2.0 * 0.1)

    def test_specialize_on_buffer_folds_loads(self):
        compiled = compile_composition(predator_prey.build_predator_prey("s"), pipeline="default<O2>")
        info = compiled.grid_searches[0]
        kernel = compiled.module.get_function(info.kernel_name)
        specialised = specialize_on_buffer(kernel, 0, compiled.layout.param_values)
        assert specialised.attributes["specialised_loads"] > 0
        from repro.ir.instructions import Load

        remaining_param_loads = [
            i
            for i in specialised.instructions()
            if isinstance(i, Load)
        ]
        assert len(remaining_param_loads) == 0


class TestReservoirSampling:
    def test_unique_minimum_needs_no_draws(self):
        draws = []
        index, cost = reservoir_argmin([3.0, 1.0, 2.0], uniform=lambda: draws.append(1) or 0.0)
        assert (index, cost) == (1, 1.0)
        assert draws == []

    def test_ties_broken_uniformly(self):
        rng = CounterRNG(0, stream=9)
        counts = {0: 0, 2: 0}
        for _ in range(2000):
            index, _ = reservoir_argmin([1.0, 5.0, 1.0], rng=rng)
            counts[index] += 1
        assert abs(counts[0] - counts[2]) < 300

    def test_empty_costs_rejected(self):
        with pytest.raises(ValueError):
            reservoir_argmin([])

    def test_merge_chunk_minima(self):
        merged = merge_chunk_minima([(4, 2.0, 1), (9, 1.0, 1), (17, 1.5, 2)])
        assert merged[0] == 9 and merged[1] == 1.0
        with pytest.raises(ValueError):
            merge_chunk_minima([])

    def test_merge_chunk_minima_skips_empty_chunk_sentinels(self):
        """A (-1, inf) sentinel from an empty/all-NaN chunk must not win a
        float == tie against a real +inf minimum."""
        merged = merge_chunk_minima([(4, float("inf"), 2), (-1, float("inf"), 0)])
        assert merged[0] == 4
        merged = merge_chunk_minima([(-1, float("inf"), 0), (4, float("inf"), 2)])
        assert merged[0] == 4

    def test_merge_chunk_minima_rejects_all_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            merge_chunk_minima([(0, nan, 1), (-1, float("inf"), 0)])

    def test_reservoir_argmin_skips_nan_and_rejects_all_nan(self):
        index, cost = reservoir_argmin([float("nan"), 2.0, float("nan")])
        assert (index, cost) == (1, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            reservoir_argmin([float("nan"), float("nan")])


def build_grid_kernel(module, name, body):
    """A grid kernel ``(params, alloc0, alloc1, rng_key, rng_counter)``.

    The kernel stores its PRNG state in a local ``[2 x double]`` exactly as
    generated evaluation kernels do; ``body(b, fn, state)`` emits the rest
    and returns the value to return.
    """
    fn = module.add_function(
        name,
        FunctionType(F64, [pointer(F64), F64, F64, F64, F64]),
        ["params", "alloc0", "alloc1", "rng_key", "rng_counter"],
    )
    b = IRBuilder(fn.append_block("entry"))
    state = b.alloca(ArrayType(F64, 2))
    b.store(fn.args[3], b.gep(state, [0, 0]))
    b.store(fn.args[4], b.gep(state, [0, 1]))
    b.ret(body(b, fn, b.gep(state, [0, 0])))
    return fn


def kernel_model(module):
    """A compiled model around a hand-built module of grid kernels."""
    return CompiledModel(
        None, None, None, CompiledArtifacts(module, None), CompileStats(),
        PythonCodeGenerator(module).compile(),
    )


def gpu_sim_and_scalar_costs(compiled, name, levels, params=(0.5,), counter_stride=4):
    """One grid region of kernel ``name`` through gpu-sim's evaluator, and
    the same grid points through the scalar compiled kernel one by one."""
    strides = grid_strides(levels)
    grid_size = int(np.prod([len(lv) for lv in levels]))
    prepared = PreparedGrid(
        info=None, control_name=name, kernel_name=name,
        levels=tuple(tuple(lv) for lv in levels), strides=strides,
        grid_size=grid_size, counter_stride=counter_stride, input_size=0,
    )
    key, counter_base = 17, 1000
    request = GridRequest(prepared, list(params), [], key, counter_base)
    costs = GpuSimEvaluator(compiled).evaluate(request)
    scalar = compiled.function(name)
    reference = [
        scalar(
            (list(params), 0),
            *allocation_for_index(levels, index, strides),
            float(key),
            float(counter_base + index * counter_stride),
        )
        for index in range(grid_size)
    ]
    return costs, reference


NAN = float("nan")

#: Operations whose numpy spelling differs from the guarded scalar
#: intrinsic (fmax/fmin of NaN, pow overflow, fptosi of NaN); levels stay
#: inside the int64 range for fptosi.
SCALAR_SEMANTICS_CASES = {
    "fmax": ([NAN, 0.0, -2.5, 7.0], [NAN, 0.0, 3.0]),
    "fmin": ([NAN, 0.0, -2.5, 7.0], [NAN, 0.0, 3.0]),
    "pow": ([1e200, -1e200, 0.0, 2.5, NAN], [2.0, -1.0, 0.5]),
    "fptosi": ([NAN, -2.5, 0.0, 7.75], [0.0]),
}


def branchy_kernel_body(b, fn, state):
    """Lanes diverge on ``alloc0 > alloc1`` and only the taken arm draws,
    so the draw after the join reads per-lane counters."""
    x, y = fn.args[1], fn.args[2]
    then_block = fn.append_block("then")
    else_block = fn.append_block("else")
    merge = fn.append_block("merge")
    b.cond_br(b.fcmp("ogt", x, y), then_block, else_block)
    b.position_at_end(then_block)
    scale = b.load(fn.args[0])
    then_value = b.fmul(b.fmul(x, scale), b.rng_normal(state))
    b.br(merge)
    b.position_at_end(else_block)
    else_value = b.fadd(b.log(y), b.f64(1.0))
    b.br(merge)
    b.position_at_end(merge)
    joined = b.phi(F64)
    joined.add_incoming(then_value, then_block)
    joined.add_incoming(else_value, else_block)
    return b.fadd(joined, b.rng_uniform(state))


BRANCHY_LEVELS = [[0.5, 1.0, 2.0, 4.0], [0.25, 1.5, 3.0]]


class TestGpuSimulator:
    @pytest.mark.parametrize("op", sorted(SCALAR_SEMANTICS_CASES))
    def test_kernel_path_bitwise_equals_scalar_kernel(self, op):
        def body(b, fn, state):
            x, y = fn.args[1], fn.args[2]
            if op == "fptosi":
                return b.sitofp(b.fptosi(x))
            return b.intrinsic(op, [x, y])

        module = Module("ops")
        build_grid_kernel(module, f"eval_{op}", body)
        costs, reference = gpu_sim_and_scalar_costs(
            kernel_model(module), f"eval_{op}", SCALAR_SEMANTICS_CASES[op]
        )
        assert arrays_equal(costs, reference), (list(costs), reference)

    def test_branchy_kernel_runs_under_masks(self):
        module = Module("branchy")
        kernel = build_grid_kernel(module, "eval_branchy", branchy_kernel_body)
        assert len(kernel.blocks) > 1
        costs, reference = gpu_sim_and_scalar_costs(
            kernel_model(module), "eval_branchy", BRANCHY_LEVELS
        )
        assert arrays_equal(costs, reference), (list(costs), reference)

    def test_kernel_falling_back_per_lane_still_runs(self, monkeypatch):
        """Without a lane ``log`` the kernel runs lane by lane through the
        scalar program, which writes its pointer rows back."""
        monkeypatch.delitem(lane_backend.LANE_INTRINSICS, "log")
        module = Module("fallback")
        build_grid_kernel(module, "eval_branchy", branchy_kernel_body)
        compiled = kernel_model(module)
        costs, reference = gpu_sim_and_scalar_costs(compiled, "eval_branchy", BRANCHY_LEVELS)
        assert lane_backend.lane_program(compiled).fallbacks == ["eval_branchy"]
        assert arrays_equal(costs, reference), (list(costs), reference)

    def test_empirical_attention_curve_equals_scalar_kernel_calls(self):
        compiled = compile_composition(predator_prey.build_predator_prey("s"))
        inputs = predator_prey.default_inputs(1)[0]
        levels, samples, fixed = [0.0, 2.0, 4.5], 50, (2.5, 2.5)
        rows = empirical_attention_curve(
            compiled, inputs, levels, samples_per_level=samples, fixed_allocation=fixed
        )
        info = compiled.grid_searches[0]
        kernel = compiled.function(info.kernel_name)
        flat = [
            float(v)
            for key in ("player_loc", "predator_loc", "prey_loc")
            for v in inputs[key]
        ]
        params = list(compiled.layout.param_values)
        for level_index, (level, row) in enumerate(zip(levels, rows)):
            costs = [
                kernel(
                    (params, 0), *flat, *fixed, level, 12345.0,
                    float((level_index * samples + lane) * info.counter_stride),
                )
                for lane in range(samples)
            ]
            assert row == {"attention": level, "mean_cost": float(np.mean(costs))}

    def test_occupancy_model_monotonic(self):
        model = GpuOccupancyModel()
        sweep = {p.max_registers: p for p in model.register_sweep(precisions=("fp64",))}
        assert sweep[16].occupancy >= sweep[256].occupancy
        assert sweep[16].estimated_seconds >= sweep[256].estimated_seconds
        assert sweep[16].spill_bytes_per_thread > 0
