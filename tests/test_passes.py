"""Tests for the optimisation passes: unit behaviour plus differential checks
against the interpreter (the optimised program must compute the same values)."""

import math
import tracemalloc

import pytest

from repro.backends.interp import Interpreter
from repro.ir import (
    F64,
    FunctionType,
    IRBuilder,
    Module,
    verify_module,
)
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.module import BasicBlock
from repro.passes import (
    CommonSubexpressionElimination,
    ConstantPropagation,
    DeadCodeElimination,
    DominatorTree,
    Inliner,
    InstCombine,
    LoopInfo,
    LoopInvariantCodeMotion,
    Mem2Reg,
    PassManager,
    SimplifyCFG,
    build_standard_pipeline,
    clone_function,
)

from helpers import (
    build_affine_function,
    build_alloca_function,
    build_branchy_function,
    build_loop_sum_function,
)


def run_both(module_factory, fn_name, args_list, pipeline):
    """Interpret a function before and after optimisation; return both results."""
    before_module = module_factory()
    after_module = module_factory()
    verify_module(before_module)
    pipeline.run(after_module)
    verify_module(after_module)
    before = [Interpreter(before_module).call(fn_name, args) for args in args_list]
    after = [Interpreter(after_module).call(fn_name, args) for args in args_list]
    return before, after


SAMPLE_ARGS = [[0.0, 0.0], [1.0, 2.0], [-3.5, 4.25], [10.0, -0.5], [2.0, 3.0]]


class TestDominators:
    def test_entry_dominates_everything(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        entry = fn.entry_block
        for block in fn.blocks:
            assert dom.dominates(entry, block)

    def test_branch_arms_do_not_dominate_merge(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        then_block, else_block, merge = fn.blocks[1], fn.blocks[2], fn.blocks[3]
        assert not dom.dominates(then_block, merge)
        assert not dom.dominates(else_block, merge)
        assert dom.immediate_dominator(merge) is fn.entry_block

    def test_dominance_frontier_of_branch_arms_is_merge(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        frontiers = dom.dominance_frontiers()
        merge = fn.blocks[3]
        assert merge in frontiers[fn.blocks[1]]
        assert merge in frontiers[fn.blocks[2]]

    def test_loop_header_frontier_contains_itself(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        dom = DominatorTree(fn)
        frontiers = dom.dominance_frontiers()
        loop = fn.blocks[1]
        assert loop in frontiers[loop]


class TestLoopInfo:
    def test_loop_detected(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        info = LoopInfo(fn)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header.name == "loop"
        assert loop.preheader(info.preds) is fn.entry_block
        assert [b.name for b in loop.exit_blocks()] == ["exit"]

    def test_no_loops_in_branchy(self):
        m = Module("t")
        fn = build_branchy_function(m)
        assert LoopInfo(fn).loops == []


class TestMem2Reg:
    def test_allocas_removed(self):
        m = Module("t")
        fn = build_alloca_function(m)
        assert any(isinstance(i, Alloca) for i in fn.instructions())
        changed = Mem2Reg().run(m)
        verify_module(m)
        assert changed
        assert not any(isinstance(i, (Alloca, Load, Store)) for i in fn.instructions())
        assert any(isinstance(i, Phi) for i in fn.instructions())

    def test_semantics_preserved(self):
        before, after = run_both(
            lambda: (lambda m: (build_alloca_function(m), m)[1])(Module("t")),
            "with_allocas",
            SAMPLE_ARGS,
            PassManager([Mem2Reg()]),
        )
        assert before == pytest.approx(after)

    def test_idempotent(self):
        m = Module("t")
        build_alloca_function(m)
        Mem2Reg().run(m)
        assert Mem2Reg().run(m) is False


class TestConstantPropagation:
    def test_folds_constants(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fadd(b.f64(2.0), b.f64(3.0))
        u = b.fmul(t, fn.args[0])
        b.ret(u)
        ConstantPropagation().run(m)
        DeadCodeElimination().run(m)
        verify_module(m)
        # 2+3 folded away: only fmul and ret remain.
        assert fn.instruction_count() == 2

    def test_folds_intrinsics(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, []), [])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.exp(b.f64(0.0)))
        ConstantPropagation().run(m)
        assert Interpreter(m).call("f", []) == pytest.approx(1.0)
        # The call must have been folded to a constant return.
        assert m.get_function("f").instruction_count() == 1

    def test_constant_branch_folded_by_simplifycfg(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        entry = fn.append_block("entry")
        a = fn.append_block("a")
        bb = fn.append_block("b")
        b = IRBuilder(entry)
        b.cond_br(b.true(), a, bb)
        b.position_at_end(a)
        b.ret(b.f64(1.0))
        b.position_at_end(bb)
        b.ret(b.f64(2.0))
        PassManager([ConstantPropagation(), SimplifyCFG()]).run(m)
        verify_module(m)
        assert len(fn.blocks) <= 2
        assert Interpreter(m).call("f", [0.0]) == pytest.approx(1.0)


class TestDCE:
    def test_removes_unused_pure_instructions(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.fadd(fn.args[0], b.f64(1.0))  # dead
        b.exp(fn.args[0])  # dead (pure intrinsic)
        live = b.fmul(fn.args[0], b.f64(2.0))
        b.ret(live)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 2

    def test_keeps_stores_to_live_memory(self):
        m = Module("t")
        fn = build_alloca_function(m)
        count_before = fn.instruction_count()
        DeadCodeElimination().run(m)
        # loads feed the return value, so nothing may be removed
        assert fn.instruction_count() == count_before

    def test_removes_dead_alloca_and_its_stores(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        dead_slot = b.alloca(F64)
        b.store(fn.args[0], dead_slot)
        b.ret(fn.args[0])
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1


class TestCSE:
    def test_duplicate_expressions_merged(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(fn.append_block("entry"))
        x, y = fn.args
        a = b.fadd(x, y)
        c = b.fadd(x, y)
        d = b.fmul(a, c)
        b.ret(d)
        CommonSubexpressionElimination().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 3  # fadd, fmul, ret

    def test_commutative_operands_normalised(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(fn.append_block("entry"))
        x, y = fn.args
        a = b.fadd(x, y)
        c = b.fadd(y, x)
        b.ret(b.fmul(a, c))
        CommonSubexpressionElimination().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 3

    def test_prng_calls_never_merged(self):
        from repro.ir import pointer

        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [pointer(F64)]), ["state"])
        b = IRBuilder(fn.append_block("entry"))
        r1 = b.rng_uniform(fn.args[0])
        r2 = b.rng_uniform(fn.args[0])
        b.ret(b.fadd(r1, r2))
        CommonSubexpressionElimination().run(m)
        calls = [i for i in fn.instructions() if i.opcode == "call"]
        assert len(calls) == 2


class TestLICM:
    def test_invariant_hoisted_to_preheader(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        loop_block = fn.blocks[1]
        before_in_loop = len(loop_block.instructions)
        LoopInvariantCodeMotion().run(m)
        verify_module(m)
        after_in_loop = len(loop_block.instructions)
        assert after_in_loop < before_in_loop
        # x*y, exp(x), and their sum are invariant: all moved to the entry block.
        assert len(fn.entry_block.instructions) >= 4

    def test_semantics_preserved(self):
        def factory():
            m = Module("t")
            build_loop_sum_function(m)
            return m

        before, after = run_both(
            factory, "loop_sum", SAMPLE_ARGS, PassManager([LoopInvariantCodeMotion()])
        )
        assert before == pytest.approx(after)


class TestInstCombine:
    def test_mul_by_one_removed(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fmul(fn.args[0], b.f64(1.0))
        u = b.fsub(t, b.f64(0.0))
        b.ret(u)
        InstCombine().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1  # just ret x

    def test_fadd_zero_requires_fastmath(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fadd(fn.args[0], b.f64(0.0))
        b.ret(t)
        InstCombine(allow_fast_math=False).run(m)
        assert fn.instruction_count() == 2  # not simplified
        InstCombine(allow_fast_math=True).run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1


class TestInliner:
    def _build_caller_callee(self):
        m = Module("t")
        callee = build_affine_function(m, "callee")
        callee.attributes["alwaysinline"] = True
        caller = m.add_function("caller", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(caller.append_block("entry"))
        x, y = caller.args
        r1 = b.call(callee, [x, y])
        r2 = b.call(callee, [y, x])
        b.ret(b.fadd(r1, r2))
        return m

    def test_calls_inlined(self):
        m = self._build_caller_callee()
        Inliner().run(m)
        verify_module(m)
        caller = m.get_function("caller")
        assert not any(i.opcode == "call" for i in caller.instructions())

    def test_semantics_preserved(self):
        m_ref = self._build_caller_callee()
        m_opt = self._build_caller_callee()
        Inliner().run(m_opt)
        PassManager([SimplifyCFG(), ConstantPropagation(), DeadCodeElimination()]).run(m_opt)
        for args in SAMPLE_ARGS:
            assert Interpreter(m_ref).call("caller", args) == pytest.approx(
                Interpreter(m_opt).call("caller", args)
            )

    def test_recursive_function_not_inlined(self):
        m = Module("t")
        fn = m.add_function("rec", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.call(fn, [fn.args[0]]))
        caller = m.add_function("caller", FunctionType(F64, [F64]), ["x"])
        b2 = IRBuilder(caller.append_block("entry"))
        b2.ret(b2.call(fn, [caller.args[0]]))
        Inliner(aggressive=True).run(m)
        # the call to the recursive function must remain
        assert any(i.opcode == "call" for i in caller.instructions())


class TestCloneFunction:
    def test_clone_produces_equal_results(self):
        m = Module("t")
        build_loop_sum_function(m)
        clone_function(m.get_function("loop_sum"), "loop_sum_copy", m)
        verify_module(m)
        for args in SAMPLE_ARGS:
            assert Interpreter(m).call("loop_sum", args) == pytest.approx(
                Interpreter(m).call("loop_sum_copy", args)
            )

    def test_clone_with_argument_binding(self):
        from repro.ir import const_float

        m = Module("t")
        fn = build_affine_function(m)
        bound = clone_function(
            fn, "affine_x2", m, arg_replacements={id(fn.args[0]): const_float(2.0)}
        )
        verify_module(m)
        assert Interpreter(m).call("affine_x2", [99.0, 5.0]) == pytest.approx(3 * 2.0 + 5.0 - 2.0)


class TestStandardPipelines:
    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
    def test_all_levels_preserve_semantics(self, opt_level):
        def factory():
            m = Module("t")
            build_affine_function(m)
            build_branchy_function(m)
            build_alloca_function(m)
            build_loop_sum_function(m)
            return m

        pm = build_standard_pipeline(opt_level)
        for fn_name in ("affine", "branchy", "with_allocas", "loop_sum"):
            before, after = run_both(factory, fn_name, SAMPLE_ARGS, pm)
            assert before == pytest.approx(after), fn_name

    def test_o2_reduces_instruction_count(self):
        m = Module("t")
        build_alloca_function(m)
        before = m.instruction_count()
        build_standard_pipeline(2).run(m)
        assert m.instruction_count() < before

    def test_pipeline_timings_recorded(self):
        m = Module("t")
        build_loop_sum_function(m)
        pm = build_standard_pipeline(2)
        pm.run(m)
        assert pm.timings
        assert pm.total_seconds() >= 0.0
        assert "mem2reg" in pm.describe()


class TestPassWorkScaling:
    """Deterministic work counts, not seconds: a pass's work follows what it
    changes, not the size of the function around it."""

    @staticmethod
    def _count_operand_reads(monkeypatch):
        """Count every read of ``Instruction.operands`` from now on."""
        slot = Instruction.__dict__["operands"]
        reads = [0]

        class CountingSlot:
            def __get__(self, instr, owner=None):
                if instr is None:
                    return self
                reads[0] += 1
                return slot.__get__(instr, owner)

            def __set__(self, instr, value):
                slot.__set__(instr, value)

        monkeypatch.setattr(Instruction, "operands", CountingSlot())
        return reads

    @staticmethod
    def _caller_with_call_sites(filler: int, sites: int) -> Module:
        m = Module("t")
        callee = build_affine_function(m, "callee")
        callee.attributes["alwaysinline"] = True
        caller = m.add_function("caller", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(caller.append_block("entry"))
        x, y = caller.args
        acc = x
        for _ in range(filler):
            acc = b.fadd(acc, y)
        for _ in range(sites):
            acc = b.fadd(acc, b.call(callee, [x, y]))
        b.ret(acc)
        return m

    def test_inlining_work_follows_callee_size_not_caller_size(self, monkeypatch):
        sites, filler = 16, 100
        modules = [self._caller_with_call_sites(n, sites) for n in (filler, 4 * filler)]
        callee_size = modules[0].get_function("callee").instruction_count()
        reads = self._count_operand_reads(monkeypatch)
        counts = []
        for m in modules:
            reads[0] = 0
            Inliner().run(m)
            counts.append(reads[0])
        monkeypatch.undo()
        for m in modules:
            verify_module(m)
            assert not any(i.opcode == "call" for i in m.get_function("caller").instructions())
        # 300 more caller instructions may cost at most one read each in
        # total — not one per call site (the whole-caller rescan did).
        assert counts[1] - counts[0] <= 3 * filler, counts
        assert counts[0] <= 16 * sites * callee_size, counts

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_simplifycfg_merges_a_chain_without_predecessor_scans(self, monkeypatch, order):
        length = 64
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        blocks = [fn.append_block(f"b{i}") for i in range(length)]
        value = fn.args[0]
        for i, block in enumerate(blocks):
            b = IRBuilder(block)
            value = b.fadd(value, value)
            if i + 1 < length:
                b.br(blocks[i + 1])
            else:
                b.ret(value)
        if order == "reversed":
            fn.blocks = [blocks[0]] + blocks[:0:-1]
        expected = [fn.args[0].ref()] + [block.instructions[0].ref() for block in blocks]
        scans = [0]
        predecessors = BasicBlock.predecessors

        def counting(self):
            scans[0] += 1
            return predecessors(self)

        monkeypatch.setattr(BasicBlock, "predecessors", counting)
        SimplifyCFG().run(m)
        assert len(fn.blocks) == 1
        assert scans[0] == 0
        verify_module(m)
        # The chain collapses into its head in chain order.
        (merged,) = fn.blocks
        assert merged is blocks[0]
        adds = [i for i in merged.instructions if i.opcode == "fadd"]
        assert [a.lhs.ref() for a in adds] == expected[:-1]

    @staticmethod
    def _cse_chain(depth: int, width: int = 8) -> Module:
        """A straight chain of ``depth`` blocks (so a ``depth``-deep dominator
        tree), each adding ``width`` new expressions and one duplicate."""
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64, F64]), ["x", "y"])
        x, y = fn.args
        blocks = [fn.append_block(f"b{i}") for i in range(depth)]
        acc = x
        for i, block in enumerate(blocks):
            b = IRBuilder(block)
            for _ in range(width):
                acc = b.fadd(acc, y)
            acc = b.fmul(acc, b.fmul(x, y))
            if i + 1 < depth:
                b.br(blocks[i + 1])
            else:
                b.ret(acc)
        return m

    def test_cse_keeps_one_scope_for_a_deep_dominator_chain(self):
        peaks = []
        for depth in (40, 160):
            m = self._cse_chain(depth)
            tracemalloc.start()
            CommonSubexpressionElimination().run(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            verify_module(m)
            muls = [i for i in m.get_function("f").instructions() if i.opcode == "fmul"]
            assert len(muls) == depth + 1  # every x*y after the first merged
        # A copied scope per block grows with depth squared (16x for 4x the
        # depth); one scoped table with an undo log grows linearly.
        assert peaks[1] < 8 * peaks[0], peaks
