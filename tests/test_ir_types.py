"""Tests for the IR type system and slot layout computation."""

import pytest

from repro.ir import (
    BOOL,
    F32,
    F64,
    I32,
    I64,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
)


class TestScalarTypes:
    def test_int_equality_by_width(self):
        assert IntType(64) == I64
        assert IntType(32) == I32
        assert IntType(32) != IntType(64)

    def test_float_equality_by_width(self):
        assert FloatType(64) == F64
        assert FloatType(32) == F32
        assert F32 != F64

    def test_bool_is_i1(self):
        assert BOOL.width == 1
        assert BOOL.is_int

    def test_scalars_occupy_one_slot(self):
        for ty in (BOOL, I32, I64, F32, F64):
            assert ty.slot_count() == 1
            assert ty.is_scalar

    def test_void_has_no_slots(self):
        assert VOID.slot_count() == 0
        assert VOID.is_void

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            FloatType(16)

    def test_default_values(self):
        assert F64.default_value() == 0.0
        assert I64.default_value() == 0

    def test_types_are_hashable(self):
        mapping = {F64: "double", I64: "long", BOOL: "bool"}
        assert mapping[FloatType(64)] == "double"
        assert mapping[IntType(64)] == "long"

    def test_str_forms(self):
        assert str(F64) == "double"
        assert str(F32) == "float"
        assert str(I64) == "i64"
        assert str(BOOL) == "i1"


class TestPointerTypes:
    def test_pointer_equality(self):
        assert PointerType(F64) == PointerType(F64)
        assert PointerType(F64) != PointerType(I64)

    def test_pointer_str(self):
        assert str(PointerType(F64)) == "double*"

    def test_pointer_is_scalar_slot(self):
        assert PointerType(F64).slot_count() == 1
        assert PointerType(F64).is_pointer


class TestAggregateTypes:
    def test_array_slots(self):
        assert ArrayType(F64, 5).slot_count() == 5
        assert ArrayType(ArrayType(F64, 3), 4).slot_count() == 12

    def test_array_element_offsets(self):
        nested = ArrayType(ArrayType(F64, 3), 4)
        assert nested.element_slot_offset(2) == 6

    def test_struct_slots_and_offsets(self):
        s = StructType("s", [("a", F64), ("b", ArrayType(F64, 3)), ("c", I64)])
        assert s.slot_count() == 5
        assert s.field_slot_offset(0) == 0
        assert s.field_slot_offset(1) == 1
        assert s.field_slot_offset(2) == 4

    def test_struct_field_lookup(self):
        s = StructType("s", [("a", F64), ("b", I64)])
        assert s.field_index("b") == 1
        assert s.field_type(1) == I64
        with pytest.raises(KeyError):
            s.field_index("missing")

    def test_struct_duplicate_field_rejected(self):
        s = StructType("s", [("a", F64)])
        with pytest.raises(ValueError):
            s.add_field("a", F64)

    def test_struct_add_field_returns_index(self):
        s = StructType("s")
        assert s.add_field("x", F64) == 0
        assert s.add_field("y", F64) == 1

    def test_nested_struct_slots(self):
        inner = StructType("inner", [("u", F64), ("v", F64)])
        outer = StructType("outer", [("head", F64), ("body", inner), ("tail", ArrayType(inner, 2))])
        assert outer.slot_count() == 1 + 2 + 4
        assert outer.field_slot_offset(2) == 3

    def test_struct_describe(self):
        s = StructType("params", [("gain", F64), ("bias", F64)])
        assert s.describe() == "%params = type { double gain, double bias }"


class TestFunctionTypes:
    def test_equality(self):
        a = FunctionType(F64, [F64, F64])
        b = FunctionType(F64, [F64, F64])
        c = FunctionType(F64, [F64])
        assert a == b
        assert a != c

    def test_str(self):
        assert str(FunctionType(F64, [F64, I64])) == "double (double, i64)"

    def test_not_storable(self):
        with pytest.raises(TypeError):
            FunctionType(F64, []).slot_count()


class TestMemoisedTypeFacts:
    """Derived type facts are memoised per type object and dropped whenever
    ``TYPE_MUTATION_EPOCH`` moves."""

    @staticmethod
    def _nested():
        inner = StructType("inner", [("u", F64)])
        outer = StructType("outer", [("head", F64), ("body", inner), ("tail", ArrayType(inner, 2))])
        return inner, outer

    def test_add_field_invalidates_slot_layout(self):
        inner, outer = self._nested()
        assert outer.slot_count() == 1 + 1 + 2
        assert outer.field_slot_offset(2) == 2
        assert outer.field_at_slot(3) == (2, 1)
        inner.add_field("v", I64)
        assert inner.slot_count() == 2
        assert outer.slot_count() == 1 + 2 + 4
        assert outer.field_slot_offset(2) == 3
        assert outer.field_at_slot(3) == (2, 0)
        assert outer.field_at_slot(6) == (2, 3)
        with pytest.raises(IndexError):
            outer.field_at_slot(7)

    def test_field_at_slot_skips_empty_fields(self):
        s = StructType("s", [("none", ArrayType(F64, 0)), ("a", F64), ("b", ArrayType(F64, 3))])
        assert [s.field_at_slot(i) for i in range(4)] == [(1, 0), (2, 0), (2, 1), (2, 2)]

    def test_add_field_invalidates_type_signature(self):
        from repro.ir import type_signature

        inner, outer = self._nested()
        ptr = PointerType(outer)
        before = type_signature(ptr)
        assert before == "%outer{head:double,body:%inner{u:double},tail:[2x%inner{u:double}]}*"
        inner.add_field("v", I64)
        assert type_signature(ptr) == (
            "%outer{head:double,body:%inner{u:double,v:i64},tail:[2x%inner{u:double,v:i64}]}*"
        )

    def test_recursive_struct_signature_is_cut_and_stable(self):
        from repro.ir import type_signature

        node = StructType("node", [("value", F64)])
        node.add_field("next", PointerType(node))
        assert type_signature(node) == "%node{value:double,next:%node*}"
        assert type_signature(PointerType(node)) == "%node{value:double,next:%node*}*"
        holder = StructType("holder", [("n", node)])
        assert type_signature(holder) == "%holder{n:%node{value:double,next:%node*}}"
        assert type_signature(node) == "%node{value:double,next:%node*}"

    def test_function_fingerprint_follows_struct_mutation(self):
        from repro.ir import IRBuilder, Module, function_fingerprint

        inner, outer = self._nested()
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [PointerType(outer)]), ["p"])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.load(b.gep(fn.args[0], [0, 0])))
        before = function_fingerprint(fn)
        assert function_fingerprint(fn) == before
        inner.add_field("v", I64)
        assert function_fingerprint(fn) != before

    def test_set_fields_invalidates_memos(self):
        from repro.ir import type_signature
        from repro.ir import types as ir_types

        s = StructType("s", [("a", F64)])
        assert s.slot_count() == 1 and type_signature(s) == "%s{a:double}"
        epoch = ir_types.TYPE_MUTATION_EPOCH
        s.set_fields([("a", F64), ("b", ArrayType(F64, 4))])
        assert ir_types.TYPE_MUTATION_EPOCH > epoch
        assert s.slot_count() == 5
        assert s.field_index("b") == 1
        assert type_signature(s) == "%s{a:double,b:[4xdouble]}"

    def test_decoded_module_offsets_match_the_encoded_module(self):
        from repro.ir import IRBuilder, Module, type_signature
        from repro.ir import types as ir_types
        from repro.ir.serialize import decode_module, encode_module

        inner, outer = self._nested()
        inner.add_field("v", I64)
        m = Module("t")
        m.add_struct(outer)
        m.add_struct(inner)
        fn = m.add_function("f", FunctionType(F64, [PointerType(outer)]), ["p"])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.load(b.gep(fn.args[0], [0, 2, 1, 0])))
        epoch = ir_types.TYPE_MUTATION_EPOCH
        decoded = decode_module(encode_module(m))
        assert ir_types.TYPE_MUTATION_EPOCH > epoch  # decoding sets fields through set_fields
        copy = decoded.get_struct("outer")
        assert copy is not outer
        assert copy.slot_count() == outer.slot_count() == 7
        assert [copy.field_slot_offset(i) for i in range(3)] == [0, 1, 3]
        assert [copy.field_slot_offset(i) for i in range(3)] == [
            outer.field_slot_offset(i) for i in range(3)
        ]
        assert type_signature(copy) == type_signature(outer)

    def test_memos_do_not_survive_pickling(self):
        import pickle

        inner, outer = self._nested()
        assert outer.slot_count() == 4
        copy = pickle.loads(pickle.dumps(outer))
        assert "_slot_prefix_memo" not in vars(copy)
        assert copy.slot_count() == 4 and copy == outer

    def test_pointer_types_are_shared_per_pointee(self):
        import pickle

        s = StructType("s", [("a", F64)])
        assert PointerType(s) is PointerType(s)
        assert PointerType(F64) is PointerType(F64)
        assert PointerType(PointerType(F64)) is PointerType(PointerType(F64))
        copy = pickle.loads(pickle.dumps(PointerType(s)))
        assert copy == PointerType(s) and copy.pointee.fields == s.fields
