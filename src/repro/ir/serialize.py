"""Flat, iterative serialization for IR modules.

The artifact store persists *optimized* IR modules so a warm process can skip
distill → optimize entirely.  Default ``pickle`` cannot do this: pickling
recurses through the operand/use graph, and a compiled mega-model easily
holds tens of thousands of instructions — deep enough to exhaust not just
``sys.getrecursionlimit()`` but the C stack itself.

This module therefore flattens a :class:`~repro.ir.module.Module` into plain
lists/tuples/dicts with *no* cross-references: every operand becomes an index
into a per-function value table (arguments first, then instructions in block
order), every block target a block index, every callee a function name.  The
resulting structure pickles at recursion depth O(type nesting), independent
of program size.

Decoding rebuilds instruction objects via ``object.__new__`` and re-wires
operands through :meth:`Instruction.add_operand`, so use lists are
reconstructed exactly.  Constants lose object sharing across a round trip
(each reference decodes to a fresh :class:`Constant`), which is semantically
invisible: constants compare by value throughout the compiler.

``Module.__reduce__`` delegates here, so ``pickle.dumps(module)`` works
transparently — including inside artifact-store payloads.

Mutation counters (`Function._mutation_count`, ``Module._mutation_count``)
and name counters are restored verbatim: analysis caches key on them, and a
round trip must not look like a mutation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    IRType,
    PointerType,
    StructType,
    VoidType,
)
from .values import Argument, Constant, UndefValue, Value

__all__ = ["encode_module", "decode_module", "FORMAT_VERSION"]

#: Bumped whenever the encoding changes incompatibly.  Artifact keys include
#: it (via the codegen version), and :func:`decode_module` refuses payloads
#: from another format rather than misinterpreting them.
FORMAT_VERSION = 1

_INSTR_CLASSES: Tuple[type, ...] = (
    BinaryOp,
    FCmp,
    ICmp,
    Select,
    Cast,
    Alloca,
    Load,
    Store,
    GEP,
    Phi,
    Branch,
    CondBranch,
    Return,
    Call,
)
_CLASS_TAG: Dict[type, int] = {cls: i for i, cls in enumerate(_INSTR_CLASSES)}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _encode_type(ty: IRType, structs: Dict[str, StructType]) -> tuple:
    if isinstance(ty, VoidType):
        return ("v",)
    if isinstance(ty, IntType):
        return ("i", ty.width)
    if isinstance(ty, FloatType):
        return ("f", ty.width)
    if isinstance(ty, PointerType):
        return ("p", _encode_type(ty.pointee, structs))
    if isinstance(ty, ArrayType):
        return ("a", _encode_type(ty.element, structs), ty.count)
    if isinstance(ty, StructType):
        if ty.name not in structs:
            structs[ty.name] = ty
        return ("s", ty.name)
    if isinstance(ty, FunctionType):
        return (
            "fn",
            _encode_type(ty.return_type, structs),
            tuple(_encode_type(p, structs) for p in ty.param_types),
        )
    raise TypeError(f"cannot encode IR type {ty!r}")  # pragma: no cover


def _decode_type(record: tuple, structs: Dict[str, StructType]) -> IRType:
    tag = record[0]
    if tag == "v":
        return VoidType()
    if tag == "i":
        return IntType(record[1])
    if tag == "f":
        return FloatType(record[1])
    if tag == "p":
        return PointerType(_decode_type(record[1], structs))
    if tag == "a":
        return ArrayType(_decode_type(record[1], structs), record[2])
    if tag == "s":
        return structs[record[1]]
    if tag == "fn":
        return FunctionType(
            _decode_type(record[1], structs),
            [_decode_type(p, structs) for p in record[2]],
        )
    raise ValueError(f"unknown type tag {tag!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


def _encode_operand(op: Value, ids: Dict[int, int], structs: Dict[str, StructType]) -> tuple:
    if isinstance(op, Constant):
        return ("c", _encode_type(op.type, structs), op.value)
    if isinstance(op, UndefValue):
        return ("u", _encode_type(op.type, structs))
    if isinstance(op, Argument):
        return ("a", op.index)
    key = id(op)
    if key not in ids:
        raise ValueError(
            f"operand {op!r} is not defined in the function being encoded"
        )
    return ("i", ids[key])


def _decode_operand(
    record: tuple,
    args: List[Argument],
    instrs: List[Instruction],
    structs: Dict[str, StructType],
) -> Value:
    tag = record[0]
    if tag == "c":
        return Constant(_decode_type(record[1], structs), record[2])
    if tag == "u":
        return UndefValue(_decode_type(record[1], structs))
    if tag == "a":
        return args[record[1]]
    if tag == "i":
        return instrs[record[1]]
    raise ValueError(f"unknown operand tag {tag!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------


def _encode_function(fn: Function, structs: Dict[str, StructType]) -> dict:
    ids: Dict[int, int] = {}
    block_ids: Dict[int, int] = {}
    for index, block in enumerate(fn.blocks):
        block_ids[id(block)] = index
    counter = 0
    for block in fn.blocks:
        for instr in block.instructions:
            ids[id(instr)] = counter
            counter += 1

    records: List[tuple] = []
    for block_index, block in enumerate(fn.blocks):
        for instr in block.instructions:
            cls = type(instr)
            if cls not in _CLASS_TAG:
                raise TypeError(
                    f"cannot encode instruction of type {cls.__name__}"
                )  # pragma: no cover - all IR classes are registered
            if isinstance(instr, BinaryOp) or isinstance(instr, Cast):
                extra: object = instr.opcode
            elif isinstance(instr, (FCmp, ICmp)):
                extra = instr.predicate
            elif isinstance(instr, Alloca):
                extra = _encode_type(instr.allocated_type, structs)
            elif isinstance(instr, Phi):
                extra = tuple(block_ids[id(b)] for b in instr.incoming_blocks)
            elif isinstance(instr, (Branch, CondBranch)):
                extra = tuple(block_ids[id(t)] for t in instr.targets)
            elif isinstance(instr, Call):
                extra = instr.callee.name
            else:
                extra = None
            records.append(
                (
                    block_index,
                    _CLASS_TAG[cls],
                    instr.name,
                    _encode_type(instr.type, structs),
                    extra,
                    tuple(_encode_operand(op, ids, structs) for op in instr.operands),
                    dict(instr.metadata) if instr.metadata else None,
                )
            )

    return {
        "name": fn.name,
        "type": _encode_type(fn.type, structs),
        "arg_names": [a.name for a in fn.args],
        "intrinsic_name": fn.intrinsic_name,
        "attributes": dict(fn.attributes),
        "parallel_regions": [dict(r) for r in fn.parallel_regions],
        "blocks": [b.name for b in fn.blocks],
        "instrs": records,
        "name_counter": fn._name_counter,
        "mutation_count": fn._mutation_count,
    }


def _decode_function_shell(
    record: dict, module: Module, structs: Dict[str, StructType]
) -> Function:
    ftype = _decode_type(record["type"], structs)
    fn = Function(record["name"], ftype, module, record["arg_names"])
    fn.intrinsic_name = record["intrinsic_name"]
    fn.attributes = dict(record["attributes"])
    fn.parallel_regions = [dict(r) for r in record["parallel_regions"]]
    for name in record["blocks"]:
        fn.blocks.append(BasicBlock(name, fn))
    return fn


def _decode_function_body(
    record: dict, fn: Function, module: Module, structs: Dict[str, StructType]
) -> None:
    blocks = fn.blocks
    instrs: List[Instruction] = []

    # Phase 1: shells with class-specific fields, appended in block order.
    for block_index, tag, name, ty, extra, _operands, metadata in record["instrs"]:
        cls = _INSTR_CLASSES[tag]
        instr: Instruction = object.__new__(cls)
        instr.type = _decode_type(ty, structs)
        instr.name = name
        instr.uses = ()
        instr.operands = []
        instr.metadata = dict(metadata) if metadata else {}
        block = blocks[block_index]
        instr.parent = block
        if cls is BinaryOp or cls is Cast:
            instr.opcode = extra
        elif cls is FCmp or cls is ICmp:
            instr.predicate = extra
        elif cls is Alloca:
            instr.allocated_type = _decode_type(extra, structs)
        elif cls is Phi:
            instr.incoming_blocks = [blocks[i] for i in extra]
        elif cls is Branch or cls is CondBranch:
            instr.targets = [blocks[i] for i in extra]
        elif cls is Call:
            instr.callee = module.functions[extra]
        block.instructions.append(instr)
        instrs.append(instr)

    # Phase 2: operand wiring (re-creates use lists through add_operand).
    for instr, (_, _, _, _, _, operands, _) in zip(instrs, record["instrs"]):
        for op_record in operands:
            instr.add_operand(
                _decode_operand(op_record, fn.args, instrs, structs)
            )

    # Counters last: the wiring above must not look like fresh mutations.
    fn._name_counter = record["name_counter"]
    fn._mutation_count = record["mutation_count"]


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


def encode_module(module: Module) -> dict:
    """Flatten ``module`` to a plain, shallow, picklable structure."""
    structs: Dict[str, StructType] = {}
    # Seed with registered structs so they round-trip even if unreferenced.
    for name, st in module.structs.items():
        structs.setdefault(name, st)
    functions = [
        _encode_function(fn, structs) for fn in module.functions.values()
    ]
    # Encoding a struct's fields may discover further structs; drain to fixpoint.
    struct_records: Dict[str, list] = {}
    while True:
        pending = [name for name in structs if name not in struct_records]
        if not pending:
            break
        for name in pending:
            struct_records[name] = [
                (fname, _encode_type(ftype, structs))
                for fname, ftype in structs[name].fields
            ]
    return {
        "format": FORMAT_VERSION,
        "name": module.name,
        "structs": struct_records,
        "registered_structs": list(module.structs),
        "functions": functions,
        "mutation_count": module._mutation_count,
    }


def decode_module(data: dict) -> Module:
    """Rebuild a :class:`Module` from :func:`encode_module` output."""
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"IR payload format {data.get('format')!r} != {FORMAT_VERSION}"
        )
    module = Module(data["name"])

    # Structs first: create empty shells so self-references resolve, then fill.
    structs: Dict[str, StructType] = {}
    for name in data["structs"]:
        structs[name] = StructType(name, [])
    for name, fields in data["structs"].items():
        structs[name].set_fields(
            [(fname, _decode_type(ftype, structs)) for fname, ftype in fields]
        )
    for name in data.get("registered_structs", []):
        if name in structs:
            module.structs[name] = structs[name]

    # Function shells (so Call.callee resolves even for forward references)...
    records = data["functions"]
    for record in records:
        fn = _decode_function_shell(record, module, structs)
        module.functions[fn.name] = fn
    # ... then bodies.
    for record in records:
        _decode_function_body(record, module.functions[record["name"]], module, structs)

    module._mutation_count = data["mutation_count"]
    return module


def _rebuild_module(data: dict) -> Module:
    """Unpickle hook (module-level so pickle can import it by name)."""
    return decode_module(data)


def _reduce_module(module: Module):
    return (_rebuild_module, (encode_module(module),))


# Wire pickling through the flat encoder.  Done here (not in module.py) so the
# IR core stays import-light; importing repro.ir pulls this module in.
Module.__reduce__ = _reduce_module  # type: ignore[method-assign]
