"""Stable structural fingerprints for IR functions and modules.

The incremental-recompilation machinery (PR 7) content-addresses *compile
units* — one per IR function — so it needs a hash of a function's structure
that is

* **stable across processes** (sha256 over a canonical byte stream, no
  ``id()``/``hash()`` of live objects),
* **independent of value names** (the optimiser renames freely; two runs of
  the same pipeline may pick different ``v<N>`` suffixes), and
* **iterative** (a compiled mega-model holds tens of thousands of
  instructions; recursing over the operand graph overflows the C stack).

The textual printer cannot serve this purpose: unnamed values print as
``%<unnamed>``, which collapses distinct operands into one spelling.  Here
every value gets a dense sequential id — arguments first, then instructions
in block order — so operand references are unambiguous.

``Instruction.metadata`` is deliberately *excluded*: ``source_node`` tags and
friends are diagnostics, not semantics, and must not invalidate artifacts.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    ICmp,
    Instruction,
    Phi,
)
from . import types as ir_types
from .module import Function, Module
from .types import ArrayType, FunctionType, IRType, PointerType, StructType
from .values import Argument, Constant, UndefValue, Value

__all__ = ["function_fingerprint", "module_fingerprint", "type_signature"]


def type_signature(ty: IRType) -> str:
    """A canonical spelling of ``ty`` with struct layouts expanded.

    ``str(StructType)`` prints only ``%name``; for content addressing the
    field layout must participate, otherwise adding a field to a struct
    would collide with the old artifact.  Memoised on each type object until
    :data:`repro.ir.types.TYPE_MUTATION_EPOCH` moves.
    """
    epoch, memo = ty._signature_memo
    if epoch == ir_types.TYPE_MUTATION_EPOCH:
        return memo
    return _signature(ty, frozenset())[0]


def _signature(ty: IRType, seen: frozenset) -> Tuple[str, bool]:
    """``(signature, cut)``; ``cut`` is true when a recursive struct reference
    was abbreviated to ``%name`` under ``seen``.  Only uncut signatures are
    independent of ``seen``, so only those are memoised."""
    epoch, memo = ty._signature_memo
    if epoch == ir_types.TYPE_MUTATION_EPOCH:
        return memo, False
    if isinstance(ty, StructType):
        if ty.name in seen:  # pragma: no cover - structs are non-recursive
            return f"%{ty.name}", True
        inner = seen | {ty.name}
        parts = [(fname, _signature(ftype, inner)) for fname, ftype in ty.fields]
        text = "%{}{{{}}}".format(
            ty.name, ",".join(f"{fname}:{sig}" for fname, (sig, _) in parts)
        )
        cut = any(c for _, (_, c) in parts)
    elif isinstance(ty, PointerType):
        sig, cut = _signature(ty.pointee, seen)
        text = f"{sig}*"
    elif isinstance(ty, ArrayType):
        sig, cut = _signature(ty.element, seen)
        text = f"[{ty.count}x{sig}]"
    elif isinstance(ty, FunctionType):
        parts = [_signature(p, seen) for p in ty.param_types]
        ret, cut = _signature(ty.return_type, seen)
        text = f"{ret}({','.join(sig for sig, _ in parts)})"
        cut = cut or any(c for _, c in parts)
    else:
        text, cut = str(ty), False
    if not cut:
        ty._signature_memo = (ir_types.TYPE_MUTATION_EPOCH, text)
    return text, cut


def _constant_token(value: Constant) -> str:
    v = value.value
    if isinstance(v, float):
        # repr round-trips doubles exactly; NaN canonicalised (all NaNs equal
        # under Constant.__eq__, so they must hash equally too).
        if v != v:
            token = "nan"
        else:
            token = repr(v)
    else:
        token = str(v)
    return f"c:{type_signature(value.type)}:{token}"


def _instruction_tokens(fn: Function) -> Iterable[str]:
    block_ids = {id(block): index for index, block in enumerate(fn.blocks)}
    # Operand tokens by id: instructions get their dense index up front;
    # constants (often shared between instructions), arguments and undefs
    # are spelled on first use.
    tokens: dict = {}
    counter = 0
    for block in fn.blocks:
        for instr in block.instructions:
            tokens[id(instr)] = f"i:{counter}"
            counter += 1

    def operand_token(op: Value) -> str:
        token = tokens.get(id(op))
        if token is not None:
            return token
        if isinstance(op, Constant):
            token = _constant_token(op)
        elif isinstance(op, Argument):
            token = f"a:{op.index}"
        elif isinstance(op, UndefValue):
            token = f"u:{type_signature(op.type)}"
        else:
            # An operand defined outside this function's blocks (malformed
            # IR) — never fingerprint it as some unrelated local value.
            return f"x:{type_signature(op.type)}"  # pragma: no cover - defensive
        tokens[id(op)] = token
        return token

    for index, block in enumerate(fn.blocks):
        yield f"B{index}"
        for instr in block.instructions:
            parts = [instr.opcode, type_signature(instr.type)]
            if isinstance(instr, (FCmp, ICmp)):
                parts.append(instr.predicate)
            elif isinstance(instr, Cast):
                parts.append(instr.opcode)
            elif isinstance(instr, Alloca):
                parts.append(type_signature(instr.allocated_type))
            elif isinstance(instr, Call):
                parts.append(f"@{instr.callee.name}")
            elif isinstance(instr, Phi):
                parts.append(
                    ",".join(str(block_ids.get(id(b), -1)) for b in instr.incoming_blocks)
                )
            elif isinstance(instr, (Branch, CondBranch)):
                parts.append(
                    ",".join(str(block_ids.get(id(t), -1)) for t in instr.targets)
                )
            parts.extend(map(operand_token, instr.operands))
            yield "|".join(parts)


def function_fingerprint(fn: Function) -> str:
    """A sha256 hex digest of the function's structure.

    Covers the signature, attributes, block/instruction structure, operand
    graph (by dense value id), constants (bitwise for floats), callee names
    and parallel-region annotations.  Excludes value names and instruction
    metadata, both of which are presentation-only.  The digest is sha256
    over the tokens, each followed by a NUL byte.
    """
    tokens = [fn.name, type_signature(fn.type), fn.intrinsic_name or ""]
    for key in sorted(fn.attributes):
        tokens.append(f"attr:{key}={fn.attributes[key]!r}")
    for region in fn.parallel_regions:
        tokens.append(f"par:{sorted(region.items())!r}")
    tokens.extend(_instruction_tokens(fn))
    tokens.append("")
    return hashlib.sha256("\x00".join(tokens).encode("utf-8")).hexdigest()


def module_fingerprint(module: Module) -> str:
    """A sha256 hex digest over every function (sorted by name) plus structs."""
    h = hashlib.sha256()
    for name in sorted(module.structs):
        h.update(type_signature(module.structs[name]).encode("utf-8"))
        h.update(b"\x00")
    for name in sorted(module.functions):
        fn = module.functions[name]
        h.update(name.encode("utf-8"))
        h.update(function_fingerprint(fn).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
