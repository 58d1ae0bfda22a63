"""IR verifier.

The verifier enforces the structural invariants the rest of the system relies
on: every block ends with exactly one terminator, operands have the expected
types, phi nodes agree with the CFG, and every value used inside a function is
defined in that function (as an argument, a constant or an instruction).  The
code generators run the verifier on freshly emitted modules and every pass is
tested to preserve verification.

Findings are produced as structured :class:`~repro.ir.diagnostics.Diagnostic`
objects (severity ``error``) carrying function/block/instruction coordinates
and source-node provenance, so verifier failures render through the same text
and JSON reporters as the lint suite.  :class:`VerificationError` keeps its
``errors`` list-of-strings API (each entry is the rendered diagnostic) and
additionally exposes ``diagnostics``.
"""

from __future__ import annotations

from typing import List, Optional

from .cfg import predecessor_map, reachable_blocks
from .diagnostics import Diagnostic, dedupe
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
from .values import Argument, Constant, UndefValue


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""

    def __init__(self, errors):
        if errors and isinstance(errors[0], Diagnostic):
            self.diagnostics: List[Diagnostic] = list(errors)
            self.errors = [d.render() for d in self.diagnostics]
        else:
            self.errors = list(errors)
            self.diagnostics = [
                Diagnostic(check="verify", severity="error", message=e)
                for e in self.errors
            ]
        super().__init__("\n".join(self.errors))


def verify_module(module: Module) -> None:
    """Verify every defined function in ``module``.

    Raises :class:`VerificationError` listing all problems found.
    """
    diagnostics = verify_module_diagnostics(module)
    if diagnostics:
        raise VerificationError(diagnostics)


def verify_function(function: Function) -> None:
    diagnostics = _verify_function(function)
    if diagnostics:
        raise VerificationError(dedupe(diagnostics))


def verify_module_diagnostics(module: Module) -> List[Diagnostic]:
    """All verifier findings for ``module`` as deduplicated diagnostics.

    An empty list means the module verifies; callers that want the raising
    behaviour use :func:`verify_module`.
    """
    diagnostics: List[Diagnostic] = []
    for fn in module.defined_functions():
        diagnostics.extend(_verify_function(fn))
    return dedupe(diagnostics)


class _Reporter:
    """Accumulates diagnostics with the coordinates of the current scope."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.diagnostics: List[Diagnostic] = []

    def report(self, message: str, block: Optional[BasicBlock] = None,
               instr: Optional[Instruction] = None) -> None:
        index = -1
        opcode = ""
        source_node = ""
        if instr is not None:
            if block is None and instr.parent is not None:
                block = instr.parent
            opcode = type(instr).__name__.lower()
            if isinstance(instr, (BinaryOp, Cast)):
                opcode = instr.opcode
            node = instr.metadata.get("source_node") if instr.metadata else None
            if node:
                source_node = str(node)
            if block is not None:
                try:
                    index = block.instructions.index(instr)
                except ValueError:
                    index = -1
        self.diagnostics.append(
            Diagnostic(
                check="verify",
                severity="error",
                message=message,
                function=self.fn.name,
                block=block.name if block is not None else "",
                index=index,
                opcode=opcode,
                source_node=source_node,
            )
        )


def _verify_function(fn: Function) -> List[Diagnostic]:
    out = _Reporter(fn)

    if not fn.blocks:
        return out.diagnostics

    defined: set[int] = {id(arg) for arg in fn.args}
    for block in fn.blocks:
        for instr in block.instructions:
            defined.add(id(instr))

    preds = predecessor_map(fn)
    block_ids = {id(b) for b in fn.blocks}

    for block in fn.blocks:
        # Terminator discipline -------------------------------------------------
        if not block.instructions:
            out.report(f"block {block.name} is empty", block=block)
            continue
        terminators = [i for i in block.instructions if i.is_terminator]
        if len(terminators) != 1:
            out.report(
                f"block {block.name} has {len(terminators)} terminators",
                block=block,
            )
        elif block.instructions[-1] is not terminators[0]:
            out.report(
                f"terminator of block {block.name} is not last", block=block
            )

        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    out.report(
                        f"phi {instr.ref()} appears after a non-phi "
                        f"instruction in block {block.name}",
                        block=block,
                        instr=instr,
                    )
            else:
                seen_non_phi = True

            if instr.parent is not block:
                out.report(
                    f"instruction {instr.ref()} has stale parent pointer",
                    block=block,
                    instr=instr,
                )

            # Operand availability ----------------------------------------------
            for op in instr.operands:
                if id(op) in defined:  # this function's arguments/instructions
                    continue
                if isinstance(op, (Constant, UndefValue)):
                    continue
                if isinstance(op, Argument):
                    out.report(
                        f"{instr.ref()} uses argument {op.ref()} "
                        f"from another function",
                        block=block,
                        instr=instr,
                    )
                    continue
                if isinstance(op, Instruction):
                    out.report(
                        f"{instr.ref()} uses {op.ref()} which is "
                        f"not defined in this function",
                        block=block,
                        instr=instr,
                    )
                    continue
                out.report(
                    f"{instr.ref()} has unexpected operand {op!r}",
                    block=block,
                    instr=instr,
                )

            check = _TYPE_CHECKS.get(type(instr))
            if check is not None:
                for message in check(instr) or ():
                    out.report(message, block=block, instr=instr)

            # Branch targets must belong to this function ------------------------
            if isinstance(instr, (Branch, CondBranch)):
                for target in instr.targets:
                    if id(target) not in block_ids:
                        out.report(
                            f"branch in {block.name} targets foreign "
                            f"block {target.name}",
                            block=block,
                            instr=instr,
                        )

        # Phi / CFG agreement -----------------------------------------------------
        block_preds = preds.get(block, [])
        for phi in block.phis():
            incoming_ids = {id(b) for b in phi.incoming_blocks}
            pred_ids = {id(b) for b in block_preds}
            if incoming_ids != pred_ids:
                pred_names = sorted(b.name for b in block_preds)
                inc_names = sorted(b.name for b in phi.incoming_blocks)
                out.report(
                    f"phi {phi.ref()} in {block.name} has incoming "
                    f"blocks {inc_names} but predecessors are {pred_names}",
                    block=block,
                    instr=phi,
                )
            for value, _ in phi.incoming():
                if value.type != phi.type and not isinstance(value, UndefValue):
                    out.report(
                        f"phi {phi.ref()} incoming value {value.ref()} "
                        f"has type {value.type}, expected {phi.type}",
                        block=block,
                        instr=phi,
                    )

    # Return type discipline ----------------------------------------------------------
    for block in reachable_blocks(fn):
        term = block.terminator
        if isinstance(term, Return):
            if fn.return_type.is_void and term.value is not None:
                out.report(
                    "returns a value from a void function", block=block,
                    instr=term,
                )
            if not fn.return_type.is_void:
                if term.value is None:
                    out.report("missing return value", block=block, instr=term)
                elif term.value.type != fn.return_type:
                    out.report(
                        f"return type {term.value.type} does not match "
                        f"declared {fn.return_type}",
                        block=block,
                        instr=term,
                    )
    return out.diagnostics


# Per-class type checks: each returns the messages of the violations found
# (``None`` when there are none).


def _check_binop(instr: BinaryOp) -> Optional[List[str]]:
    lhs, rhs = instr.lhs, instr.rhs
    errors = []
    if lhs.type != rhs.type:
        errors.append(f"{instr.opcode} operands have mismatched types")
    if instr.opcode.startswith("f"):
        if not lhs.type.is_float:
            errors.append(f"{instr.opcode} requires float operands, got {lhs.type}")
    elif not lhs.type.is_int:
        errors.append(f"{instr.opcode} requires integer operands, got {lhs.type}")
    return errors or None


def _check_compare(instr) -> Optional[List[str]]:
    errors = []
    kind = instr.opcode
    if not (instr.lhs.type.is_float if kind == "fcmp" else instr.lhs.type.is_int):
        errors.append(f"{kind} requires {'float' if kind == 'fcmp' else 'integer'} operands")
    if instr.lhs.type != instr.rhs.type:
        errors.append(f"{kind} operands have mismatched types")
    return errors or None


def _check_select(instr: Select) -> Optional[List[str]]:
    errors = []
    if not instr.condition.type.is_int:
        errors.append("select condition must be an integer/boolean")
    if instr.true_value.type != instr.false_value.type:
        errors.append("select arms have mismatched types")
    return errors or None


def _check_load(instr: Load) -> Optional[List[str]]:
    ptype = instr.pointer.type
    if not ptype.is_pointer:
        return ["load operand must be a pointer"]
    if instr.type != ptype.pointee:
        return ["load result type does not match pointee type"]
    return None


def _check_store(instr: Store) -> Optional[List[str]]:
    ptype = instr.pointer.type
    if not ptype.is_pointer:
        return ["store target must be a pointer"]
    if instr.value.type != ptype.pointee:
        return [f"store of {instr.value.type} into pointer to {ptype.pointee}"]
    return None


def _check_gep(instr: GEP) -> Optional[List[str]]:
    ptype = instr.pointer.type
    if not ptype.is_pointer:
        return ["gep base must be a pointer"]
    try:
        expected = GEP.resolve_type(ptype.pointee, instr.indices)
    except (TypeError, IndexError, KeyError) as exc:
        return [f"invalid gep indices: {exc}"]
    if instr.type.pointee != expected:
        return ["gep result type does not match addressed member"]
    return None


def _check_condbranch(instr: CondBranch) -> Optional[List[str]]:
    if not instr.condition.type.is_int:
        return ["conditional branch condition must be i1"]
    return None


def _check_call(instr: Call) -> Optional[List[str]]:
    errors = []
    for i, (arg, expected) in enumerate(zip(instr.operands, instr.callee.type.param_types)):
        if arg.type != expected:
            errors.append(
                f"call to @{instr.callee.name}: argument {i} has type "
                f"{arg.type}, expected {expected}"
            )
    return errors or None


def _check_cast(instr: Cast) -> Optional[List[str]]:
    src, dst = instr.value.type, instr.type
    if instr.opcode == "sitofp" and not (src.is_int and dst.is_float):
        return ["sitofp requires int -> float"]
    if instr.opcode == "fptosi" and not (src.is_float and dst.is_int):
        return ["fptosi requires float -> int"]
    return None


def _check_alloca(instr: Alloca) -> Optional[List[str]]:
    if not instr.type.is_pointer:
        return ["alloca must produce a pointer"]
    return None


_TYPE_CHECKS = {
    BinaryOp: _check_binop,
    FCmp: _check_compare,
    ICmp: _check_compare,
    Select: _check_select,
    Load: _check_load,
    Store: _check_store,
    GEP: _check_gep,
    CondBranch: _check_condbranch,
    Call: _check_call,
    Cast: _check_cast,
    Alloca: _check_alloca,
}
