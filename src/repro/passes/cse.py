"""Common subexpression elimination.

Dominator-scoped value numbering over pure instructions: if an identical pure
expression is available in a dominating block, later occurrences are replaced
by the earlier value.  Commutative operators are canonicalised before hashing
so ``a + b`` and ``b + a`` share a value number — the same normalisation the
clone detector applies.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.instructions import (
    GEP,
    BinaryOp,
    Call,
    Cast,
    FCmp,
    ICmp,
    Select,
)
from ..ir.module import Function
from ..ir.values import Constant, Value
from .dominators import DominatorTree
from ..driver.registry import register_pass
from .pass_base import FunctionPass


def _operand_key(value: Value):
    if isinstance(value, Constant):
        key = value.value
        if isinstance(key, float) and key != key:  # NaN
            key = "nan"
        return ("const", str(value.type), key)
    return ("val", id(value))


def _binop_key(instr: BinaryOp) -> Tuple:
    ops = [_operand_key(instr.lhs), _operand_key(instr.rhs)]
    if instr.is_commutative():
        ops.sort()
    return ("bin", instr.opcode, tuple(ops))


def _compare_key(instr) -> Tuple:
    return (instr.opcode, instr.predicate, _operand_key(instr.lhs), _operand_key(instr.rhs))


def _call_key(instr: Call) -> Tuple | None:
    if instr.has_side_effects():
        return None
    return ("call", instr.callee.name, tuple(_operand_key(a) for a in instr.args))


#: Key builder per instruction class; classes absent here never participate.
_KEY_BUILDERS = {
    BinaryOp: _binop_key,
    FCmp: _compare_key,
    ICmp: _compare_key,
    Select: lambda instr: ("select", tuple(_operand_key(op) for op in instr.operands)),
    Cast: lambda instr: ("cast", instr.opcode, str(instr.type), _operand_key(instr.value)),
    # The pointer operand fixes the GEP's types, so its key alone suffices.
    GEP: lambda instr: ("gep", tuple(_operand_key(op) for op in instr.operands)),
    Call: _call_key,
}


def expression_key(instr) -> Tuple | None:
    """A hashable key identifying the computation performed by ``instr``.

    Returns ``None`` for instructions that must not participate in CSE
    (memory operations, PRNG calls, terminators, phis).
    """
    builder = _KEY_BUILDERS.get(type(instr))
    return builder(instr) if builder is not None else None


@register_pass("cse")
class CommonSubexpressionElimination(FunctionPass):
    """Dominator-tree scoped CSE for pure expressions."""

    name = "cse"
    #: Replaces/erases non-terminators only; the CFG shape is untouched.
    preserves = "cfg"

    def run_on_function(self, function: Function, am=None) -> bool:
        if not function.blocks:
            return False
        domtree = am.get(DominatorTree, function) if am is not None else DominatorTree(function)
        changed = False
        # One scoped table for the whole dominator-tree walk (the shape of
        # LLVM's ScopedHashTable): a block's new keys go on an undo log and
        # are popped when the walk leaves its subtree.  Integers on the work
        # stack mark how far to unwind the log.
        available: Dict[Tuple, Value] = {}
        undo: List[Tuple] = []
        stack: List[object] = [function.entry_block]
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                while len(undo) > item:
                    del available[undo.pop()]
                continue
            mark = len(undo)
            dead = []
            for instr in item.instructions:
                key = expression_key(instr)
                if key is None:
                    continue
                existing = available.get(key)
                if existing is not None:
                    instr.replace_all_uses_with(existing)
                    dead.append(instr)
                else:
                    available[key] = instr
                    undo.append(key)
            if dead:
                drop = set(dead)
                item.instructions = [i for i in item.instructions if i not in drop]
                for instr in dead:
                    instr.parent = None
                    instr.drop_operands()
                function.notify_mutation()
                changed = True
            stack.append(mark)
            stack.extend(reversed(domtree.children.get(item, [])))
        return changed
