"""Function inlining.

Distill relies on aggressive inlining for two purposes (paper sections 3.5
and 4.4): whole-model optimisation across the scheduler/node boundary, and
model-level clone detection (two models are compared only after every node
function has been inlined into the trial driver).  The model code generator
marks node functions ``alwaysinline``; additionally small functions and
single-call-site functions are inlined under a size threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Branch, Call, Phi, Return
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import UndefValue, Value
from .cloning import clone_instruction, patch_forward_references
from ..driver.registry import register_pass
from .pass_base import ModulePass


def count_call_sites(module: Module) -> Dict[str, int]:
    """Call-site counts per callee name across the module's defined functions.

    Shared by the inliner's one-call-site heuristic and the analysis
    manager's ``callgraph`` analysis — the two must agree, or inlining
    decisions would diverge between cached and cold compiles.
    """
    counts: Dict[str, int] = {}
    for function in module.defined_functions():
        for instr in function.instructions():
            if isinstance(instr, Call):
                counts[instr.callee.name] = counts.get(instr.callee.name, 0) + 1
    return counts


@register_pass("inline")
class Inliner(ModulePass):
    """Inline calls to defined functions into their callers.

    Parameters
    ----------
    threshold:
        Maximum callee size (in instructions) inlined without an
        ``alwaysinline`` attribute.
    aggressive:
        When true, every call to a defined (non-recursive) function is
        inlined regardless of size — used before model-level clone detection.
    """

    name = "inline"
    #: Splices callee bodies into callers: caller CFGs change wholesale, and
    #: the call graph with them — nothing survives.
    preserves = "none"

    def __init__(self, threshold: int = 80, aggressive: bool = False):
        self.threshold = threshold
        self.aggressive = aggressive

    def run(self, module: Module, am=None) -> bool:
        changed = False
        call_counts = (
            dict(am.get("callgraph", module)) if am is not None else self._count_call_sites(module)
        )
        # Iterate because inlining can expose further inlinable call sites
        # (node functions calling library functions, etc.).
        for _ in range(8):
            local = False
            for function in list(module.defined_functions()):
                local |= self._inline_calls_in(function, call_counts)
            if not local:
                break
            changed = True
            call_counts = self._count_call_sites(module)
        return changed

    # -- heuristics -------------------------------------------------------------
    _count_call_sites = staticmethod(count_call_sites)

    def _should_inline(
        self,
        caller: Function,
        callee: Function,
        call_counts: Dict[str, int],
        facts: Dict[Function, Tuple[int, bool]],
    ) -> bool:
        """``facts`` memoises each callee's ``(size, recursive)`` for one sweep
        over ``caller``; inlining into ``caller`` never changes a callee."""
        if callee.is_declaration:
            return False
        if callee is caller:
            return False
        if callee.attributes.get("noinline"):
            return False
        known = facts.get(callee)
        if known is None:
            known = facts[callee] = (callee.instruction_count(), self._is_recursive(callee))
        size, recursive = known
        if recursive:
            return False
        if self.aggressive or callee.attributes.get("alwaysinline"):
            return True
        if size <= self.threshold:
            return True
        return call_counts.get(callee.name, 0) == 1 and size <= self.threshold * 4

    @staticmethod
    def _is_recursive(function: Function) -> bool:
        return any(
            isinstance(instr, Call) and instr.callee is function
            for instr in function.instructions()
        )

    # -- mechanics ----------------------------------------------------------------
    def _inline_calls_in(self, caller: Function, call_counts: Dict[str, int]) -> bool:
        """Inline every qualifying call site of ``caller``'s current blocks.

        Calls in the inlined bodies are left for the next round.  The block
        list is rebuilt once at the end instead of splicing per call site.
        """
        facts: Dict[Function, Tuple[int, bool]] = {}
        blocks: List[BasicBlock] = []
        for block in caller.blocks:
            blocks.append(block)
            sites = [
                index
                for index, instr in enumerate(block.instructions)
                if isinstance(instr, Call)
                and self._should_inline(caller, instr.callee, call_counts, facts)
            ]
            if sites:
                blocks.extend(self._inline_sites(block, sites))
        if len(blocks) == len(caller.blocks):
            return False
        caller.blocks = blocks
        caller.notify_mutation()
        return True

    @staticmethod
    def _inline_sites(block: BasicBlock, sites: List[int]) -> List[BasicBlock]:
        """Inline the calls at instruction indices ``sites`` (ascending) of
        ``block``; return the new blocks that follow ``block``, in order.

        Each call site ends its block: the instructions after it move, once,
        into a continuation block that the inlined body's returns branch to
        and that holds the next call site.  The caller's block list is left
        to the caller to update.
        """
        caller = block.parent
        instructions = block.instructions
        bounds = sites[1:] + [len(instructions) - 1]
        segments = [instructions[site + 1 : end + 1] for site, end in zip(sites, bounds)]
        del instructions[sites[0] + 1 :]
        new_blocks: List[BasicBlock] = []
        holder = block
        for segment in segments:
            call = holder.instructions[-1]
            callee = call.callee
            continuation = BasicBlock(caller.next_name("inl.cont"), caller)
            continuation.instructions = segment
            for instr in segment:
                instr.parent = continuation

            # Clone callee blocks into the caller; only the clones can
            # reference callee values, so only they need patching.
            vmap: Dict[int, Value] = {}
            for formal, actual in zip(callee.args, call.args):
                vmap[id(formal)] = actual
            cloned_blocks = []
            for src_block in callee.blocks:
                new_block = BasicBlock(caller.next_name(f"inl.{callee.name}"), caller)
                vmap[id(src_block)] = new_block
                cloned_blocks.append(new_block)
            for src_block, new_block in zip(callee.blocks, cloned_blocks):
                for instr in src_block.instructions:
                    new_block.append(clone_instruction(instr, vmap))
            patch_forward_references(cloned_blocks, vmap)

            # Rewrite returns into branches to the continuation; collect values.
            return_values: list[tuple[Value, BasicBlock]] = []
            for new_block in cloned_blocks:
                term = new_block.terminator
                if isinstance(term, Return):
                    if term.value is not None:
                        return_values.append((term.value, new_block))
                    term.erase()
                    new_block.append(Branch(continuation))

            # Replace the call's value with the merged return value.
            if not call.type.is_void:
                if len(return_values) == 1:
                    replacement: Value = return_values[0][0]
                elif return_values:
                    phi = Phi(call.type, caller.next_name("inl.ret"))
                    continuation.insert(0, phi)
                    for value, ret_block in return_values:
                        phi.add_incoming(value, ret_block)
                    replacement = phi
                else:
                    replacement = UndefValue(call.type)
                call.replace_all_uses_with(replacement)

            # Branch from the call's block into the inlined entry.
            call.erase()
            holder.append(Branch(vmap[id(callee.entry_block)]))
            new_blocks.extend(cloned_blocks)
            new_blocks.append(continuation)
            holder = continuation

        # The original terminator now ends the last continuation: successor
        # phis must name it as their incoming block.
        for succ in holder.successors():
            for phi in succ.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is block:
                        phi.incoming_blocks[i] = holder
        return new_blocks


def inline_all_calls(module: Module, roots: Optional[list[str]] = None) -> None:
    """Aggressively inline every call reachable from ``roots`` (or everywhere).

    Used by whole-model clone detection (paper section 4.4): after this runs,
    the trial driver contains the entire model's computation in one function.
    """
    inliner = Inliner(aggressive=True)
    if roots is None:
        inliner.run(module)
        return
    for _ in range(8):
        changed = False
        for name in roots:
            function = module.get_function(name)
            changed |= inliner._inline_calls_in(function, inliner._count_call_sites(module))
        if not changed:
            break
