"""Value hierarchy for the repro IR.

Everything that can appear as an operand of an instruction is a
:class:`Value`: constants, function arguments and the instructions themselves
(an instruction *is* the SSA value it defines).  Values keep a use list so
that passes can rewrite the program with ``replace_all_uses_with`` without
scanning the whole module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from .types import BOOL, F32, F64, I64, IRType, IntType, FloatType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instructions import Instruction


class Value:
    """Base class for every SSA value in the IR.

    ``__slots__`` throughout the value hierarchy: a compiled model holds
    tens of thousands of instruction objects, and slot storage shaves both
    the per-instance dict allocation (compile-time + memory) and the
    attribute-lookup indirection on the interpreter's hot path.  Passes and
    analyses must not tack ad-hoc attributes onto values — use
    ``Instruction.metadata`` for that.
    """

    __slots__ = ("type", "name", "uses")

    def __init__(self, ty: IRType, name: str = ""):
        self.type = ty
        self.name = name
        #: Instructions that use this value as an operand.  An instruction may
        #: appear multiple times if it uses the value in several operand slots.
        #: An empty tuple until the first use: values that are never used
        #: (stores, branches, void calls) allocate no list.
        self.uses: Sequence["Instruction"] = ()

    # -- use bookkeeping ------------------------------------------------
    def add_use(self, user: "Instruction") -> None:
        if self.uses:
            self.uses.append(user)
        else:
            self.uses = [user]

    def remove_use(self, user: "Instruction") -> None:
        # Remove a single occurrence; operand replacement handles multiplicity.
        if self.uses:
            try:
                self.uses.remove(user)
            except ValueError:
                pass

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every user of ``self`` to use ``new`` instead."""
        if new is self:
            return
        for user in list(self.uses):
            user.replace_operand(self, new)

    # -- display ---------------------------------------------------------
    def ref(self) -> str:
        """Short reference used when this value appears as an operand."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{self.__class__.__name__} {self.ref()}: {self.type}>"


class Constant(Value):
    """A compile-time constant scalar value.

    Constants keep no use list (``uses`` stays empty): no pass walks the
    users of a constant, and a compiled model holds thousands of them.
    """

    __slots__ = ("value",)

    def __init__(self, ty: IRType, value):
        super().__init__(ty, name="")
        if ty.is_int:
            value = int(value)
            if isinstance(ty, IntType) and ty.width == 1:
                value = 1 if value else 0
        elif ty.is_float:
            value = float(value)
        self.value = value

    def add_use(self, user: "Instruction") -> None:
        pass

    def remove_use(self, user: "Instruction") -> None:
        pass

    def ref(self) -> str:
        if self.type.is_float:
            if math.isnan(self.value):
                return "nan"
            if math.isinf(self.value):
                return "inf" if self.value > 0 else "-inf"
            return repr(self.value)
        return str(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        if self.type != other.type:
            return False
        if isinstance(self.value, float) and isinstance(other.value, float):
            if math.isnan(self.value) and math.isnan(other.value):
                return True
        return self.value == other.value

    def __hash__(self) -> int:
        v = self.value
        if isinstance(v, float) and math.isnan(v):
            v = "nan"
        return hash((self.type, v))


class UndefValue(Value):
    """An undefined value of a given type (used rarely, e.g. by mem2reg)."""

    __slots__ = ()

    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("index",)

    def __init__(self, ty: IRType, name: str, index: int):
        super().__init__(ty, name)
        self.index = index


# --------------------------------------------------------------------------
# Constant constructors
# --------------------------------------------------------------------------

def const_float(value: float, ty: FloatType = F64) -> Constant:
    """A floating point constant (defaults to double precision)."""
    return Constant(ty, float(value))


def const_int(value: int, ty: IntType | None = None) -> Constant:
    """An integer constant (defaults to i64)."""
    return Constant(ty if ty is not None else I64, int(value))


def const_bool(value: bool) -> Constant:
    """A boolean (i1) constant."""
    return Constant(BOOL, 1 if value else 0)


def is_constant(value: Value) -> bool:
    return isinstance(value, Constant)


def constant_value(value: Value, default=None):
    """The Python value of a constant, or ``default`` if not a constant."""
    if isinstance(value, Constant):
        return value.value
    return default
