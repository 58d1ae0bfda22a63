"""Type system for the repro IR.

The repro IR mirrors the subset of LLVM's type system that Distill relies on:
scalar integer and floating point types, booleans, pointers, fixed-size arrays
and named structures.  Types are immutable value objects: two structurally
identical types compare equal and hash equally, which the verifier, the clone
detector and the code generators all rely on.

A central concept used throughout the backends is the *slot layout*.  Rather
than modelling byte-addressable memory, aggregate types are flattened into a
linear sequence of scalar slots (one slot per scalar leaf).  ``slot_count``
returns the number of slots occupied by a type and ``field_slot_offset`` /
``element_slot_offset`` compute the linear offset of a member, which is what
the ``getelementptr`` instruction lowers to in every execution engine.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence, Tuple

#: Monotonic counter bumped whenever a type is mutated in place (only
#: ``StructType.add_field`` and ``StructType.set_fields`` do).  Every memo of
#: a derived type fact compares this epoch and recomputes when it moves: a
#: struct's slot prefix offsets (``slot_count`` / ``field_slot_offset``),
#: ``repro.ir.fingerprint.type_signature`` and ``repro.backends.runtime``'s
#: GEP-offset tables.  Appending a field changes ``slot_count()`` and
#: therefore every offset that scales by the whole aggregate (including
#: transitively, via arrays of structs), so a mutation anywhere invalidates
#: every memo.
TYPE_MUTATION_EPOCH = 0


def bump_type_mutation_epoch() -> None:
    global TYPE_MUTATION_EPOCH
    TYPE_MUTATION_EPOCH += 1



class IRType:
    """Base class of every type in the repro IR."""

    #: True for types that occupy exactly one memory slot.
    is_scalar = False
    #: True for floating point types.
    is_float = False
    #: True for integer types (including booleans).
    is_int = False
    #: True for pointer types.
    is_pointer = False
    #: True for aggregate (array/struct) types.
    is_aggregate = False
    #: True for the void type.
    is_void = False
    #: ``(epoch, signature)`` memo of :func:`repro.ir.fingerprint.type_signature`,
    #: valid while :data:`TYPE_MUTATION_EPOCH` equals ``epoch``.
    _signature_memo: Tuple[int, str] = (-1, "")

    def __getstate__(self) -> dict:
        # Memos are keyed on this process's epoch counter; a pickled copy
        # must recompute them rather than trust a foreign epoch.
        return {k: v for k, v in self.__dict__.items() if not k.endswith("_memo")}

    def slot_count(self) -> int:
        """Number of scalar memory slots this type occupies when stored."""
        raise NotImplementedError

    def default_value(self):
        """The zero-initialised Python value for a scalar of this type."""
        raise NotImplementedError("only scalar types have default values")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{self.__class__.__name__} {self}>"


class VoidType(IRType):
    """The type of functions that return no value."""

    is_void = True

    def slot_count(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class IntType(IRType):
    """An integer type of a fixed bit width.

    Width 1 is the boolean type produced by comparisons.  The interpreter and
    the Python backend use ordinary Python integers to hold these values, but
    the width still matters for overflow semantics of ``trunc`` and for the
    printer/clone-detector, so it is part of the type identity.
    """

    is_scalar = True
    is_int = True

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"integer width must be positive, got {width}")
        self.width = int(width)

    def slot_count(self) -> int:
        return 1

    def default_value(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"i{self.width}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntType) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("int", self.width))


class FloatType(IRType):
    """An IEEE-754 floating point type (``float`` = f32, ``double`` = f64)."""

    is_scalar = True
    is_float = True

    def __init__(self, width: int):
        if width not in (32, 64):
            raise ValueError(f"float width must be 32 or 64, got {width}")
        self.width = int(width)

    def slot_count(self) -> int:
        return 1

    def default_value(self) -> float:
        return 0.0

    def __str__(self) -> str:
        return "float" if self.width == 32 else "double"

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatType) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("float", self.width))


class PointerType(IRType):
    """A pointer to a value of ``pointee`` type.

    Pointers are represented at run time as ``(buffer, offset)`` pairs where
    ``buffer`` is a flat slot container.  Pointer values occupy one slot when
    stored (although models never store pointers into aggregates in practice).
    """

    is_scalar = True
    is_pointer = True

    def __new__(cls, pointee: IRType):
        # One pointer type object per pointee object: every GEP, load and
        # alloca asks for one, and sharing them saves an allocation each.
        if pointee is None:
            raise ValueError("pointer must have a pointee type")
        shared = pointee.__dict__.get("_pointer_memo")
        if shared is None:
            shared = super().__new__(cls)
            shared.pointee = pointee
            pointee._pointer_memo = shared
        return shared

    def __getnewargs__(self):
        return (self.pointee,)

    def slot_count(self) -> int:
        return 1

    def default_value(self):
        return None

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, PointerType) and other.pointee == self.pointee
        )

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(IRType):
    """A fixed-length homogeneous array ``[count x element]``."""

    is_aggregate = True

    def __init__(self, element: IRType, count: int):
        if count < 0:
            raise ValueError(f"array length must be non-negative, got {count}")
        self.element = element
        self.count = int(count)

    def slot_count(self) -> int:
        return self.count * self.element.slot_count()

    def element_slot_offset(self, index: int) -> int:
        """Linear slot offset of ``array[index]`` within the array."""
        return index * self.element.slot_count()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, ArrayType)
            and other.count == self.count
            and other.element == self.element
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class StructType(IRType):
    """A named structure with ordered, named fields.

    Distill's static data-structure conversion (paper section 3.3) lowers the
    dynamic dicts and lists used by cognitive models into structs of this
    kind.  Field names are retained so that generated IR stays readable and
    so that the control/data-flow analyses can report results in terms of the
    original model parameters.
    """

    is_aggregate = True
    #: ``(epoch, prefix)``: ``prefix[i]`` is the slot offset of field ``i``
    #: and ``prefix[-1]`` the struct's slot count, valid while
    #: :data:`TYPE_MUTATION_EPOCH` equals ``epoch``.
    _slot_prefix_memo: Tuple[int, list] = (-1, [])
    #: Field name -> index, built on first use and kept in step with
    #: ``fields`` by :meth:`add_field` / :meth:`set_fields`.
    _field_index_memo: Optional[dict] = None

    def __init__(self, name: str, fields: Sequence[Tuple[str, IRType]] = ()):
        self.name = name
        #: The ``(name, type)`` field list.  Never mutate it in place: use
        #: :meth:`add_field` or :meth:`set_fields`, which bump
        #: :data:`TYPE_MUTATION_EPOCH` so every memoised type fact is dropped.
        self.fields: list[Tuple[str, IRType]] = list(fields)

    # -- construction -------------------------------------------------
    def add_field(self, name: str, ftype: IRType) -> int:
        """Append a field and return its index."""
        positions = self._positions()
        if name in positions:
            raise ValueError(f"duplicate field {name!r} in struct {self.name}")
        positions[name] = len(self.fields)
        self.fields.append((name, ftype))
        bump_type_mutation_epoch()
        return len(self.fields) - 1

    def set_fields(self, fields: Sequence[Tuple[str, IRType]]) -> None:
        """Replace the whole field list (e.g. when decoding a module)."""
        self.fields = list(fields)
        self._field_index_memo = None
        bump_type_mutation_epoch()

    # -- queries ------------------------------------------------------
    def _positions(self) -> dict:
        """Field name -> index (first occurrence)."""
        positions = self._field_index_memo
        if positions is None:
            positions = self._field_index_memo = {}
            for i, (fname, _) in enumerate(self.fields):
                positions.setdefault(fname, i)
        return positions

    def field_index(self, name: str) -> int:
        try:
            return self._positions()[name]
        except KeyError:
            raise KeyError(f"struct {self.name} has no field {name!r}") from None

    def field_type(self, index: int) -> IRType:
        return self.fields[index][1]

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def _slot_prefix(self) -> list[int]:
        epoch, prefix = self._slot_prefix_memo
        if epoch != TYPE_MUTATION_EPOCH:
            prefix = [0]
            running = 0
            for _, ftype in self.fields:
                running += ftype.slot_count()
                prefix.append(running)
            self._slot_prefix_memo = (TYPE_MUTATION_EPOCH, prefix)
        return prefix

    def slot_count(self) -> int:
        return self._slot_prefix()[-1]

    def field_slot_offset(self, index: int) -> int:
        """Linear slot offset of field ``index`` within the struct."""
        if index < 0 or index >= len(self.fields):
            raise IndexError(
                f"field index {index} out of range for struct {self.name}"
            )
        return self._slot_prefix()[index]

    def field_at_slot(self, slot: int) -> Tuple[int, int]:
        """``(field index, slot within that field)`` of linear slot ``slot``.

        Zero-slot fields never contain a slot.  Raises :class:`IndexError`
        when ``slot`` lies outside the struct.
        """
        prefix = self._slot_prefix()
        if slot < 0 or slot >= prefix[-1]:
            raise IndexError(f"slot {slot} out of range for struct {self.name}")
        index = bisect_right(prefix, slot) - 1
        return index, slot - prefix[index]

    def __str__(self) -> str:
        return f"%{self.name}"

    def describe(self) -> str:
        """Full textual definition used by the module printer."""
        body = ", ".join(f"{ftype} {fname}" for fname, ftype in self.fields)
        return f"%{self.name} = type {{ {body} }}"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, StructType)
            and other.name == self.name
            and other.fields == self.fields
        )

    def __hash__(self) -> int:
        return hash(("struct", self.name, tuple(self.fields)))


class FunctionType(IRType):
    """The type of an IR function: a return type plus parameter types."""

    def __init__(self, return_type: IRType, param_types: Iterable[IRType]):
        self.return_type = return_type
        self.param_types: list[IRType] = list(param_types)

    def slot_count(self) -> int:
        raise TypeError("function types are not storable")

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.return_type} ({params})"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
        )

    def __hash__(self) -> int:
        return hash(("fn", self.return_type, tuple(self.param_types)))


# --------------------------------------------------------------------------
# Singletons for the common types.  Using shared instances keeps type
# comparison cheap and makes IR dumps compact.
# --------------------------------------------------------------------------
VOID = VoidType()
BOOL = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def pointer(pointee: IRType) -> PointerType:
    """Convenience constructor for pointer types."""
    return PointerType(pointee)


def array(element: IRType, count: int) -> ArrayType:
    """Convenience constructor for array types."""
    return ArrayType(element, count)


def slots_of(ty: IRType) -> int:
    """Number of scalar slots occupied by ``ty`` (module-level convenience)."""
    return ty.slot_count()
