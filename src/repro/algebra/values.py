"""Structure *values*: Moa objects materialized over BATs.

Flattening is the defining idea of Moa: a structured value is
represented as a small set of flat binary tables.  Here

* a collection of atoms is one BAT ``[(position, element)]`` with a
  dense head (the position encodes LIST order; BAG/SET ignore it);
* a collection of flat tuples is a *column group*: one aligned BAT per
  field, all sharing the dense position head;
* an atomic value is a bare python scalar with its type;
* a tuple value is a record of named structure values.

Equality respects structure semantics: LISTs compare elementwise in
order, BAGs as multisets, SETs as sets.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping

import numpy as np

from ..errors import AlgebraTypeError
from ..storage.bat import BAT
from .types import (
    AtomicType,
    BagType,
    FLOAT,
    INT,
    ListType,
    STR,
    SetType,
    StructureType,
    TupleType,
)

#: column name used for the single column of atomic-element collections
ELEM = "_elem"


class StructureValue:
    """Base class for all algebra values."""

    stype: StructureType

    def equals(self, other: "StructureValue") -> bool:
        """Structural equality under this structure's semantics."""
        raise NotImplementedError

    def to_python(self):
        """Convert to a plain python object (lists/sets/dicts/scalars)."""
        raise NotImplementedError


class AtomValue(StructureValue):
    """An atomic value: a python scalar plus its atomic type."""

    def __init__(self, value, stype: AtomicType | None = None) -> None:
        if stype is None:
            stype = _infer_atom_type(value)
        if stype.kind == "int":
            value = int(value)
        elif stype.kind == "float":
            value = float(value)
        else:
            value = str(value)
        self.value = value
        self.stype = stype

    def equals(self, other: StructureValue) -> bool:
        return (isinstance(other, AtomValue) and self.stype == other.stype
                and self.value == other.value)

    def to_python(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomValue({self.value!r}: {self.stype})"


def _infer_atom_type(value) -> AtomicType:
    if isinstance(value, bool):
        return INT
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return FLOAT
    if isinstance(value, str):
        return STR
    raise AlgebraTypeError(f"cannot infer an atomic type for {value!r}")


class CollectionValue(StructureValue):
    """A LIST/BAG/SET value flattened onto aligned BATs.

    ``columns`` maps field names to BATs; atomic-element collections
    use the single pseudo-field :data:`ELEM`.  All BATs must be equal
    length; positions are implicit (dense heads).
    """

    def __init__(self, stype: StructureType, columns: Mapping[str, BAT]) -> None:
        if not stype.is_collection:
            raise AlgebraTypeError(f"CollectionValue needs a collection type, got {stype}")
        element = stype.element()
        columns = dict(columns)
        if element.is_atomic:
            if set(columns) != {ELEM}:
                raise AlgebraTypeError(
                    f"atomic-element collection must have exactly the {ELEM!r} column"
                )
        elif isinstance(element, TupleType):
            expected = set(element.field_names())
            if set(columns) != expected:
                raise AlgebraTypeError(
                    f"tuple-element collection columns {sorted(columns)} "
                    f"!= fields {sorted(expected)}"
                )
        else:
            raise AlgebraTypeError(f"unsupported element type {element} (no nested collections)")
        lengths = {name: len(bat) for name, bat in columns.items()}
        if len(set(lengths.values())) > 1:
            raise AlgebraTypeError(f"column group is ragged: {lengths}")
        self.stype = stype
        self.columns = columns

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_atoms(cls, stype: StructureType, elements) -> "CollectionValue":
        """Build an atomic-element collection from a python sequence.

        SETs deduplicate (and, being unordered, store elements sorted
        for canonical form).
        """
        element = stype.element()
        if not element.is_atomic:
            raise AlgebraTypeError(f"from_atoms needs an atomic element type, got {element}")
        arr = _atoms_to_array(elements, element)
        if isinstance(stype, SetType):
            arr = np.unique(arr)
            bat = BAT(arr, tail_sorted=True, tail_key=True)
        else:
            # record sortedness so order-aware operators (binary-search
            # select, prefix top-N) can exploit it — the LIST extension's
            # "awareness of ordering" from the paper's Example 1
            bat = BAT(arr).refresh_sortedness()
        return cls(stype, {ELEM: bat})

    @classmethod
    def from_rows(cls, stype: StructureType, rows) -> "CollectionValue":
        """Build a tuple-element collection from dict rows."""
        element = stype.element()
        if not isinstance(element, TupleType):
            raise AlgebraTypeError(f"from_rows needs a tuple element type, got {element}")
        rows = list(rows)
        columns = {}
        for name in element.field_names():
            ftype = element.field(name)
            if not ftype.is_atomic:
                raise AlgebraTypeError(f"tuple field {name!r} must be atomic, got {ftype}")
            columns[name] = BAT(_atoms_to_array([row[name] for row in rows], ftype))
        return cls(stype, columns)

    # -- accessors ----------------------------------------------------------

    @property
    def element_type(self) -> StructureType:
        return self.stype.element()

    @property
    def is_atomic_elements(self) -> bool:
        return self.element_type.is_atomic

    @property
    def bat(self) -> BAT:
        """The single column of an atomic-element collection."""
        if not self.is_atomic_elements:
            raise AlgebraTypeError("`.bat` is only defined for atomic-element collections")
        return self.columns[ELEM]

    def column(self, name: str) -> BAT:
        """One column of a tuple-element collection (or ELEM)."""
        try:
            return self.columns[name]
        except KeyError:
            raise AlgebraTypeError(f"collection has no column {name!r}") from None

    @property
    def count(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.count

    def iter_elements(self) -> Iterator:
        """Yield python elements: scalars, or field dicts for tuples."""
        if self.is_atomic_elements:
            for _, value in self.bat.pairs():
                yield value
        else:
            names = list(self.columns)
            iters = [self.columns[name].pairs() for name in names]
            for parts in zip(*iters):
                yield {name: value for name, (_, value) in zip(names, parts)}

    def to_python(self):
        elements = list(self.iter_elements())
        if isinstance(self.stype, SetType):
            return set(elements)
        return elements

    # -- semantics-aware equality ------------------------------------------------

    def equals(self, other: StructureValue) -> bool:
        if not isinstance(other, CollectionValue) or self.stype != other.stype:
            return False
        if self.count != other.count:
            return False
        mine, theirs = list(self.iter_elements()), list(other.iter_elements())
        if isinstance(self.stype, ListType):
            return mine == theirs
        if isinstance(self.stype, SetType):
            return set(mine) == set(theirs)
        # BAG: multiset equality
        key = ((lambda e: tuple(sorted(e.items())))
               if mine and isinstance(mine[0], dict) else (lambda e: e))
        return Counter(map(key, mine)) == Counter(map(key, theirs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = list(self.iter_elements())[:5]
        suffix = ", ..." if self.count > 5 else ""
        return f"{self.stype}({preview}{suffix}, n={self.count})"


class TupleValue(StructureValue):
    """A record of named structure values."""

    def __init__(self, fields: Mapping[str, StructureValue]) -> None:
        self.fields = dict(fields)
        self.stype = TupleType.of(**{name: value.stype for name, value in self.fields.items()})

    def field(self, name: str) -> StructureValue:
        try:
            return self.fields[name]
        except KeyError:
            raise AlgebraTypeError(f"tuple value has no field {name!r}") from None

    def equals(self, other: StructureValue) -> bool:
        if not isinstance(other, TupleValue) or self.stype != other.stype:
            return False
        return all(value.equals(other.fields[name]) for name, value in self.fields.items())

    def to_python(self):
        return {name: value.to_python() for name, value in self.fields.items()}


def _atoms_to_array(elements, element_type: AtomicType) -> np.ndarray:
    elements = list(elements)
    if element_type.kind == "str":
        if not elements:
            return np.asarray([], dtype="U1")
        return np.asarray([str(e) for e in elements])
    dtype = np.int64 if element_type.kind == "int" else np.float64
    return np.asarray(elements, dtype=dtype)


# -- convenient literal constructors ----------------------------------------


def make_list(elements, element_type: AtomicType | None = None) -> CollectionValue:
    """Build a ``LIST<atom>`` value from a python sequence."""
    element_type = element_type or _infer_elements_type(elements)
    return CollectionValue.from_atoms(ListType(element_type), elements)


def make_bag(elements, element_type: AtomicType | None = None) -> CollectionValue:
    """Build a ``BAG<atom>`` value from a python sequence."""
    element_type = element_type or _infer_elements_type(elements)
    return CollectionValue.from_atoms(BagType(element_type), elements)


def make_set(elements, element_type: AtomicType | None = None) -> CollectionValue:
    """Build a ``SET<atom>`` value (duplicates removed)."""
    element_type = element_type or _infer_elements_type(elements)
    return CollectionValue.from_atoms(SetType(element_type), elements)


def _infer_elements_type(elements) -> AtomicType:
    for element in elements:
        return _infer_atom_type(element)
    return INT  # empty collections default to int elements
