"""Binary Association Tables (BATs) — the flat storage model.

Moa ("Flattening an Object Algebra to Provide Performance", Boncz,
Wilschut & Kersten 1998) evaluates structured object-algebra
expressions by flattening them onto *binary* relations processed by the
MonetDB kernel.  This module provides that substrate: a :class:`BAT`
is a two-column table of ``(head, tail)`` pairs.

Representation choices mirror MonetDB:

* the **head** column is usually a *dense* (void) sequence of object
  identifiers ``hseqbase, hseqbase+1, ...`` which is never materialized
  unless needed (``head=None``);
* the **tail** column is a numpy array of integers, floats, or strings;
* BATs carry *properties* (``tail_sorted``, ``tail_sorted_desc``,
  ``head_key``, ``tail_key``) that the kernel and the optimizer exploit
  — e.g. a range-select on a tail-sorted BAT uses binary search and
  touches only the qualifying pages.

Every BAT owns a ``segment_id`` naming its logical disk segment for the
simulated buffer manager (:mod:`repro.storage.buffer`).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from ..errors import BATShapeError, BATTypeError

_segment_ids = itertools.count(1)

#: numpy kinds accepted for BAT columns: signed ints, floats, unicode
_ALLOWED_KINDS = frozenset("ifU")


def _as_column(values, what: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D numpy array of an allowed kind."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":
        # try to homogenise object arrays (e.g. lists of python strs)
        arr = np.asarray([str(v) for v in values])
    if arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    if arr.dtype.kind == "u":
        arr = arr.astype(np.int64)
    if arr.dtype.kind not in _ALLOWED_KINDS:
        raise BATTypeError(
            f"{what} column must be int, float or str; got dtype {arr.dtype}"
        )
    if arr.ndim != 1:
        raise BATShapeError(f"{what} column must be one-dimensional, got shape {arr.shape}")
    return arr


class BAT:
    """A binary association table ``[(head, tail)]``.

    Parameters
    ----------
    tail:
        Tail column values (any sequence; coerced to numpy).
    head:
        Head column values, or ``None`` for a dense (void) head
        ``hseqbase .. hseqbase + len(tail) - 1``.
    hseqbase:
        First head oid when the head is dense.
    name:
        Optional name, used by the catalog and in plan displays.
    tail_sorted / tail_sorted_desc:
        Declared ordering properties of the tail column.  Trusted by
        the kernel; use :meth:`verify_properties` in tests.
    head_key / tail_key:
        Declared uniqueness of each column.  Dense heads are always
        keys.
    persistent:
        Whether the BAT notionally lives on disk.  Persistent BATs are
        scanned through the buffer manager; transient intermediates
        charge only tuple touches.
    """

    __slots__ = (
        "_head",
        "tail",
        "hseqbase",
        "name",
        "tail_sorted",
        "tail_sorted_desc",
        "head_key",
        "tail_key",
        "persistent",
        "segment_id",
    )

    def __init__(
        self,
        tail,
        head=None,
        hseqbase: int = 0,
        name: str | None = None,
        tail_sorted: bool = False,
        tail_sorted_desc: bool = False,
        head_key: bool | None = None,
        tail_key: bool = False,
        persistent: bool = False,
    ) -> None:
        self.tail = _as_column(tail, "tail")
        if head is None:
            self._head = None
            if hseqbase < 0:
                raise BATShapeError(f"hseqbase must be >= 0, got {hseqbase}")
            self.hseqbase = int(hseqbase)
            self.head_key = True
        else:
            head_arr = _as_column(head, "head")
            if head_arr.dtype.kind != "i":
                raise BATTypeError(
                    f"materialized head column must be integer oids, got {head_arr.dtype}"
                )
            if len(head_arr) != len(self.tail):
                raise BATShapeError(
                    f"head/tail length mismatch: {len(head_arr)} vs {len(self.tail)}"
                )
            self._head = head_arr
            self.hseqbase = 0
            self.head_key = bool(head_key) if head_key is not None else False
        self.name = name
        self.tail_sorted = bool(tail_sorted)
        self.tail_sorted_desc = bool(tail_sorted_desc)
        self.tail_key = bool(tail_key)
        self.persistent = bool(persistent)
        self.segment_id = next(_segment_ids)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def dense(cls, n: int, hseqbase: int = 0, name: str | None = None) -> "BAT":
        """A BAT whose tail is the dense sequence ``0..n-1`` (both
        columns dense): handy as an oid generator."""
        bat = cls(
            np.arange(n, dtype=np.int64),
            hseqbase=hseqbase,
            name=name,
            tail_sorted=True,
            tail_key=True,
        )
        return bat

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, object]], name: str | None = None) -> "BAT":
        """Build a BAT from ``(head, tail)`` pairs (mainly for tests)."""
        if not pairs:
            return cls(np.empty(0, dtype=np.int64), head=np.empty(0, dtype=np.int64), name=name)
        heads = [int(h) for h, _ in pairs]
        tails = [t for _, t in pairs]
        return cls(tails, head=np.asarray(heads, dtype=np.int64), name=name)

    def clone_with(
        self,
        tail=None,
        head="unchanged",
        **props,
    ) -> "BAT":
        """Return a new BAT sharing this one's columns except where
        overridden.  Property flags default to *unset* (the kernel is
        responsible for declaring what it preserves)."""
        new_tail = self.tail if tail is None else tail
        if isinstance(head, str) and head == "unchanged":
            new_head = self._head
            props.setdefault("hseqbase", self.hseqbase)
        else:
            new_head = head
        return BAT(new_tail, head=new_head, name=self.name, **props)

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tail)

    @property
    def count(self) -> int:
        """Number of (head, tail) pairs."""
        return len(self.tail)

    @property
    def is_dense_head(self) -> bool:
        """True when the head is an implicit void sequence."""
        return self._head is None

    def head_array(self) -> np.ndarray:
        """The head column as a materialized numpy array.

        Builds the whole column for a dense head; to read the oids at
        some positions use :meth:`heads_at` instead."""
        if self._head is None:
            return np.arange(self.hseqbase, self.hseqbase + len(self.tail), dtype=np.int64)
        return self._head

    def heads_at(self, positions) -> np.ndarray:
        """Head oids at ``positions``: an integer index array, a boolean
        mask aligned with the BAT, or a slice.

        A dense head is never materialized to answer this: its oids are
        ``positions + hseqbase``.  Integer positions must lie in
        ``0 .. len - 1``; a dense head does not check them (the tail
        gather that accompanies a head gather does).
        """
        if self._head is not None:
            return self._head[positions]
        if isinstance(positions, slice):
            start, stop, step = positions.indices(len(self.tail))
            return np.arange(start, stop, step, dtype=np.int64) + self.hseqbase
        positions = np.asarray(positions)
        if positions.dtype == bool:
            if len(positions) != len(self.tail):
                raise BATShapeError(
                    f"mask length {len(positions)} != BAT length {len(self.tail)}"
                )
            positions = np.flatnonzero(positions)
        return positions.astype(np.int64, copy=False) + self.hseqbase

    def sort_positions(self, keys: np.ndarray) -> np.ndarray:
        """Positions ordered by ``keys`` (aligned with the BAT), ties
        broken by head oid ascending.

        A dense head ascends with position, so for it this is a stable
        argsort and the head is never materialized."""
        if self._head is None:
            return np.argsort(keys, kind="stable")
        return np.lexsort((self._head, keys))

    def same_heads(self, other: "BAT") -> bool:
        """True when both head columns hold the same oids in the same
        order; two dense heads compare by ``hseqbase`` and length."""
        if len(self) != len(other):
            return False
        if self._head is None and other._head is None:
            return self.hseqbase == other.hseqbase or len(self) == 0
        return bool(np.array_equal(self.head_array(), other.head_array()))

    @property
    def tail_dtype_kind(self) -> str:
        """Numpy dtype kind of the tail: 'i', 'f' or 'U'."""
        return self.tail.dtype.kind

    def pairs(self) -> Iterator[tuple[int, object]]:
        """Iterate ``(head, tail)`` pairs as python scalars."""
        heads = self.head_array()
        for i in range(len(self.tail)):
            tail_value = self.tail[i]
            yield int(heads[i]), tail_value.item() if hasattr(tail_value, "item") else tail_value

    def to_list(self) -> list[tuple[int, object]]:
        """Materialize all pairs as a python list (tests, small BATs)."""
        return list(self.pairs())

    def head_positions(self, oids: np.ndarray) -> np.ndarray:
        """Positions of the given head oids.

        Only valid when the head is dense; raises otherwise, because a
        positional lookup on a materialized head needs a join.
        """
        if not self.is_dense_head:
            raise BATShapeError("head_positions requires a dense head")
        return np.asarray(oids, dtype=np.int64) - self.hseqbase

    # -- property maintenance ---------------------------------------------------

    def verify_properties(self) -> bool:
        """Check that the declared sortedness/key flags actually hold.

        Used by tests; returns True when all declared properties are
        consistent with the data.
        """
        tail = self.tail
        if self.tail_sorted and len(tail) > 1 and not np.all(tail[:-1] <= tail[1:]):
            return False
        if self.tail_sorted_desc and len(tail) > 1 and not np.all(tail[:-1] >= tail[1:]):
            return False
        if self.tail_key and len(tail) > 1 and len(np.unique(tail)) != len(tail):
            return False
        if self.head_key and self._head is not None:
            if len(self._head) > 1 and len(np.unique(self._head)) != len(self._head):
                return False
        return True

    def refresh_sortedness(self) -> "BAT":
        """Inspect the tail and set the sortedness flags accordingly
        (in place); returns self for chaining."""
        tail = self.tail
        if len(tail) <= 1:
            self.tail_sorted = True
            self.tail_sorted_desc = True
        else:
            self.tail_sorted = bool(np.all(tail[:-1] <= tail[1:]))
            self.tail_sorted_desc = bool(np.all(tail[:-1] >= tail[1:]))
        return self

    # -- dunder niceties ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"bat#{self.segment_id}"
        head_desc = f"void({self.hseqbase})" if self.is_dense_head else "oid"
        flags = "".join(
            flag
            for flag, on in (
                ("S", self.tail_sorted),
                ("D", self.tail_sorted_desc),
                ("K", self.tail_key),
                ("P", self.persistent),
            )
            if on
        )
        return (
            f"BAT<{label}: {head_desc} -> {self.tail.dtype}, "
            f"n={len(self)}{', ' + flags if flags else ''}>"
        )

    def same_content(self, other: "BAT") -> bool:
        """Structural equality of the (head, tail) multisets *in order*.

        Two BATs are considered the same content when their heads and
        tails compare equal elementwise.  Ordering matters: compare
        sorted pairs (``sorted(bat.to_list())``) for a set-like
        comparison.
        """
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        if self.tail.dtype.kind != other.tail.dtype.kind:
            return False
        return self.same_heads(other) and bool(np.array_equal(self.tail, other.tail))
