"""Physical operators: the flattened form of algebra expressions.

Flattening (:mod:`repro.algebra.flatten`) turns a logical expression
tree into a tree of :class:`PhysicalOp` nodes, each of which executes
as a handful of BAT-kernel calls.  Physical operators

* carry no optimizer logic — plan choice happens before flattening
  (logical/inter-object layers) and after it (cost-based selection in
  :mod:`repro.optimizer.cost`, which costs these nodes);
* are *order-aware at runtime*: a range select consults the BAT's
  sortedness property and uses binary search when it can, which is how
  the LIST extension's knowledge of ordering turns into fewer page
  reads (paper Example 1);
* produce :class:`~repro.algebra.values.StructureValue` payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import EvaluationError
from ..obs import tracer
from ..storage import kernel
from ..storage.bat import BAT
from .types import SetType, StructureType, INT, FLOAT
from .values import AtomValue, CollectionValue, ELEM, StructureValue, TupleValue


@dataclass
class PhysicalOp:
    """Base class for physical operator nodes."""

    children: tuple["PhysicalOp", ...] = field(default=(), kw_only=True)

    def execute(self, env: Mapping[str, StructureValue]) -> StructureValue:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree."""
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    # -- helpers shared by subclasses ------------------------------------

    @staticmethod
    def _collection(value: StructureValue, op: str) -> CollectionValue:
        if not isinstance(value, CollectionValue):
            raise EvaluationError(f"{op} expected a collection, got {value!r}")
        return value

    @staticmethod
    def _pick_column(value: CollectionValue, column: str | None, op: str) -> tuple[str, BAT]:
        if column is None:
            if not value.is_atomic_elements:
                raise EvaluationError(
                    f"{op} on a tuple-element collection needs a field name"
                )
            return ELEM, value.bat
        return column, value.column(column)


@dataclass
class SourceVar(PhysicalOp):
    """Leaf: a variable bound in the evaluation environment."""

    name: str = ""

    def execute(self, env):
        try:
            return env[self.name]
        except (KeyError, TypeError):
            raise EvaluationError(f"unbound variable {self.name!r} at execution time") from None

    def label(self):
        return f"var({self.name})"


@dataclass
class SourceLiteral(PhysicalOp):
    """Leaf: an inline structure value."""

    value: StructureValue = None

    def execute(self, env):
        return self.value

    def label(self):
        n = self.value.count if isinstance(self.value, CollectionValue) else 1
        return f"literal({self.value.stype}, n={n})"


def _apply_positions(value: CollectionValue, positions: np.ndarray,
                     stype: StructureType) -> CollectionValue:
    """Build a new collection taking ``positions`` from every column."""
    columns = {}
    for name, bat in value.columns.items():
        kernel.scan_cost(bat, len(positions))
        columns[name] = BAT(bat.tail[positions]).refresh_sortedness()
    from ..storage import stats as _stats

    _stats.charge_tuples_written(len(positions) * len(value.columns))
    return CollectionValue(stype, columns)


@dataclass
class RangeSelect(PhysicalOp):
    """Content-based range selection on one column.

    On an atomic-element collection whose BAT is tail-sorted this uses
    the kernel's binary-search path; otherwise it scans.
    """

    column: str | None = None
    lo: object = None
    hi: object = None
    include_lo: bool = True
    include_hi: bool = True
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "select")
        name, bat = self._pick_column(value, self.column, "select")
        if value.is_atomic_elements:
            out = kernel.select_range(bat, self.lo, self.hi, self.include_lo, self.include_hi)
            if tracer.enabled():
                # observed selectivity, printed by `repro profile
                # --events`; the cost model assumes select_selectivity
                tracer.event("select.range", rows_in=len(bat), rows_out=len(out))
            return CollectionValue(self.result_type, {ELEM: BAT(
                out.tail,
                tail_sorted=out.tail_sorted,
                tail_sorted_desc=out.tail_sorted_desc,
                tail_key=out.tail_key,
            )})
        selected = kernel.select_range(bat, self.lo, self.hi, self.include_lo, self.include_hi)
        positions = selected.head_array()
        if tracer.enabled():
            tracer.event("select.range", rows_in=len(bat), rows_out=len(positions))
        return _apply_positions(value, positions, self.result_type)

    def label(self):
        bounds = f"{self.lo!r}..{self.hi!r}"
        col = f" on {self.column}" if self.column else ""
        return f"range_select[{bounds}]{col}"


@dataclass
class Convert(PhysicalOp):
    """Structure conversion (``projecttobag`` / ``projecttoset`` ...).

    LIST->BAG is physically free (the order property is dropped
    logically); conversions to SET deduplicate.
    """

    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "convert")
        if isinstance(self.result_type, SetType):
            if not value.is_atomic_elements:
                raise EvaluationError("SET conversion requires atomic elements")
            deduped = kernel.unique_tail(value.bat)
            if tracer.enabled():
                # observed dedup ratio, printed by `repro profile
                # --events`; the cost model assumes dedup_ratio
                tracer.event("convert.dedup", rows_in=value.count,
                             rows_out=len(deduped))
            return CollectionValue(
                self.result_type,
                {ELEM: BAT(deduped.tail, tail_sorted=True, tail_key=True)},
            )
        # conversion to an unordered structure *forgets* the ordering
        # knowledge: "the ordering ... formally does not exist for a
        # bag" (paper, Example 1).  The arrays are shared (physically
        # free) but the sortedness properties are dropped, so operators
        # on the BAG cannot use order-aware fast paths — which is
        # exactly why pushing work below the conversion wins.
        columns = {
            name: BAT(bat.tail) for name, bat in value.columns.items()
        }
        return CollectionValue(self.result_type, columns)

    def label(self):
        return f"convert->{self.result_type.extension_name}"


@dataclass
class Sort(PhysicalOp):
    """Full sort producing a LIST."""

    column: str | None = None
    descending: bool = False
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "sort")
        name, bat = self._pick_column(value, self.column, "sort")
        if value.is_atomic_elements:
            already = bat.tail_sorted_desc if self.descending else bat.tail_sorted
            if already:
                return CollectionValue(self.result_type, {ELEM: bat})
            out = kernel.sort_tail(bat, descending=self.descending)
            return CollectionValue(self.result_type, {ELEM: BAT(
                out.tail, tail_sorted=out.tail_sorted, tail_sorted_desc=out.tail_sorted_desc,
                tail_key=out.tail_key,
            )})
        out = kernel.sort_tail(bat, descending=self.descending)
        return _apply_positions(value, out.head_array(), self.result_type)

    def label(self):
        direction = "desc" if self.descending else "asc"
        col = f" by {self.column}" if self.column else ""
        return f"sort[{direction}]{col}"


@dataclass
class TopN(PhysicalOp):
    """The paper's special top-N operator: best N by one column."""

    column: str | None = None
    n: int = 0
    descending: bool = True
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "topn")
        name, bat = self._pick_column(value, self.column, "topn")
        presorted = bat.tail_sorted_desc if self.descending else bat.tail_sorted
        if presorted:
            # order-aware fast path: the prefix *is* the answer
            out = kernel.slice_pairs(bat, 0, self.n)
        else:
            out = kernel.topn_tail(bat, self.n, descending=self.descending)
        if value.is_atomic_elements:
            return CollectionValue(self.result_type, {ELEM: BAT(
                out.tail, tail_sorted=out.tail_sorted, tail_sorted_desc=out.tail_sorted_desc,
            )})
        return _apply_positions(value, out.head_array(), self.result_type)

    def label(self):
        col = f" by {self.column}" if self.column else ""
        direction = "desc" if self.descending else "asc"
        return f"topn[{self.n} {direction}]{col}"


@dataclass
class Slice(PhysicalOp):
    """Positional slice (order-sensitive; LIST only)."""

    offset: int = 0
    count: int = 0
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "slice")
        if value.is_atomic_elements:
            out = kernel.slice_pairs(value.bat, self.offset, self.count)
            return CollectionValue(self.result_type, {ELEM: BAT(
                out.tail, tail_sorted=out.tail_sorted, tail_sorted_desc=out.tail_sorted_desc,
            )})
        positions = np.arange(self.offset, min(self.offset + self.count, value.count))
        return _apply_positions(value, positions, self.result_type)

    def label(self):
        return f"slice[{self.offset}:{self.offset + self.count}]"


@dataclass
class Aggregate(PhysicalOp):
    """Collection-to-atom aggregate: sum/count/max/min."""

    column: str | None = None
    which: str = "count"
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), self.which)
        if self.which == "count":
            return AtomValue(value.count, INT)
        name, bat = self._pick_column(value, self.column, self.which)
        if self.which == "sum":
            return AtomValue(kernel.sum_tail(bat), FLOAT)
        if self.which == "avg":
            if value.count == 0:
                raise EvaluationError("avg of an empty collection is undefined")
            return AtomValue(kernel.sum_tail(bat) / value.count, FLOAT)
        if self.which == "max":
            result = kernel.max_tail(bat)
        elif self.which == "min":
            result = kernel.min_tail(bat)
        else:
            raise EvaluationError(f"unknown aggregate {self.which!r}")
        if result is None:
            raise EvaluationError(f"{self.which} of an empty collection is undefined")
        return AtomValue(result)

    def label(self):
        col = f"({self.column})" if self.column else ""
        return f"{self.which}{col}"


@dataclass
class Reverse(PhysicalOp):
    """Reverse LIST element order (flips sortedness properties)."""

    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "reverse")
        columns = {}
        for name, bat in value.columns.items():
            kernel.scan_cost(bat)
            columns[name] = BAT(
                bat.tail[::-1].copy(),
                tail_sorted=bat.tail_sorted_desc,
                tail_sorted_desc=bat.tail_sorted,
                tail_key=bat.tail_key,
            )
        from ..storage import stats as _stats

        _stats.charge_tuples_written(value.count * len(value.columns))
        return CollectionValue(self.result_type, columns)

    def label(self):
        return "reverse"


@dataclass
class Contains(PhysicalOp):
    """Membership test: 1 if the value occurs, else 0.

    Uses binary search on sorted columns, scan otherwise."""

    value: object = None

    def execute(self, env):
        collection = self._collection(self.children[0].execute(env), "contains")
        bat = collection.bat
        hits = kernel.select_eq(bat, self.value)
        return AtomValue(1 if len(hits) else 0, INT)

    def label(self):
        return f"contains[{self.value!r}]"


@dataclass
class GetAt(PhysicalOp):
    """Positional element access on a LIST (atoms -> atom value)."""

    position: int = 0

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "getat")
        if not 0 <= self.position < value.count:
            raise EvaluationError(
                f"getat position {self.position} outside list of {value.count}"
            )
        if value.is_atomic_elements:
            from ..storage import stats as _stats

            _stats.charge_tuples_read(1)
            element = value.bat.tail[self.position]
            return AtomValue(element.item() if hasattr(element, "item") else element)
        raise EvaluationError("getat on tuple elements is not supported; project first")

    def label(self):
        return f"getat[{self.position}]"


@dataclass
class ProjectColumn(PhysicalOp):
    """Extract one field column of a tuple-element collection."""

    column: str = ""
    result_type: StructureType = None

    def execute(self, env):
        value = self._collection(self.children[0].execute(env), "project")
        bat = value.column(self.column)
        kernel.scan_cost(bat)
        return CollectionValue(
            self.result_type,
            {ELEM: BAT(bat.tail.copy()).refresh_sortedness()},
        )

    def label(self):
        return f"project[{self.column}]"


@dataclass
class Concat(PhysicalOp):
    """LIST concatenation / BAG additive union."""

    result_type: StructureType = None

    def execute(self, env):
        first = self._collection(self.children[0].execute(env), "concat")
        second = self._collection(self.children[1].execute(env), "concat")
        if first.is_atomic_elements:
            out = kernel.append(first.bat, second.bat)
            return CollectionValue(self.result_type, {ELEM: BAT(out.tail).refresh_sortedness()})
        columns = {}
        for name in first.columns:
            out = kernel.append(first.columns[name], second.columns[name])
            columns[name] = BAT(out.tail)
        return CollectionValue(self.result_type, columns)

    def label(self):
        return "concat"


@dataclass
class SetOp(PhysicalOp):
    """SET union / intersection / difference (atomic elements)."""

    which: str = "union"
    result_type: StructureType = None

    def execute(self, env):
        first = self._collection(self.children[0].execute(env), self.which)
        second = self._collection(self.children[1].execute(env), self.which)
        a, b = first.bat, second.bat
        kernel.scan_cost(a)
        kernel.scan_cost(b)
        from ..storage import stats as _stats

        _stats.charge_comparisons(len(a) + len(b))
        if self.which == "union":
            out = np.union1d(a.tail, b.tail)
        elif self.which == "intersect":
            out = np.intersect1d(a.tail, b.tail)
        elif self.which == "difference":
            out = np.setdiff1d(a.tail, b.tail)
        else:
            raise EvaluationError(f"unknown set operation {self.which!r}")
        _stats.charge_tuples_written(len(out))
        return CollectionValue(
            self.result_type, {ELEM: BAT(out, tail_sorted=True, tail_key=True)}
        )

    def label(self):
        return self.which


@dataclass
class GetField(PhysicalOp):
    """Extract a named field of a TUPLE value."""

    name: str = ""

    def execute(self, env):
        value = self.children[0].execute(env)
        if not isinstance(value, TupleValue):
            raise EvaluationError(f"getfield expected a tuple value, got {value!r}")
        return value.field(self.name)

    def label(self):
        return f"getfield[{self.name}]"


class PhysicalPlan:
    """A rooted physical operator tree plus its static result type."""

    def __init__(self, root: PhysicalOp, result_type: StructureType) -> None:
        self.root = root
        self.result_type = result_type

    def execute(self, env: Mapping[str, StructureValue] | None = None) -> StructureValue:
        return self.root.execute(env or {})

    def explain(self) -> str:
        return self.root.explain()

    def operators(self) -> list[PhysicalOp]:
        return list(self.root.walk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhysicalPlan<{self.result_type}>\n{self.explain()}"
