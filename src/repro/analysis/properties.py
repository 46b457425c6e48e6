"""Static plan properties: what the verifier can prove about a plan.

For every sub-expression the inference computes a
:class:`PlanProperties` record:

* ``stype`` — the static structure type (``None`` when typing fails;
  the type-soundness analyzer reports that separately);
* ``ordered_by`` — ``(key, descending)`` when the output is *provably*
  ordered by a key (produced by ``sort``/``topn``, preserved by
  order-preserving operators).  ``key`` is a field name or ``None``
  for atomic elements.  This is the monotone-score evidence the safe
  top-N classification needs: a prefix cut is safe exactly when its
  input carries such an ordering;
* ``distinct`` — the output is provably duplicate-free;
* ``max_rows`` — a static upper bound on output cardinality
  (``math.inf`` when unknown), used by the cardinality-monotonicity
  checks.

The inference is *conservative*: unknown operators keep every property
unknown; a property is only claimed when the operator semantics
guarantee it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..algebra.expr import Apply, Expr, Literal, ScalarLiteral, Var
from ..algebra.types import ListType, SetType, StructureType
from ..algebra.values import CollectionValue
from .diagnostics import ExprPath

#: operators whose result depends on input element order
ORDER_SENSITIVE_OPS = frozenset({"slice", "getat", "concat", "reverse"})

#: operators that cannot increase cardinality
NON_EXPANDING_OPS = frozenset({
    "select", "sort", "topn", "slice", "project", "projecttobag",
    "projecttoset", "reverse", "intersect", "difference",
})


@dataclass(frozen=True)
class PlanProperties:
    """What is statically provable about one sub-expression."""

    stype: StructureType | None
    ordered_by: tuple | None = None  # (key or None, descending: bool)
    distinct: bool = False
    max_rows: float = math.inf

    @property
    def well_typed(self) -> bool:
        return self.stype is not None


def _split_scalars(expr: Apply) -> tuple[list[Expr], list]:
    """Best-effort split into (non-scalar children, literal scalars)
    without consulting the registry (works on ill-typed trees too)."""
    children, scalars = [], []
    for arg in expr.args:
        if isinstance(arg, ScalarLiteral):
            scalars.append(arg.value)
        else:
            children.append(arg)
    return children, scalars


def _key_and_rest(scalars: list) -> tuple:
    """(field-name key or None, remaining scalars) by the registry's
    scalar-parameter convention (leading string = field name)."""
    if scalars and isinstance(scalars[0], str):
        return scalars[0], scalars[1:]
    return None, scalars


def infer_properties(
    expr: Expr,
    env_types=None,
    registry=None,
) -> dict[ExprPath, PlanProperties]:
    """Annotate every node of ``expr`` with its static properties,
    keyed by expression path."""
    annotations: dict[ExprPath, PlanProperties] = {}
    _infer(expr, (), env_types or {}, registry, annotations)
    return annotations


def properties_of(expr: Expr, env_types=None, registry=None) -> PlanProperties:
    """The static properties of the expression root."""
    return infer_properties(expr, env_types, registry)[()]


def _static_type(expr: Expr, env_types, registry) -> StructureType | None:
    try:
        return expr.infer_type(env_types, registry)
    except Exception:
        return None


def _infer(expr, path, env_types, registry, annotations) -> PlanProperties:
    children = expr.children()
    child_props = [
        _infer(child, path + (index,), env_types, registry, annotations)
        for index, child in enumerate(children)
    ]
    props = _node_properties(expr, child_props, env_types, registry)
    annotations[path] = props
    return props


def _node_properties(expr, child_props, env_types, registry) -> PlanProperties:
    stype = _static_type(expr, env_types, registry)

    if isinstance(expr, Var):
        distinct = stype is not None and not stype.allows_duplicates
        return PlanProperties(stype=stype, distinct=distinct)

    if isinstance(expr, Literal):
        value = expr.value
        rows = float(value.count) if isinstance(value, CollectionValue) else 1.0
        ordered_by = None
        if (
            isinstance(value, CollectionValue)
            and isinstance(value.stype, ListType)
            and value.is_atomic_elements
        ):
            # literal lists remember sortedness on their BAT
            if value.bat.tail_sorted_desc:
                ordered_by = (None, True)
            elif value.bat.tail_sorted:
                ordered_by = (None, False)
        distinct = stype is not None and not stype.allows_duplicates
        return PlanProperties(stype=stype, ordered_by=ordered_by,
                              distinct=distinct, max_rows=rows)

    if isinstance(expr, ScalarLiteral):
        return PlanProperties(stype=stype, max_rows=1.0)

    if not isinstance(expr, Apply):
        return PlanProperties(stype=stype)

    # scalar children (bounds, counts) do not carry collection
    # properties; the receiver is the first non-scalar child
    value_children = [
        props for child, props in zip(expr.children(), child_props)
        if not isinstance(child, ScalarLiteral)
    ]
    receiver = value_children[0] if value_children else PlanProperties(stype=None)
    _, scalars = _split_scalars(expr)
    op = expr.op

    if op == "select":
        _, bounds = _key_and_rest(scalars)
        max_rows = receiver.max_rows
        if len(bounds) == 2 and None not in bounds:
            try:
                if bounds[0] > bounds[1]:
                    max_rows = 0.0
            except TypeError:
                pass
        return PlanProperties(stype=stype, ordered_by=receiver.ordered_by,
                              distinct=receiver.distinct, max_rows=max_rows)

    if op == "sort":
        key, rest = _key_and_rest(scalars)
        descending = bool(rest[0]) if rest else False
        return PlanProperties(stype=stype, ordered_by=(key, descending),
                              distinct=receiver.distinct, max_rows=receiver.max_rows)

    if op == "topn":
        key, rest = _key_and_rest(scalars)
        descending = bool(rest[1]) if len(rest) > 1 else True
        max_rows = receiver.max_rows
        if rest and isinstance(rest[0], (int, float)):
            max_rows = min(max_rows, max(float(rest[0]), 0.0))
        return PlanProperties(stype=stype, ordered_by=(key, descending),
                              distinct=receiver.distinct, max_rows=max_rows)

    if op == "slice":
        max_rows = receiver.max_rows
        if len(scalars) == 2 and isinstance(scalars[1], (int, float)):
            max_rows = min(max_rows, max(float(scalars[1]), 0.0))
        return PlanProperties(stype=stype, ordered_by=receiver.ordered_by,
                              distinct=receiver.distinct, max_rows=max_rows)

    if op == "reverse":
        ordered_by = None
        if receiver.ordered_by is not None:
            key, descending = receiver.ordered_by
            ordered_by = (key, not descending)
        return PlanProperties(stype=stype, ordered_by=ordered_by,
                              distinct=receiver.distinct, max_rows=receiver.max_rows)

    if op == "projecttobag":
        # content preserving, but "the ordering ... formally does not
        # exist for a bag": the order evidence is forgotten
        return PlanProperties(stype=stype, ordered_by=None,
                              distinct=receiver.distinct, max_rows=receiver.max_rows)

    if op == "projecttoset":
        return PlanProperties(stype=stype, ordered_by=None, distinct=True,
                              max_rows=receiver.max_rows)

    if op == "project":
        key, _ = _key_and_rest(scalars)
        ordered_by = None
        if receiver.ordered_by is not None and receiver.ordered_by[0] == key:
            ordered_by = (None, receiver.ordered_by[1])
        return PlanProperties(stype=stype, ordered_by=ordered_by,
                              max_rows=receiver.max_rows)

    if op in ("concat", "union"):
        total = sum(p.max_rows for p in value_children) if value_children else math.inf
        distinct = (
            isinstance(stype, SetType)
            if stype is not None
            else all(p.distinct for p in value_children)
        )
        return PlanProperties(stype=stype, distinct=distinct, max_rows=total)

    if op in ("intersect", "difference"):
        max_rows = value_children[0].max_rows if value_children else math.inf
        return PlanProperties(stype=stype, distinct=True, max_rows=max_rows)

    if op in ("count", "sum", "avg", "max", "min", "contains", "getat", "getfield"):
        return PlanProperties(stype=stype, max_rows=1.0)

    # unknown operator: claim nothing beyond the type
    return PlanProperties(stype=stype)
