"""The built-in extensions: LIST, BAG, SET and TUPLE.

Each extension registers its operators with typing rules, flattening
(build) rules, and the optimizer metadata the inter-object layer needs.
The operator set includes everything the paper's running example uses
— ``select`` (range selection with lower and upper bound, exactly as in
Example 1) and ``projecttobag`` — plus the top-N machinery of Step 1
("special top N operators, which can be seen as special select
operators") and the conversions/aggregates that realistic retrieval
plans need.

Scalar-parameter conventions
----------------------------
Operators on tuple-element collections take the field name as their
first scalar parameter::

    select(xs, 2, 4)                 # atoms: bounds only
    select(docs, "score", 0.5, 1.0)  # tuples: field, then bounds
    topn(docs, "score", 10)
"""

from __future__ import annotations

from ..errors import AlgebraTypeError
from . import physical
from .extensions import OperatorDef, Registry
from .types import (
    BagType,
    FLOAT,
    INT,
    ListType,
    STR,
    SetType,
    StructureType,
    TupleType,
    require_collection,
    require_numeric_collection,
    same_type,
)

_STR_SENTINEL = STR


def _field_and_rest(arg_type: StructureType, scalars: list, op: str):
    """Split scalars into (field name or None, remaining scalars) and
    validate the field against the element type."""
    element = require_collection(arg_type, op)
    if isinstance(element, TupleType):
        if not scalars or not isinstance(scalars[0], str):
            raise AlgebraTypeError(f"{op} on tuple elements needs a field name parameter")
        field = scalars[0]
        element.field(field)  # raises if unknown
        return field, scalars[1:]
    # atomic elements: every scalar is an ordinary parameter (string
    # scalars are bounds for string-element collections, not field names)
    return None, scalars


def _select_result_type(arg_types, scalars):
    stype = arg_types[0]
    _field_and_rest(stype, scalars, "select")
    return stype


def _select_build(plans, scalars, arg_types):
    field, bounds = _field_and_rest(arg_types[0], scalars, "select")
    if len(bounds) != 2:
        raise AlgebraTypeError(f"select takes (lo, hi) bounds, got {len(bounds)} scalars")
    element = arg_types[0].element()
    bound_element = element.field(field) if field is not None else element
    for bound in bounds:
        if bound is None:
            continue
        is_str_bound = isinstance(bound, str)
        if is_str_bound != (bound_element == _STR_SENTINEL):
            raise AlgebraTypeError(
                f"select bound {bound!r} does not match element type {bound_element}"
            )
    return physical.RangeSelect(
        column=field, lo=bounds[0], hi=bounds[1],
        result_type=arg_types[0], children=tuple(plans),
    )


def _convert_result(target_factory):
    def result_type(arg_types, scalars):
        element = require_collection(arg_types[0], "convert")
        return target_factory(element)

    return result_type


def _convert_build(target_factory):
    def build(plans, scalars, arg_types):
        element = require_collection(arg_types[0], "convert")
        return physical.Convert(result_type=target_factory(element), children=tuple(plans))

    return build


def _sort_result_type(arg_types, scalars):
    element = require_collection(arg_types[0], "sort")
    field, rest = _field_and_rest(arg_types[0], scalars, "sort")
    return ListType(element)


def _sort_build(plans, scalars, arg_types):
    field, rest = _field_and_rest(arg_types[0], scalars, "sort")
    descending = bool(rest[0]) if rest else False
    element = require_collection(arg_types[0], "sort")
    return physical.Sort(
        column=field, descending=descending,
        result_type=ListType(element), children=tuple(plans),
    )


def _topn_result_type(arg_types, scalars):
    element = require_collection(arg_types[0], "topn")
    field, rest = _field_and_rest(arg_types[0], scalars, "topn")
    if not rest:
        raise AlgebraTypeError("topn needs an N parameter")
    return ListType(element)


def _topn_build(plans, scalars, arg_types):
    field, rest = _field_and_rest(arg_types[0], scalars, "topn")
    n = int(rest[0])
    descending = bool(rest[1]) if len(rest) > 1 else True
    element = require_collection(arg_types[0], "topn")
    return physical.TopN(
        column=field, n=n, descending=descending,
        result_type=ListType(element), children=tuple(plans),
    )


def _slice_result_type(arg_types, scalars):
    if not isinstance(arg_types[0], ListType):
        raise AlgebraTypeError(f"slice is only defined on LIST (order!), got {arg_types[0]}")
    return arg_types[0]


def _slice_build(plans, scalars, arg_types):
    if len(scalars) != 2:
        raise AlgebraTypeError("slice takes (offset, count)")
    return physical.Slice(
        offset=int(scalars[0]), count=int(scalars[1]),
        result_type=arg_types[0], children=tuple(plans),
    )


def _aggregate_defs(which: str):
    def result_type(arg_types, scalars):
        if which == "count":
            return INT
        field, _ = _field_and_rest(arg_types[0], scalars, which)
        if field is None:
            require_numeric_collection(arg_types[0], which)
            element = arg_types[0].element()
        else:
            element = arg_types[0].element().field(field)
            if not (element.is_atomic and element.numeric):
                raise AlgebraTypeError(f"{which} needs a numeric field, got {element}")
        return FLOAT if which in ("sum", "avg") else element

    def build(plans, scalars, arg_types):
        field = None
        if which != "count":
            field, _ = _field_and_rest(arg_types[0], scalars, which)
        return physical.Aggregate(
            column=field, which=which, result_type=result_type(arg_types, scalars),
            children=tuple(plans),
        )

    return result_type, build


def _project_result_type(arg_types, scalars):
    element = require_collection(arg_types[0], "project")
    if not isinstance(element, TupleType):
        raise AlgebraTypeError(f"project needs tuple elements, got {element}")
    if not scalars or not isinstance(scalars[0], str):
        raise AlgebraTypeError("project needs a field-name parameter")
    ftype = element.field(scalars[0])
    return type(arg_types[0])(ftype)


def _project_build(plans, scalars, arg_types):
    return physical.ProjectColumn(
        column=scalars[0], result_type=_project_result_type(arg_types, scalars),
        children=tuple(plans),
    )


def _concat_result_type(arg_types, scalars):
    return same_type(arg_types[0], arg_types[1], "concat")


def _concat_build(plans, scalars, arg_types):
    return physical.Concat(result_type=arg_types[0], children=tuple(plans))


def _setop_defs(which: str):
    def result_type(arg_types, scalars):
        return same_type(arg_types[0], arg_types[1], which)

    def build(plans, scalars, arg_types):
        return physical.SetOp(which=which, result_type=arg_types[0], children=tuple(plans))

    return result_type, build


def _getfield_result_type(arg_types, scalars):
    if not isinstance(arg_types[0], TupleType):
        raise AlgebraTypeError(f"getfield needs a TUPLE, got {arg_types[0]}")
    if not scalars or not isinstance(scalars[0], str):
        raise AlgebraTypeError("getfield needs a field-name parameter")
    return arg_types[0].field(scalars[0])


def _getfield_build(plans, scalars, arg_types):
    return physical.GetField(name=scalars[0], children=tuple(plans))


def install(registry: Registry) -> Registry:
    """Register the built-in extensions into ``registry``."""

    def op(ext, name, result_type, build, **properties):
        registry.register(ext, OperatorDef(
            name=name, result_type=result_type, build=build, properties=properties,
        ))

    filter_props = dict(kind="filter", content_based=True)
    shared_aggregates = ("count", "sum", "avg", "max", "min")

    for ext in ("LIST", "BAG", "SET"):
        op(ext, "select", _select_result_type, _select_build, **filter_props)
        op(ext, "sort", _sort_result_type, _sort_build, kind="reorder")
        op(ext, "topn", _topn_result_type, _topn_build, kind="topn")
        op(ext, "project", _project_result_type, _project_build, kind="generic")
        for which in shared_aggregates:
            result_type, build = _aggregate_defs(which)
            op(ext, which, result_type, build, kind="aggregate")

    # conversions (the inter-object layer keys on this metadata):
    # * content_preserving: the element multiset is unchanged;
    # * dedups: duplicates are eliminated (max/min still commute);
    # * filter_commutes: content-based filters commute with the
    #   conversion (true for all three — select sees elements only)
    op("LIST", "projecttobag", _convert_result(BagType), _convert_build(BagType),
       kind="conversion", target_extension="BAG", content_preserving=True,
       drops_order=True, filter_commutes=True)
    op("LIST", "projecttoset", _convert_result(SetType), _convert_build(SetType),
       kind="conversion", target_extension="SET", content_preserving=False,
       dedups=True, drops_order=True, filter_commutes=True)
    op("BAG", "projecttoset", _convert_result(SetType), _convert_build(SetType),
       kind="conversion", target_extension="SET", content_preserving=False,
       dedups=True, drops_order=True, filter_commutes=True)

    # membership (content-based: commutes with any conversion)
    def contains_result(arg_types, scalars):
        element = require_collection(arg_types[0], "contains")
        if not element.is_atomic:
            raise AlgebraTypeError("contains needs atomic elements")
        if len(scalars) != 1:
            raise AlgebraTypeError("contains takes exactly one value parameter")
        return INT

    def contains_build(plans, scalars, arg_types):
        contains_result(arg_types, scalars)
        return physical.Contains(value=scalars[0], children=tuple(plans))

    for ext in ("LIST", "BAG", "SET"):
        op(ext, "contains", contains_result, contains_build,
           kind="aggregate", content_based=True)

    # order-sensitive operators
    op("LIST", "slice", _slice_result_type, _slice_build, kind="generic", order_sensitive=True)
    op("LIST", "concat", _concat_result_type, _concat_build, kind="generic", order_sensitive=True)

    def reverse_result(arg_types, scalars):
        if not isinstance(arg_types[0], ListType):
            raise AlgebraTypeError("reverse is only defined on LIST")
        return arg_types[0]

    def reverse_build(plans, scalars, arg_types):
        return physical.Reverse(result_type=arg_types[0], children=tuple(plans))

    op("LIST", "reverse", reverse_result, reverse_build,
       kind="generic", order_sensitive=True)

    def getat_result(arg_types, scalars):
        if not isinstance(arg_types[0], ListType):
            raise AlgebraTypeError("getat is only defined on LIST")
        element = arg_types[0].element()
        if not element.is_atomic:
            raise AlgebraTypeError("getat needs atomic elements; project first")
        if len(scalars) != 1 or isinstance(scalars[0], str):
            raise AlgebraTypeError("getat takes one integer position")
        return element

    def getat_build(plans, scalars, arg_types):
        getat_result(arg_types, scalars)
        return physical.GetAt(position=int(scalars[0]), children=tuple(plans))

    op("LIST", "getat", getat_result, getat_build,
       kind="generic", order_sensitive=True)

    # bag/set binary operators
    op("BAG", "union", _concat_result_type, _concat_build, kind="generic")
    for which in ("union", "intersect", "difference"):
        result_type, build = _setop_defs(which)
        op("SET", which, result_type, build, kind="generic")

    # tuples
    op("TUPLE", "getfield", _getfield_result_type, _getfield_build, kind="generic")

    return registry
