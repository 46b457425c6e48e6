"""The analyzer suite: static checks over logical plans and rewrites.

Each :class:`Analyzer` walks one expression tree under an
:class:`AnalysisContext` and yields :class:`Diagnostic` records.  The
suite covers the verifier's five dimensions:

* type soundness (:class:`TypeSoundnessAnalyzer`),
* ordering discipline (:class:`OrderingAnalyzer`),
* safe vs unsafe top-N / ``stop_after`` classification
  (:class:`CutoffSafetyAnalyzer`, :func:`classify_cutoffs`),
* cardinality bounds (:class:`CardinalityAnalyzer`),
* fragment coverage (:class:`FragmentCoverageAnalyzer`),
* score-bound certification (:class:`BoundFlowAnalyzer`, backed by the
  interval abstract interpreter in :mod:`repro.analysis.bounds`).

:func:`check_rewrite_step` applies the cross-rewrite checks (ordering /
duplicate-semantics preservation, cardinality monotonicity, rule safety
labels) to one ``before => after`` rule application — the pipeline's
``verify=True`` mode runs it over every trace entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..algebra.expr import Apply, Expr, ScalarLiteral, Var
from ..algebra.extensions import Registry, default_registry
from ..algebra.types import ListType, StructureType
from ..errors import AlgebraTypeError, UnknownExtensionError, UnknownOperatorError
from .diagnostics import Diagnostic, ExprPath, make_diagnostic
from .properties import (
    ORDER_SENSITIVE_OPS,
    PlanProperties,
    infer_properties,
)


@dataclass(frozen=True)
class FragmentDeclaration:
    """Declares an environment variable as one fragment of a parent
    collection split into ``total`` fragments."""

    parent: str
    index: int
    total: int


@dataclass
class AnalysisContext:
    """Static context shared by all analyzers."""

    env_types: Mapping[str, StructureType] = field(default_factory=dict)
    registry: Registry = field(default_factory=default_registry)
    #: optional fragment metadata: var name -> FragmentDeclaration
    fragments: Mapping[str, FragmentDeclaration] = field(default_factory=dict)
    #: declared score intervals per environment variable (var name ->
    #: :class:`~repro.intervals.ScoreInterval`), the bound analyzer's
    #: source facts
    score_bounds: Mapping[str, object] = field(default_factory=dict)
    #: the aggregate the plan's threshold engine combines with (an
    #: :class:`~repro.topn.aggregates.AggregateFunction` or its name)
    aggregate: object | None = None
    #: which threshold engine the plan runs under ("TA", "NRA", "CA",
    #: "FA", "coordinator"...; None = no threshold administration)
    threshold_engine: str | None = None
    #: pruning decisions to certify (MOA902):
    #: :class:`~repro.analysis.bounds.PruningDeclaration` records
    pruning: tuple = ()

    def properties(self, expr: Expr) -> dict[ExprPath, PlanProperties]:
        return infer_properties(expr, self.env_types, self.registry)

    def order_sensitive_ops(self) -> frozenset:
        """Operator names whose results depend on input order: the
        built-in set plus anything the registry declares."""
        declared = {
            opdef.name
            for opdef in self.registry.all_operators()
            if opdef.properties.get("order_sensitive")
        }
        return ORDER_SENSITIVE_OPS | frozenset(declared)


class Analyzer:
    """Base class: one static check over an expression tree."""

    #: short analyzer name for reports
    name = "abstract"

    def analyze(self, expr: Expr, context: AnalysisContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<analyzer {self.name}>"


def _walk_with_paths(expr: Expr, path: ExprPath = ()) -> Iterator[tuple[ExprPath, Expr]]:
    yield path, expr
    for index, child in enumerate(expr.children()):
        yield from _walk_with_paths(child, path + (index,))


def _first_value_child(expr: Apply) -> tuple[int, Expr] | None:
    """Index and node of the first non-scalar-literal argument."""
    for index, child in enumerate(expr.children()):
        if not isinstance(child, ScalarLiteral):
            return index, child
    return None


class TypeSoundnessAnalyzer(Analyzer):
    """Every node must type-check; failures are classified into
    unbound variables (MOA002), unknown operators (MOA003) and general
    type errors (MOA001).  Only the deepest failing nodes report, so
    one root cause yields one diagnostic."""

    name = "type-soundness"

    def analyze(self, expr, context):
        failed: set[ExprPath] = set()
        # deepest-first so parents of a failing child stay quiet
        for path, node in sorted(_walk_with_paths(expr), key=lambda pair: -len(pair[0])):
            if any(child_path in failed for child_path, _ in _walk_with_paths(node, path)
                   if child_path != path):
                failed.add(path)
                continue
            try:
                node.infer_type(context.env_types, context.registry)
            except (UnknownOperatorError, UnknownExtensionError) as exc:
                failed.add(path)
                yield make_diagnostic("MOA003", str(exc), path, node)
            except AlgebraTypeError as exc:
                failed.add(path)
                if isinstance(node, Var):
                    yield make_diagnostic("MOA002", str(exc), path, node)
                else:
                    yield make_diagnostic("MOA001", str(exc), path, node)


class OrderingAnalyzer(Analyzer):
    """Order-sensitive operators must consume ordered structures: a
    ``slice``/``getat``/``concat``/``reverse`` (or any operator the
    registry marks ``order_sensitive``) over a BAG or SET is flagged
    (MOA101)."""

    name = "ordering"

    def analyze(self, expr, context):
        order_sensitive = context.order_sensitive_ops()
        props = context.properties(expr)
        for path, node in _walk_with_paths(expr):
            if not isinstance(node, Apply) or node.op not in order_sensitive:
                continue
            for index, child in enumerate(node.children()):
                if isinstance(child, ScalarLiteral):
                    continue
                child_props = props[path + (index,)]
                if child_props.stype is None:
                    continue  # typing failure reported separately
                if not child_props.stype.ordered:
                    yield make_diagnostic(
                        "MOA101",
                        f"order-sensitive operator {node.op!r} consumes an "
                        f"unordered {child_props.stype}: element order "
                        f"formally does not exist for this structure",
                        path, node,
                    )


@dataclass(frozen=True)
class CutoffClassification:
    """One cut-off (stop_after-style prefix) node and its safety."""

    path: ExprPath
    expr: str
    op: str
    safe: bool
    reason: str


def classify_cutoffs(expr: Expr, context: AnalysisContext) -> list[CutoffClassification]:
    """Classify every cut-off node as safe or unsafe.

    Cut-offs are ``topn`` (always safe: it establishes its own
    ordering), prefix ``slice`` at offset 0, and any explicit
    ``stopafter`` operator.  A prefix cut is *safe* when its input is
    provably ordered by a key (monotone-score prefix: the cut keeps the
    true top elements) or at least positionally deterministic (a LIST);
    it is *unsafe* when the input's structure has no element order.
    """
    props = context.properties(expr)
    out: list[CutoffClassification] = []
    for path, node in _walk_with_paths(expr):
        if not isinstance(node, Apply):
            continue
        if node.op == "topn":
            out.append(CutoffClassification(
                path, str(node), node.op, True,
                "topn orders by its own key before cutting",
            ))
            continue
        if node.op not in ("slice", "stopafter"):
            continue
        if node.op == "slice":
            scalars = [a.value for a in node.children() if isinstance(a, ScalarLiteral)]
            if len(scalars) != 2 or scalars[0] != 0:
                continue  # mid-stream slices are pagination, not cut-offs
        value_child = _first_value_child(node)
        if value_child is None:
            continue
        index, child = value_child
        child_props = props[path + (index,)]
        if child_props.ordered_by is not None:
            key, descending = child_props.ordered_by
            direction = "desc" if descending else "asc"
            out.append(CutoffClassification(
                path, str(node), node.op, True,
                f"input is ordered by {key or 'element'} ({direction}): "
                f"the prefix is the true top-N",
            ))
        elif child_props.stype is not None and child_props.stype.ordered:
            out.append(CutoffClassification(
                path, str(node), node.op, True,
                "input is a LIST: the prefix is positionally well defined",
            ))
        else:
            stype = child_props.stype
            described = str(stype) if stype is not None else "an ill-typed input"
            out.append(CutoffClassification(
                path, str(node), node.op, False,
                f"prefix cut over unordered {described}: keeps arbitrary "
                f"elements, not the best ones",
            ))
    return out


class CutoffSafetyAnalyzer(Analyzer):
    """Emits MOA201 for every cut-off classified unsafe."""

    name = "cutoff-safety"

    def analyze(self, expr, context):
        for classification in classify_cutoffs(expr, context):
            if not classification.safe:
                yield make_diagnostic(
                    "MOA201",
                    f"unsafe {classification.op}: {classification.reason}",
                    classification.path, classification.expr,
                )


class CardinalityAnalyzer(Analyzer):
    """Cut-offs whose count meets or exceeds the static input bound are
    no-ops (MOA203): the plan does the cut-off's work for nothing."""

    name = "cardinality"

    def analyze(self, expr, context):
        props = context.properties(expr)
        for path, node in _walk_with_paths(expr):
            if not isinstance(node, Apply) or node.op not in ("topn", "slice"):
                continue
            scalars = [a.value for a in node.children() if isinstance(a, ScalarLiteral)]
            if node.op == "topn":
                if scalars and isinstance(scalars[0], str):
                    scalars = scalars[1:]
                count = scalars[0] if scalars else None
            else:
                count = scalars[1] if len(scalars) == 2 and scalars[0] == 0 else None
            if not isinstance(count, (int, float)):
                continue
            value_child = _first_value_child(node)
            if value_child is None:
                continue
            bound = props[path + (value_child[0],)].max_rows
            if bound != float("inf") and count >= bound:
                yield make_diagnostic(
                    "MOA203",
                    f"cut-off keeps {count:g} of at most {bound:g} input "
                    f"elements: the cut is a no-op",
                    path, node,
                )


class FragmentCoverageAnalyzer(Analyzer):
    """When the context declares fragment metadata, a plan referencing
    a strict subset of a parent's fragments is flagged (MOA401): it
    computes the paper's unsafe fragment-restricted approximation."""

    name = "fragment-coverage"

    def analyze(self, expr, context):
        if not context.fragments:
            return
        used: dict[str, set[int]] = {}
        first_path: dict[str, ExprPath] = {}
        for path, node in _walk_with_paths(expr):
            if isinstance(node, Var) and node.name in context.fragments:
                declaration = context.fragments[node.name]
                used.setdefault(declaration.parent, set()).add(declaration.index)
                first_path.setdefault(declaration.parent, path)
        totals = {d.parent: d.total for d in context.fragments.values()}
        for parent, indexes in sorted(used.items()):
            total = totals[parent]
            if len(indexes) < total:
                missing = total - len(indexes)
                yield make_diagnostic(
                    "MOA401",
                    f"plan reads {len(indexes)} of {total} fragments of "
                    f"{parent!r} ({missing} missing): results are a "
                    f"fragment-restricted approximation",
                    first_path[parent], expr,
                )


class BoundFlowAnalyzer(Analyzer):
    """Score-bound certification (MOA901/902/903).

    Runs the interval-domain abstract interpreter of
    :mod:`repro.analysis.bounds` over the plan and checks every pruning
    decision the context declares (threshold engine + aggregate,
    :class:`~repro.analysis.bounds.PruningDeclaration`) against the
    derived flow.  The body lives in the bounds module; the import
    is deferred because that module builds on this one."""

    name = "bound-flow"

    def analyze(self, expr, context):
        from .bounds import analyze_bound_flow
        yield from analyze_bound_flow(expr, context)


#: the default suite, in reporting order
DEFAULT_ANALYZERS: tuple[Analyzer, ...] = (
    TypeSoundnessAnalyzer(),
    OrderingAnalyzer(),
    CutoffSafetyAnalyzer(),
    CardinalityAnalyzer(),
    FragmentCoverageAnalyzer(),
    BoundFlowAnalyzer(),
)


def analyze_expr(
    expr: Expr,
    context: AnalysisContext | None = None,
    analyzers: Iterable[Analyzer] | None = None,
) -> list[Diagnostic]:
    """Run the analyzer suite over one expression."""
    context = context or AnalysisContext()
    out: list[Diagnostic] = []
    for analyzer in analyzers or DEFAULT_ANALYZERS:
        out.extend(analyzer.analyze(expr, context))
    return out


# -- rewrite-step checks -----------------------------------------------------


def check_rewrite_step(
    before: Expr,
    after: Expr,
    context: AnalysisContext | None = None,
    rule=None,
) -> list[Diagnostic]:
    """Cross-rewrite checks for one rule application.

    Verifies that the rewrite preserved the result type, did not drop a
    statically known ordering while still promising a LIST (MOA102),
    did not change duplicate semantics (MOA103), did not grow the
    cardinality bound (MOA301), and did not widen the derived score
    interval (MOA904).  A rule carrying a non-``safe`` declared safety
    label is surfaced as MOA202.
    """
    context = context or AnalysisContext()
    rule_name = getattr(rule, "name", None) if rule is not None else None
    out: list[Diagnostic] = []
    try:
        props_before = context.properties(before)[()]
        props_after = context.properties(after)[()]
    except Exception:  # pathological trees: the expr analyzers report those
        return out

    if (
        props_before.well_typed
        and props_after.well_typed
        and props_before.stype != props_after.stype
    ):
        out.append(make_diagnostic(
            "MOA001",
            f"rewrite changed the result type "
            f"{props_before.stype} -> {props_after.stype}",
            (), after, rule=rule_name,
        ))

    if (
        props_before.ordered_by is not None
        and props_after.ordered_by is None
        and isinstance(props_after.stype, ListType)
    ):
        key, descending = props_before.ordered_by
        out.append(make_diagnostic(
            "MOA102",
            f"rewrite dropped the proven ordering by {key or 'element'} "
            f"({'desc' if descending else 'asc'}) while the result is "
            f"still a LIST",
            (), after, rule=rule_name,
        ))

    if props_before.distinct and not props_after.distinct:
        out.append(make_diagnostic(
            "MOA103",
            "rewrite lost the duplicate-free guarantee: "
            "duplicate-sensitive consumers above may change value",
            (), after, rule=rule_name,
        ))

    if props_after.max_rows > props_before.max_rows:
        out.append(make_diagnostic(
            "MOA301",
            f"rewrite grew the cardinality bound "
            f"{props_before.max_rows:g} -> {props_after.max_rows:g}",
            (), after, rule=rule_name,
        ))

    from .bounds import check_bounds_rewrite
    out.extend(check_bounds_rewrite(before, after, context, rule=rule))

    declared = getattr(rule, "safety", "safe") if rule is not None else "safe"
    if declared != "safe":
        out.append(make_diagnostic(
            "MOA202",
            f"rule declares safety label {declared!r}: the result may be "
            f"an approximation of the original plan",
            (), after, rule=rule_name,
        ))
    return out
