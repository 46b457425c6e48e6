"""Score-bound abstract interpretation over plan DAGs (MOA9xx).

An interval-domain abstract interpreter: one bottom-up dataflow pass
over the expression tree derives, at every plan edge, a *certified
score interval* ``[lo, hi]`` — a :class:`~repro.intervals.ScoreInterval`
the true value of that edge provably lies in.  Transfer functions cover
every algebra operator (selections clamp, cut-offs and reorderings
preserve, concatenations join, intersections meet, scalar aggregates
fold the input interval), literal collections (exact hulls) and
declared sources (:attr:`AnalysisContext.score_bounds`).

On top of the derived flow, :class:`BoundFlowAnalyzer` certifies every
pruning decision the plan depends on:

* **MOA901** — a non-monotone aggregate under a threshold engine
  (TA/NRA/CA/FA stop rules argue from monotonicity; static twin of
  :func:`repro.topn.aggregates.require_monotone`);
* **MOA902** — a declared pruning bound (TA threshold, coordinator
  ``τ(n)``, quit cut-off) the derived interval does *not* dominate:
  values above the bound are possible, so pruning by it can drop true
  answers;
* **MOA903** — an unsafe cut-off whose worst-case error is not even
  computable (unbounded derived interval or cardinality): the plan
  trades quality for speed with no machine-checkable error bound.

:func:`check_bounds_rewrite` is the cross-rewrite check (**MOA904**):
a rewrite whose derived root interval is *wider* than before lost
bound precision — downstream threshold administration silently
degrades.  :func:`certify` bundles everything into a
:class:`BoundCertificate`: the ``bound_certified`` plan property the
optimizer gates threshold use on, with a machine-checkable
:class:`WorstCaseError` attached to every unsafe-but-bounded plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from ..algebra.expr import Apply, Expr, Literal, ScalarLiteral, Var
from ..algebra.values import CollectionValue
from ..intervals import ScoreInterval, TOP, join_all
from .analyzers import AnalysisContext, classify_cutoffs
from .diagnostics import Diagnostic, ExprPath, format_path, make_diagnostic

#: the interval of a provably empty edge: no value ever flows, so any
#: assertion is vacuously certified — pick the bounded one, keeping
#: downstream worst-case errors computable
EMPTY_EDGE = ScoreInterval.point(0.0)


# -- declarations -------------------------------------------------------------


@dataclass(frozen=True)
class PruningDeclaration:
    """One pruning decision the plan depends on.

    ``asserted_upper`` is the bound the runtime prunes by ("nothing cut
    can score above this"): a TA threshold τ, a coordinator merge
    threshold ``τ(n)``, a quit/continue cut-off.  The declaration is
    certified when the derived interval at ``path`` *dominates* the
    bound (``hi <= asserted_upper``); otherwise MOA902 fires with the
    worst-case score error ``hi - asserted_upper``.
    """

    #: label for messages (engine or rule name)
    name: str
    #: plan edge the pruned values flow through
    path: ExprPath
    #: the upper bound the runtime prunes by
    asserted_upper: float


# -- the derived flow ---------------------------------------------------------


@dataclass
class BoundFlow:
    """The derived flow: a certified interval per plan edge."""

    facts: dict[ExprPath, ScoreInterval] = field(default_factory=dict)

    def at(self, path: ExprPath) -> ScoreInterval:
        return self.facts.get(tuple(path), TOP)

    def root(self) -> ScoreInterval:
        return self.at(())

    def to_dict(self) -> dict:
        return {
            "facts": {format_path(path): interval.to_dict()
                      for path, interval in sorted(self.facts.items())},
        }

    def render_text(self, expr: Expr) -> str:
        """The per-operator bound flow as an indented tree."""
        lines: list[str] = []

        def walk(node: Expr, path: ExprPath, depth: int) -> None:
            label = node.op if isinstance(node, Apply) else \
                ("literal" if isinstance(node, Literal) else str(node))
            lines.append(f"{'  ' * depth}{format_path(path)} {label} "
                         f"— {self.at(path).describe()}")
            for index, child in enumerate(node.children()):
                walk(child, path + (index,), depth + 1)

        walk(expr, (), 0)
        return "\n".join(lines)


def derive_bounds(expr: Expr, context: AnalysisContext | None = None) -> BoundFlow:
    """Run the bottom-up dataflow pass and annotate every edge."""
    context = context or AnalysisContext()
    try:
        props = context.properties(expr)
    except Exception:  # pathological trees: typing analyzers report those
        props = {}
    facts: dict[ExprPath, ScoreInterval] = {}
    _transfer(expr, (), props, facts, context.score_bounds or {})
    return BoundFlow(facts=facts)


def _transfer(node, path, props, facts, score_bounds):
    child_intervals = [
        _transfer(child, path + (index,), props, facts, score_bounds)
        for index, child in enumerate(node.children())
    ]
    interval = _node_interval(node, path, child_intervals, props, score_bounds)
    facts[path] = interval
    return interval


def _literal_interval(value) -> ScoreInterval:
    if not isinstance(value, CollectionValue):
        return TOP
    if value.count == 0:
        return EMPTY_EDGE  # empty postings: vacuously certified
    if not value.is_atomic_elements:
        return TOP
    elements = list(value.iter_elements())
    if not all(isinstance(e, (int, float)) and not isinstance(e, bool)
               for e in elements):
        return TOP
    return ScoreInterval.of_values(elements)


def _max_rows(props, path) -> float:
    entry = props.get(tuple(path))
    return entry.max_rows if entry is not None else math.inf


def _node_interval(node, path, child_intervals, props, score_bounds):
    if isinstance(node, ScalarLiteral):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return TOP
        return ScoreInterval.point(float(value))
    if isinstance(node, Literal):
        return _literal_interval(node.value)
    if isinstance(node, Var):
        declared = score_bounds.get(node.name)
        return declared if declared is not None else TOP
    if not isinstance(node, Apply):
        return TOP

    values = [iv for child, iv in zip(node.children(), child_intervals)
              if not isinstance(child, ScalarLiteral)]
    scalars = [child.value for child in node.children()
               if isinstance(child, ScalarLiteral)]
    receiver = values[0] if values else TOP
    op = node.op

    if op == "select":
        key = scalars[0] if scalars and isinstance(scalars[0], str) else None
        bounds = scalars[1:] if key is not None else scalars
        if key is None and len(bounds) == 2 and all(
                isinstance(b, (int, float)) and not isinstance(b, bool)
                for b in bounds):
            lo, hi = float(bounds[0]), float(bounds[1])
            if lo > hi:
                return EMPTY_EDGE
            clamped = receiver.clamp(lo, hi)
            # a disjoint clamp means no element passes: vacuous edge
            return clamped if clamped is not None else ScoreInterval.point(lo)
        return receiver  # field selects keep element scores unchanged
    if op in ("sort", "topn", "slice", "stopafter", "reverse",
              "projecttobag", "projecttoset", "getat"):
        # reorderings and cut-offs keep a subset of the same values
        return receiver
    if op == "project":
        return TOP  # field extraction: no per-field intervals tracked
    if op in ("concat", "union"):
        return join_all(values) if values else TOP
    if op == "intersect":
        if not values:
            return TOP
        met = values[0]
        for other in values[1:]:
            met = met.meet(other)
            if met is None:
                return EMPTY_EDGE  # provably disjoint inputs
        return met
    if op == "difference":
        return receiver
    if op == "count":
        return ScoreInterval(0.0, _max_rows(props, path + (0,)) if node.children() else math.inf)
    if op == "sum":
        rows = _max_rows(props, _receiver_path(node, path))
        return ScoreInterval.point(0.0).join(receiver.scale(rows))
    if op in ("avg", "min", "max"):
        # folds of values drawn from the input interval stay inside it;
        # the empty-input convention (0.0) joins in
        return receiver.join(ScoreInterval.point(0.0))
    if op == "contains":
        return ScoreInterval(0.0, 1.0)
    if op == "getfield":
        return TOP
    return TOP  # unknown operator: claim nothing


def _receiver_path(node: Apply, path: ExprPath) -> ExprPath:
    for index, child in enumerate(node.children()):
        if not isinstance(child, ScalarLiteral):
            return path + (index,)
    return path


# -- certification ------------------------------------------------------------


@dataclass(frozen=True)
class WorstCaseError:
    """Machine-checkable worst-case error of an unsafe plan.

    ``score_error`` bounds how far any reported score can sit from the
    true one; ``rank_error`` bounds how many true top-N members the
    plan can miss.  Both are conservative (derived from certified
    intervals and static cardinality bounds)."""

    score_error: float
    rank_error: float

    @property
    def computable(self) -> bool:
        return math.isfinite(self.score_error) and math.isfinite(self.rank_error)

    def merge(self, other: "WorstCaseError") -> "WorstCaseError":
        return WorstCaseError(self.score_error + other.score_error,
                              self.rank_error + other.rank_error)

    def describe(self) -> str:
        def fmt(v):
            return "unbounded" if math.isinf(v) else f"{v:g}"
        return (f"worst-case score error <= {fmt(self.score_error)}, "
                f"rank error <= {fmt(self.rank_error)}")

    def to_dict(self) -> dict:
        def js(v):
            return "inf" if math.isinf(v) else v
        return {"score_error": js(self.score_error),
                "rank_error": js(self.rank_error),
                "computable": self.computable}


def _resolve_aggregate(aggregate):
    """The context's aggregate as an object (name strings looked up in
    the built-in registry; unknown names certify nothing)."""
    if aggregate is None or not isinstance(aggregate, str):
        return aggregate
    from ..topn.aggregates import BUILTIN_AGGREGATES
    return BUILTIN_AGGREGATES.get(aggregate)


def _iter_bound_diagnostics(
    expr: Expr, context: AnalysisContext, flow: BoundFlow,
) -> Iterator[tuple[Diagnostic, WorstCaseError | None]]:
    """Every MOA9xx finding with its attached worst-case error."""
    props = None
    try:
        props = context.properties(expr)
    except Exception:
        props = {}

    # MOA901 — non-monotone aggregate under a threshold engine
    engine = getattr(context, "threshold_engine", None)
    aggregate = _resolve_aggregate(getattr(context, "aggregate", None))
    if engine is not None:
        declared = getattr(context, "aggregate", None)
        if declared is not None and aggregate is None:
            yield make_diagnostic(
                "MOA901",
                f"aggregate {declared!r} is not a registered built-in and "
                f"declares no metadata: {engine} threshold administration "
                f"cannot be certified under it",
                (), expr,
            ), None
        elif aggregate is not None and not getattr(aggregate, "monotone", False):
            yield make_diagnostic(
                "MOA901",
                f"aggregate {aggregate.name!r} is not monotone: the {engine} "
                f"stop rule assumes increasing a grade never decreases the "
                f"aggregate, so its threshold prunes true answers",
                (), expr,
            ), None

    # MOA902 — pruning bound not dominated by the derived interval
    for decl in getattr(context, "pruning", ()):
        derived = flow.at(decl.path)
        if derived.dominates(decl.asserted_upper):
            continue
        score_error = derived.hi - decl.asserted_upper
        rank_error = _max_rows(props, decl.path)
        error = WorstCaseError(score_error, rank_error)
        yield make_diagnostic(
            "MOA902",
            f"{decl.name}: prunes by upper bound {decl.asserted_upper:g} "
            f"but the derived interval at {format_path(decl.path)} is "
            f"{derived.describe()} — values above the bound are possible "
            f"({error.describe()})",
            decl.path, expr,
        ), error

    # MOA903 — unsafe quit without a computable worst-case error bound
    for classification, error in _unsafe_cutoff_errors(expr, context, flow):
        if error.computable:
            continue  # certificate records the bound; no diagnostic
        yield make_diagnostic(
            "MOA903",
            f"unsafe {classification.op} quits with no computable "
            f"worst-case error: the derived input interval or cardinality "
            f"is unbounded, so the quality loss cannot be certified",
            classification.path, classification.expr,
        ), error


def _unsafe_cutoff_errors(expr, context, flow):
    """(classification, WorstCaseError) per unsafe cut-off."""
    try:
        props = context.properties(expr)
        cutoffs = classify_cutoffs(expr, context)
    except Exception:
        return
    nodes = {path: node for path, node in _walk(expr)}
    for classification in cutoffs:
        if classification.safe:
            continue
        node = nodes.get(classification.path)
        if not isinstance(node, Apply):
            continue
        input_path = _receiver_path(node, classification.path)
        interval = flow.at(input_path)
        rows = _max_rows(props, input_path)
        # an arbitrary kept element differs from the true one by at
        # most the interval width; at worst every kept slot misses, so
        # a known kept count bounds the rank error even when the input
        # cardinality is statically unbounded
        score_error = interval.width if interval.bounded else math.inf
        kept = _kept_count(node)
        if kept is not None:
            rank_error = min(rows, float(kept))
        else:
            rank_error = rows
        yield classification, WorstCaseError(score_error, rank_error)


def _kept_count(node: Apply) -> int | None:
    scalars = [a.value for a in node.children() if isinstance(a, ScalarLiteral)]
    if node.op == "topn":
        if scalars and isinstance(scalars[0], str):
            scalars = scalars[1:]
        count = scalars[0] if scalars else None
    elif node.op == "slice":
        count = scalars[1] if len(scalars) == 2 else None
    else:
        count = scalars[0] if scalars else None
    return int(count) if isinstance(count, (int, float)) else None


def _walk(expr: Expr, path: ExprPath = ()):
    yield path, expr
    for index, child in enumerate(expr.children()):
        yield from _walk(child, path + (index,))


def analyze_bound_flow(expr: Expr, context: AnalysisContext) -> Iterator[Diagnostic]:
    """The :class:`~repro.analysis.analyzers.BoundFlowAnalyzer` body:
    derive the flow, then certify every pruning decision against it
    (MOA901/902/903; rewrite-step widening MOA904 lives in
    :func:`check_bounds_rewrite`)."""
    flow = derive_bounds(expr, context)
    for diagnostic, _error in _iter_bound_diagnostics(expr, context, flow):
        yield diagnostic


def check_bounds_rewrite(
    before: Expr,
    after: Expr,
    context: AnalysisContext | None = None,
    rule=None,
) -> list[Diagnostic]:
    """MOA904: a rewrite that widened the derived root interval.

    The interval analogue of the cardinality-monotonicity check: a
    sound rewrite may tighten bounds (more structure proven) but never
    loosen them — a wider root interval weakens every threshold bound
    derived downstream."""
    context = context or AnalysisContext()
    rule_name = getattr(rule, "name", None) if rule is not None else None
    interval_before = derive_bounds(before, context).root()
    interval_after = derive_bounds(after, context).root()
    if interval_before.contains_interval(interval_after):
        return []
    return [make_diagnostic(
        "MOA904",
        f"rewrite widened the derived score interval "
        f"{interval_before.describe()} -> {interval_after.describe()}: "
        f"threshold bounds downstream lose precision",
        (), after, rule=rule_name,
    )]


@dataclass
class BoundCertificate:
    """The plan's bound-certification verdict.

    ``certified`` is True exactly when every pruning decision is
    dominated by the derived flow (no MOA9xx errors, no unsafe
    cut-offs): the optimizer then grants the ``bound_certified``
    plan property.  An uncertified plan carries the machine-checkable
    :class:`WorstCaseError` when one is computable — the explicit
    quality/speed trade-off — and MOA9xx diagnostics otherwise."""

    certified: bool
    flow: BoundFlow
    diagnostics: list[Diagnostic]
    worst_case: WorstCaseError | None
    reasons: list[str]

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "root_interval": self.flow.root().to_dict(),
            "worst_case": self.worst_case.to_dict() if self.worst_case else None,
            "reasons": list(self.reasons),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def describe(self) -> str:
        if self.certified:
            return (f"bound-certified: every pruning decision dominated "
                    f"(root interval {self.flow.root().describe()})")
        head = "not bound-certified: " + ("; ".join(self.reasons) or
                                          "uncertified pruning decisions")
        if self.worst_case is not None:
            head += f" ({self.worst_case.describe()})"
        return head


def certify(expr: Expr, context: AnalysisContext | None = None) -> BoundCertificate:
    """Derive the flow and certify every pruning decision of ``expr``."""
    context = context or AnalysisContext()
    flow = derive_bounds(expr, context)
    diagnostics: list[Diagnostic] = []
    errors: list[WorstCaseError] = []
    reasons: list[str] = []
    for diagnostic, error in _iter_bound_diagnostics(expr, context, flow):
        diagnostics.append(diagnostic)
        reasons.append(f"{diagnostic.code}: {diagnostic.message}")
        if error is not None:
            errors.append(error)
    unsafe = list(_unsafe_cutoff_errors(expr, context, flow))
    for classification, error in unsafe:
        if error.computable:
            reasons.append(
                f"unsafe {classification.op} at "
                f"{format_path(classification.path)}: {error.describe()}")
            errors.append(error)
    certified = not diagnostics and not unsafe
    worst_case = None
    if errors:
        worst_case = errors[0]
        for error in errors[1:]:
            worst_case = worst_case.merge(error)
    return BoundCertificate(
        certified=certified,
        flow=flow,
        diagnostics=diagnostics,
        worst_case=worst_case,
        reasons=reasons,
    )
