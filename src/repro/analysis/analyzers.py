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
* shard safety of parallel plans (:class:`ShardSafetyAnalyzer`),
* cache-reuse safety (:class:`CacheReuseAnalyzer`),
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


@dataclass(frozen=True)
class ShardDeclaration:
    """Declares an environment variable as one document-range shard of
    a parent collection partitioned into ``total`` shards (the
    :mod:`repro.parallel` sharder's layout, seen statically)."""

    parent: str
    index: int
    total: int


@dataclass(frozen=True)
class CacheReuseDeclaration:
    """Declares one proposed reuse of cached query state.

    Describes what the cache holds (built under which epoch, aggregate,
    fragment set and shard layout, to which depth, with which safety)
    against what the query at hand needs; ``None`` fields are "not
    applicable / unknown" and skip the corresponding check.  The
    :class:`CacheReuseAnalyzer` turns every unsound pairing into an
    ``MOA8xx`` diagnostic, and the optimizer consults :meth:`violations`
    before granting a plan the ``cache_hit`` / ``resume_from`` fast-path
    properties.
    """

    #: label for messages (e.g. the fingerprint digest or query text)
    name: str = "cache entry"
    cached_epoch: int | None = None
    current_epoch: int | None = None
    cached_aggregate: str | None = None
    query_aggregate: str | None = None
    cached_fragments: tuple | None = None
    current_fragments: tuple | None = None
    cached_shard_layout: tuple | None = None
    current_shard_layout: tuple | None = None
    #: deepest cached answer and the depth the query requests
    cached_n: int | None = None
    requested_n: int | None = None
    #: whether the entry's scores are independent of its stopping depth
    prefix_safe: bool = True
    #: whether the entry holds the complete corpus ranking
    complete: bool = False
    #: whether the entry carries certified resume state
    has_resume: bool = False

    def violations(self) -> list[tuple[str, str]]:
        """Every ``(code, message)`` that makes this reuse unsound."""
        out: list[tuple[str, str]] = []
        if (self.cached_epoch is not None and self.current_epoch is not None
                and self.cached_epoch < self.current_epoch):
            out.append((
                "MOA801",
                f"{self.name}: built at corpus epoch {self.cached_epoch}, "
                f"query runs at epoch {self.current_epoch} — scores may "
                f"have changed",
            ))
        if (self.cached_aggregate is not None and self.query_aggregate is not None
                and self.cached_aggregate != self.query_aggregate):
            out.append((
                "MOA802",
                f"{self.name}: cached under aggregate "
                f"{self.cached_aggregate!r}, query aggregates with "
                f"{self.query_aggregate!r}",
            ))
        if (self.cached_fragments is not None and self.current_fragments is not None
                and tuple(self.cached_fragments) != tuple(self.current_fragments)):
            out.append((
                "MOA803",
                f"{self.name}: cached over fragments "
                f"{tuple(self.cached_fragments)}, query reads "
                f"{tuple(self.current_fragments)} — different candidate "
                f"populations",
            ))
        if (self.cached_shard_layout is not None
                and self.current_shard_layout is not None
                and tuple(self.cached_shard_layout) != tuple(self.current_shard_layout)):
            out.append((
                "MOA804",
                f"{self.name}: bounds keyed to shard layout "
                f"{tuple(self.cached_shard_layout)}, current layout is "
                f"{tuple(self.current_shard_layout)}",
            ))
        if (self.cached_n is not None and self.requested_n is not None
                and not self.complete):
            deeper = self.requested_n > self.cached_n
            mismatched = self.requested_n != self.cached_n
            if (deeper and not self.has_resume) or (not self.prefix_safe and mismatched):
                out.append((
                    "MOA805",
                    f"{self.name}: top-{self.requested_n} requested from a "
                    f"{'non-prefix-safe ' if not self.prefix_safe else ''}"
                    f"top-{self.cached_n} entry with no resume state",
                ))
        return out


@dataclass
class AnalysisContext:
    """Static context shared by all analyzers."""

    env_types: Mapping[str, StructureType] = field(default_factory=dict)
    registry: Registry = field(default_factory=default_registry)
    #: optional fragment metadata: var name -> FragmentDeclaration
    fragments: Mapping[str, FragmentDeclaration] = field(default_factory=dict)
    #: optional shard metadata: var name -> ShardDeclaration
    shards: Mapping[str, ShardDeclaration] = field(default_factory=dict)
    #: the plan's declared `parallel=K` property: the plan runs under
    #: the distributed coordinator with K-way sharding (None = serial)
    parallel: int | None = None
    #: whether the coordinator's round-2 probe is enabled (the merge
    #: may re-fetch a shard's items deeper than a shard-local cut-off)
    merge_probe: bool = True
    #: proposed cache reuses the plan depends on (MOA8xx checks)
    cache_reuse: tuple = ()
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
    #: seeded threshold bounds to epoch-check (MOA905):
    #: :class:`~repro.analysis.bounds.BoundSeedDeclaration` records
    bound_seeds: tuple = ()
    #: resumed-from-cache frontiers (feedback edges of the bound flow):
    #: :class:`~repro.analysis.bounds.ResumeSourceDeclaration` records
    resume_sources: tuple = ()

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


def _cutoff_count(node: Apply) -> int | None:
    """The element count a cut-off node keeps, when statically known."""
    scalars = [a.value for a in node.children() if isinstance(a, ScalarLiteral)]
    if node.op == "topn":
        if scalars and isinstance(scalars[0], str):
            scalars = scalars[1:]
        count = scalars[0] if scalars else None
    elif node.op == "slice":
        count = scalars[1] if len(scalars) == 2 and scalars[0] == 0 else None
    else:  # stopafter
        count = scalars[0] if scalars else None
    return int(count) if isinstance(count, (int, float)) else None


class ShardSafetyAnalyzer(Analyzer):
    """Shard safety of parallel plans (MOA601/602/603).

    When the context declares document-range shards, a cut-off whose
    input reads a strict subset of a parent's shards produces a
    *shard-local* top-N — sound only under the distributed coordinator
    (``context.parallel``), and, when cut shallower than the plan's
    global top-N, only with the coordinator's round-2 probe enabled
    (``context.merge_probe``): ``stop_after`` may not push below a
    shard boundary without it.  A declared ``parallel=K`` that
    disagrees with the shard layout is also flagged.
    """

    name = "shard-safety"

    def analyze(self, expr, context):
        if context.parallel is not None:
            totals = {d.parent: d.total for d in context.shards.values()}
            for parent, total in sorted(totals.items()):
                if total != context.parallel:
                    yield make_diagnostic(
                        "MOA603",
                        f"plan declares parallel={context.parallel} but "
                        f"{parent!r} is split into {total} shards",
                        (), expr,
                    )
        if not context.shards:
            return
        nodes = dict(_walk_with_paths(expr))
        cutoffs = [c for c in classify_cutoffs(expr, context)
                   if isinstance(nodes.get(c.path), Apply)]
        global_n = None
        for classification in sorted(cutoffs, key=lambda c: len(c.path)):
            count = _cutoff_count(nodes[classification.path])
            if count is not None:
                global_n = count
                break
        totals = {d.parent: d.total for d in context.shards.values()}
        for classification in cutoffs:
            node = nodes[classification.path]
            used: dict[str, set[int]] = {}
            for _, sub in _walk_with_paths(node, classification.path):
                if isinstance(sub, Var) and sub.name in context.shards:
                    declaration = context.shards[sub.name]
                    used.setdefault(declaration.parent, set()).add(declaration.index)
            for parent, indexes in sorted(used.items()):
                if len(indexes) >= totals[parent]:
                    continue
                if context.parallel is None:
                    yield make_diagnostic(
                        "MOA601",
                        f"{classification.op} cuts a scan of "
                        f"{len(indexes)} of {totals[parent]} shards of "
                        f"{parent!r} with no distributed merge: the "
                        f"shard-local top-N is not the global one",
                        classification.path, node,
                    )
                    continue
                count = _cutoff_count(node)
                if (not context.merge_probe and count is not None
                        and global_n is not None and count < global_n):
                    yield make_diagnostic(
                        "MOA602",
                        f"{classification.op} keeps {count} elements per "
                        f"shard of {parent!r}, below the global top-"
                        f"{global_n}, and the merge round-2 probe is "
                        f"disabled: the threshold merge may miss answers",
                        classification.path, node,
                    )


class CacheReuseAnalyzer(Analyzer):
    """Cache-reuse safety (MOA801–805).

    The expression tree plays no role: the context's
    :class:`CacheReuseDeclaration` records describe the reuses the plan
    depends on, and every unsound pairing becomes a diagnostic at the
    plan root.  The runtime cache cannot *construct* most of these
    (fingerprints embed epoch, aggregate, fragments and shard layout),
    so the analyzer's job is guarding explicit reuse — pinned entries,
    externally persisted state, hand-built resume plans.
    """

    name = "cache-reuse"

    def analyze(self, expr, context):
        for declaration in context.cache_reuse:
            for code, message in declaration.violations():
                yield make_diagnostic(code, message, (), expr)


class BoundFlowAnalyzer(Analyzer):
    """Score-bound certification (MOA901/902/903/905).

    Runs the interval-domain abstract interpreter of
    :mod:`repro.analysis.bounds` over the plan and checks every pruning
    decision the context declares (threshold engine + aggregate,
    :class:`~repro.analysis.bounds.PruningDeclaration`,
    :class:`~repro.analysis.bounds.BoundSeedDeclaration`,
    :class:`~repro.analysis.bounds.ResumeSourceDeclaration`) against
    the derived flow.  The body lives in the bounds module; the import
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
    ShardSafetyAnalyzer(),
    CacheReuseAnalyzer(),
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
