"""Static analysis of algebra plans: the plan verifier.

The correctness tooling around the optimizer (see ``docs/API.md``,
"Plan verification"):

* :mod:`~repro.analysis.codes` — the stable ``MOA001``... diagnostic
  code registry;
* :mod:`~repro.analysis.diagnostics` — ``Diagnostic`` records with
  expr-path locations and text/JSON report rendering;
* :mod:`~repro.analysis.properties` — static ordering / duplicate /
  cardinality property inference over ``Expr`` trees;
* :mod:`~repro.analysis.analyzers` — the analyzer suite (type
  soundness, ordering, safe-vs-unsafe cut-off classification,
  cardinality, fragment coverage) plus per-rewrite step checks;
* :mod:`~repro.analysis.bounds` — the interval-domain abstract
  interpreter behind ``repro bounds``: certified score intervals at
  every plan edge and the ``MOA9xx`` bound-certification family;
* :mod:`~repro.analysis.soundness` — the differential rewrite-rule
  soundness harness and the verified safety-label cache;
* :mod:`~repro.analysis.lint` — ``repro lint`` entry points and the
  seeded unsafe ``stop_after`` pushdown exemplar;
* :mod:`~repro.analysis.concurrency` — the ``repro check`` pass:
  AST-based effect inference over the Python codebase itself plus a
  lock-discipline / race analyzer (the ``MOA7xx`` family);
* :mod:`~repro.analysis.lifecycle` — resource-lifecycle & async
  cancellation safety (the ``MOA11xx`` family): CFG typestate
  dataflow for acquire/release discipline, await-hazard analysis,
  and the static lock-order deadlock graph cross-checked against the
  runtime sanitizer.
"""

from .analyzers import (
    DEFAULT_ANALYZERS,
    AnalysisContext,
    Analyzer,
    BoundFlowAnalyzer,
    CardinalityAnalyzer,
    CutoffClassification,
    CutoffSafetyAnalyzer,
    FragmentCoverageAnalyzer,
    FragmentDeclaration,
    OrderingAnalyzer,
    TypeSoundnessAnalyzer,
    analyze_expr,
    check_rewrite_step,
    classify_cutoffs,
)
from .bounds import (
    BoundCertificate,
    BoundFlow,
    PruningDeclaration,
    WorstCaseError,
    analyze_bound_flow,
    certify,
    check_bounds_rewrite,
    derive_bounds,
)
from .codes import CODES, SEVERITIES, DiagnosticCode, all_codes, code_info
from .concurrency import (
    WORKER_ROOTS,
    analyze_effects,
    check_package,
    check_paths,
    effect_summary,
    infer_module_effects,
    infer_package_effects,
)
from .diagnostics import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Diagnostic,
    DiagnosticReport,
    cli_payload,
    exit_code_for,
    format_path,
    make_diagnostic,
    severity_rank,
    subexpr_at,
)
from .lifecycle import (
    build_lock_graph,
    check_lifecycle,
    check_lifecycle_paths,
    crosscheck_lock_order,
    lock_graph_diagnostics,
    lock_order_cycles,
    static_lock_order_edges,
)
from .lint import (
    DEMO_EXPRESSION,
    SEEDED_UNSOUND_RULES,
    WIDENING_DEMO_EXPRESSION,
    UnsafeSelectWidening,
    UnsafeStopAfterPushdown,
    demo_unsafe_rewrite,
    demo_widening_rewrite,
    lint_expr,
    lint_file,
    lint_text,
)
from .properties import (
    ORDER_SENSITIVE_OPS,
    PlanProperties,
    infer_properties,
    properties_of,
)
from .serve import check_serve, check_serve_paths, epoch_mismatch_diagnostic
from .soundness import (
    RuleVerdict,
    SoundnessHarness,
    apply_rule_somewhere,
    clear_verified_cache,
    default_corpus,
    ensure_verified,
    verified_verdict,
)

__all__ = [
    "AnalysisContext",
    "Analyzer",
    "BoundCertificate",
    "BoundFlow",
    "BoundFlowAnalyzer",
    "CODES",
    "CardinalityAnalyzer",
    "CutoffClassification",
    "CutoffSafetyAnalyzer",
    "DEFAULT_ANALYZERS",
    "DEMO_EXPRESSION",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "Diagnostic",
    "DiagnosticCode",
    "DiagnosticReport",
    "FragmentCoverageAnalyzer",
    "FragmentDeclaration",
    "ORDER_SENSITIVE_OPS",
    "OrderingAnalyzer",
    "PlanProperties",
    "PruningDeclaration",
    "RuleVerdict",
    "SEEDED_UNSOUND_RULES",
    "SEVERITIES",
    "SoundnessHarness",
    "TypeSoundnessAnalyzer",
    "UnsafeSelectWidening",
    "UnsafeStopAfterPushdown",
    "WIDENING_DEMO_EXPRESSION",
    "WORKER_ROOTS",
    "WorstCaseError",
    "all_codes",
    "analyze_bound_flow",
    "build_lock_graph",
    "analyze_effects",
    "analyze_expr",
    "apply_rule_somewhere",
    "certify",
    "check_bounds_rewrite",
    "check_lifecycle",
    "check_lifecycle_paths",
    "check_package",
    "check_paths",
    "check_rewrite_step",
    "check_serve",
    "check_serve_paths",
    "crosscheck_lock_order",
    "lock_graph_diagnostics",
    "lock_order_cycles",
    "static_lock_order_edges",
    "derive_bounds",
    "classify_cutoffs",
    "clear_verified_cache",
    "cli_payload",
    "code_info",
    "default_corpus",
    "effect_summary",
    "exit_code_for",
    "demo_unsafe_rewrite",
    "demo_widening_rewrite",
    "ensure_verified",
    "epoch_mismatch_diagnostic",
    "format_path",
    "infer_module_effects",
    "infer_package_effects",
    "infer_properties",
    "lint_expr",
    "lint_file",
    "lint_text",
    "make_diagnostic",
    "properties_of",
    "severity_rank",
    "subexpr_at",
    "verified_verdict",
]
