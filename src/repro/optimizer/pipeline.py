"""The three-layer optimizer pipeline.

Mirrors the architecture the paper proposes: a general logical layer,
the inter-object layer "conceptually located between the high level,
general algebraic logical optimizer and the extension specific
optimizer parts", then the intra-object (E-ADT) layer — followed by a
cost-based choice among the candidate plans using the centralized cost
model (Step 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.engine import evaluate as _evaluate
from ..algebra.expr import Expr
from ..algebra.extensions import Registry, default_registry
from ..obs import tracer
from .cost import CostModel, PlanEstimate
from .interobject import DEFAULT_INTER_OBJECT_RULES
from .intraobject import intra_rules_for
from .logical import DEFAULT_LOGICAL_RULES
from .rules import RuleContext, TraceEntry, rewrite_fixpoint


@dataclass
class OptimizationReport:
    """What the optimizer did: candidate plans, estimates, the choice."""

    original: Expr
    optimized: Expr
    trace: list[TraceEntry] = field(default_factory=list)
    candidates: list[tuple[Expr, PlanEstimate]] = field(default_factory=list)
    #: plan-verifier findings (populated in ``verify=True`` mode); a
    #: :class:`repro.analysis.DiagnosticReport` or ``None``
    diagnostics: object = None
    #: bound-certification plan property: every pruning decision of the
    #: chosen plan is dominated by the derived score intervals (the
    #: engines make their own pruning decisions at run time); ``None``
    #: means certification was not run
    bound_certified: bool | None = None
    #: machine-checkable worst-case error of an uncertified plan (a
    #: :class:`repro.analysis.WorstCaseError` or ``None``)
    worst_case_error: object = None
    #: the full :class:`repro.analysis.BoundCertificate` (or ``None``)
    bound_certificate: object = None

    @property
    def original_estimate(self) -> PlanEstimate:
        return self.candidates[0][1]

    @property
    def chosen_estimate(self) -> PlanEstimate:
        for expr, estimate in self.candidates:
            if expr == self.optimized:
                return estimate
        return self.candidates[-1][1]

    @property
    def estimated_speedup(self) -> float:
        """Estimated cost ratio original / chosen (>= 1 when the
        optimizer found an improvement)."""
        chosen = self.chosen_estimate.cost
        if chosen <= 0:
            return 1.0
        return self.original_estimate.cost / chosen

    def rules_fired(self) -> list[str]:
        return [entry.rule for entry in self.trace]

    def describe(self) -> str:
        """Multi-line human-readable account (for examples/CLIs)."""
        lines = [f"original : {self.original}"]
        for entry in self.trace:
            lines.append(f"  [{entry.layer}] {entry.rule}")
            lines.append(f"    {entry.before}")
            lines.append(f"    => {entry.after}")
        lines.append(f"optimized: {self.optimized}")
        lines.append(
            f"estimated cost {self.original_estimate.cost:.1f} -> "
            f"{self.chosen_estimate.cost:.1f} "
            f"(x{self.estimated_speedup:.1f})"
        )
        if self.bound_certified is not None:
            lines.append(f"bound_certified: {self.bound_certified}")
            if not self.bound_certified and self.worst_case_error is not None:
                lines.append(f"  {self.worst_case_error.describe()}")
        if self.diagnostics is not None:
            lines.append(self.diagnostics.render_text())
        return "\n".join(lines)


class Optimizer:
    """The full pipeline: logical → inter-object → intra-object →
    cost-based choice."""

    def __init__(
        self,
        registry: Registry | None = None,
        cost_model: CostModel | None = None,
        logical_rules=None,
        inter_object_rules=None,
        intra_object_rules=None,
        cost_based: bool = True,
        verify: bool = False,
        score_bounds=None,
        aggregate=None,
        threshold_engine=None,
        pruning=None,
    ) -> None:
        self.registry = registry or default_registry()
        self.cost_model = cost_model or CostModel()
        self.logical_rules = list(DEFAULT_LOGICAL_RULES if logical_rules is None else logical_rules)
        self.inter_object_rules = list(
            DEFAULT_INTER_OBJECT_RULES if inter_object_rules is None else inter_object_rules
        )
        self.intra_object_rules = list(
            intra_rules_for() if intra_object_rules is None else intra_object_rules
        )
        self.cost_based = cost_based
        #: opt-in plan verification: lint the chosen plan and every
        #: trace step, and consult the rule-soundness verdicts
        self.verify = verify
        #: bound-certification inputs (see repro.analysis.bounds): the
        #: declared per-source score intervals, the threshold engine +
        #: aggregate the plan runs under, and the pruning declarations
        #: to certify.  Every optimize() call derives the interval flow
        #: and stamps the report with the ``bound_certified`` plan
        #: property
        self.score_bounds = dict(score_bounds or {})
        self.aggregate = aggregate
        self.threshold_engine = threshold_engine
        self.pruning = tuple(pruning or ())

    def optimize(self, expr: Expr, env=None, verify: bool | None = None) -> OptimizationReport:
        """Rewrite ``expr`` through the three layers and pick the
        cheapest candidate by estimated cost.

        With ``verify=True`` (per call, or set on the optimizer) the
        plan verifier lints the chosen plan and re-checks every trace
        step; findings land in ``report.diagnostics``.
        """
        env = env or {}
        do_verify = self.verify if verify is None else verify
        # in verify mode budget exhaustion becomes an MOA501 diagnostic
        # instead of an exception, so the report can still be inspected
        exhaustion = "mark" if do_verify else "raise"
        env_types = {name: value.stype for name, value in env.items()}
        context = RuleContext(env_types=env_types, registry=self.registry)

        trace: list[TraceEntry] = []
        stages: list[Expr] = [expr]
        current = expr
        with tracer.span("optimizer.optimize", verify=do_verify):
            phases = (
                ("optimizer.logical", self.logical_rules),
                ("optimizer.inter_object", self.inter_object_rules),
                ("optimizer.intra_object", self.intra_object_rules),
                # one more logical pass: inter/intra rewrites can expose new
                # general opportunities (e.g. merged selects after a pushdown)
                ("optimizer.logical_post", self.logical_rules),
            )
            for phase_name, rules in phases:
                with tracer.span(phase_name, rules=len(rules)):
                    current, stage_trace = rewrite_fixpoint(
                        current, rules, context, on_budget_exhausted=exhaustion
                    )
                    tracer.annotate(applications=len(stage_trace))
                trace.extend(stage_trace)
                stages.append(current)

            # unique candidates in stage order
            candidates: list[Expr] = []
            for stage in stages:
                if stage not in candidates:
                    candidates.append(stage)
            with tracer.span("optimizer.cost_choice", candidates=len(candidates)):
                estimates = [
                    (candidate, self.cost_model.estimate_expr(candidate, env, self.registry))
                    for candidate in candidates
                ]
                if self.cost_based:
                    # ties go to the most-rewritten candidate (simpler plans)
                    chosen = min(reversed(estimates), key=lambda pair: pair[1].cost)[0]
                else:
                    chosen = candidates[-1]
            report = OptimizationReport(expr, chosen, trace, estimates)
            with tracer.span("optimizer.certify_bounds"):
                self._grant_bound_properties(report, env_types)
            if do_verify:
                with tracer.span("optimizer.verify"):
                    report.diagnostics = self._verify_report(report, env_types)
            tracer.annotate(rules_fired=len(trace))
        return report

    def all_rules(self):
        """Every rule of the three layers, in application order."""
        return self.logical_rules + self.inter_object_rules + self.intra_object_rules

    def _analysis_context(self, env_types):
        # imported lazily: repro.analysis itself imports the rule
        # framework, so a module-level import would be circular
        from ..analysis import AnalysisContext

        return AnalysisContext(env_types=env_types, registry=self.registry,
                               score_bounds=self.score_bounds,
                               aggregate=self.aggregate,
                               threshold_engine=self.threshold_engine,
                               pruning=self.pruning)

    def _grant_bound_properties(self, report: OptimizationReport, env_types) -> None:
        """Stamp the ``bound_certified`` plan property.

        An uncertified plan keeps running, but carries its
        machine-checkable worst-case error (when one is computable) so
        the quality trade-off is explicit."""
        from ..analysis import certify

        certificate = certify(report.optimized, self._analysis_context(env_types))
        report.bound_certificate = certificate
        report.bound_certified = certificate.certified
        report.worst_case_error = certificate.worst_case

    def _verify_report(self, report: OptimizationReport, env_types):
        """Run the plan verifier over a finished optimization."""
        from ..analysis import (
            DiagnosticReport,
            analyze_expr,
            check_rewrite_step,
            ensure_verified,
            make_diagnostic,
        )

        context = self._analysis_context(env_types)
        diagnostics = DiagnosticReport(source=str(report.original))
        diagnostics.extend(analyze_expr(report.optimized, context))

        rules_by_name = {rule.name: rule for rule in self.all_rules()}
        verdicts = ensure_verified(self.all_rules())
        flagged_rules = set()
        for entry in report.trace:
            if entry.is_budget_marker:
                diagnostics.add(make_diagnostic(
                    "MOA501",
                    f"rewrite stopped at {entry.after} without reaching a "
                    f"fixpoint: non-confluent or cyclic rule set",
                ))
                continue
            rule = rules_by_name.get(entry.rule)
            if entry.before_expr is not None and entry.after_expr is not None:
                diagnostics.extend(check_rewrite_step(
                    entry.before_expr, entry.after_expr, context, rule=rule,
                ))
            verdict = verdicts.get(entry.rule)
            if verdict is not None and not verdict.passed and entry.rule not in flagged_rules:
                flagged_rules.add(entry.rule)
                why = verdict.failures[0] if verdict.failures else "never exercised"
                diagnostics.add(make_diagnostic(
                    "MOA202",
                    f"rule failed soundness verification: {why}",
                    rule=entry.rule, severity="error",
                ))
        return diagnostics

    def execute(self, expr: Expr, env=None):
        """Optimize, evaluate the chosen plan, return (value, report)."""
        report = self.optimize(expr, env)
        value = _evaluate(report.optimized, env, self.registry)
        return value, report
