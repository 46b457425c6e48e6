"""The three-layer optimizer (paper Steps 2 and 3): general logical
rules, the novel inter-object layer coordinating rewrites across
extensions, E-ADT-style intra-object rules, and a centralized cost
model driving plan choice."""

from .cost import CostModel, PlanEstimate
from .interobject import (
    DEFAULT_INTER_OBJECT_RULES,
    AggregateThroughConversion,
    PushSelectThroughConversion,
    PushSortThroughConversion,
    PushTopNThroughConversion,
    SliceOfSortIsTopN,
)
from .intraobject import intra_rules_for, register_intra_rule
from .logical import DEFAULT_LOGICAL_RULES, MergeSelects, SliceOfSlice, SortIdempotent
from .pipeline import OptimizationReport, Optimizer
from .rules import (
    BUDGET_EXHAUSTED_RULE,
    LAYERS,
    RewriteRule,
    RuleContext,
    TraceEntry,
    rewrite_fixpoint,
)

__all__ = [
    "AggregateThroughConversion",
    "BUDGET_EXHAUSTED_RULE",
    "CostModel",
    "DEFAULT_INTER_OBJECT_RULES",
    "DEFAULT_LOGICAL_RULES",
    "LAYERS",
    "MergeSelects",
    "OptimizationReport",
    "Optimizer",
    "PlanEstimate",
    "PushSelectThroughConversion",
    "PushSortThroughConversion",
    "PushTopNThroughConversion",
    "RewriteRule",
    "RuleContext",
    "SliceOfSlice",
    "SliceOfSortIsTopN",
    "SortIdempotent",
    "TraceEntry",
    "intra_rules_for",
    "register_intra_rule",
]
