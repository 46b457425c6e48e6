"""The centralized cost model (Step 3 of the paper).

The paper argues that handling all data types in one algebra "allows
us to keep the cost model much simpler": one model costs every plan,
no delegation to sub-systems.  This module implements that model over
*flattened physical plans*: each physical operator gets an analytic
formula in abstract cost units mirroring the kernel's charging rules
(tuple reads/writes, comparisons, log-probes for order-aware paths),
parameterized by a few constants and selectivity heuristics.

Estimates consume the same property the execution engine does —
sortedness of the inputs — so the model correctly predicts that the
rewritten Example-1 plan (select pushed to the sorted LIST) is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..algebra import physical
from ..algebra.flatten import flatten
from ..algebra.types import SetType
from ..algebra.values import CollectionValue
from ..errors import CostModelError


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output cardinality, cumulative cost, ordering and
    (zone-map style) value bounds of the output column."""

    rows: float
    cost: float
    sorted_asc: bool = False
    sorted_desc: bool = False
    min_value: float | None = None
    max_value: float | None = None


class CostModel:
    """Analytic cost model over physical operator trees."""

    def __init__(
        self,
        tuple_read: float = 1.0,
        tuple_write: float = 0.5,
        comparison: float = 0.25,
        select_selectivity: float = 0.33,
        dedup_ratio: float = 0.6,
        default_rows: float = 1000.0,
    ) -> None:
        self.tuple_read = tuple_read
        self.tuple_write = tuple_write
        self.comparison = comparison
        self.select_selectivity = select_selectivity
        self.dedup_ratio = dedup_ratio
        self.default_rows = default_rows

    # -- entry points -----------------------------------------------------

    def estimate_plan(self, plan: physical.PhysicalPlan, env=None) -> PlanEstimate:
        """Estimate a flattened plan against an (optional) environment
        providing actual input cardinalities."""
        return self._estimate(plan.root, env or {})

    def estimate_expr(self, expr, env=None, registry=None) -> PlanEstimate:
        """Flatten and estimate a logical expression."""
        env = env or {}
        env_types = {name: value.stype for name, value in env.items()}
        plan = flatten(expr, env_types, registry)
        return self.estimate_plan(plan, env)

    # -- dispatch ------------------------------------------------------------

    def _estimate(self, op: physical.PhysicalOp, env) -> PlanEstimate:
        children = [self._estimate(child, env) for child in op.children]
        if isinstance(op, physical.SourceVar):
            return self._source_estimate(env.get(op.name))
        if isinstance(op, physical.SourceLiteral):
            return self._source_estimate(op.value)
        if isinstance(op, physical.RangeSelect):
            return self._range_select(op, children[0])
        if isinstance(op, physical.Convert):
            return self._convert(op, children[0])
        if isinstance(op, physical.Sort):
            return self._sort(op, children[0])
        if isinstance(op, physical.TopN):
            return self._topn(op, children[0])
        if isinstance(op, physical.Slice):
            return self._slice(op, children[0])
        if isinstance(op, physical.Aggregate):
            child = children[0]
            cost = child.cost if op.which == "count" else child.cost + child.rows * self.tuple_read
            return PlanEstimate(rows=1.0, cost=cost)
        if isinstance(op, physical.ProjectColumn):
            child = children[0]
            return PlanEstimate(
                rows=child.rows,
                cost=child.cost + child.rows * (self.tuple_read + self.tuple_write),
            )
        if isinstance(op, physical.Concat):
            rows = children[0].rows + children[1].rows
            cost = children[0].cost + children[1].cost + rows * (self.tuple_read + self.tuple_write)
            return PlanEstimate(rows=rows, cost=cost)
        if isinstance(op, physical.SetOp):
            return self._setop(op, children[0], children[1])
        if isinstance(op, physical.GetField):
            return children[0]
        if isinstance(op, physical.Reverse):
            child = children[0]
            return PlanEstimate(
                rows=child.rows,
                cost=child.cost + child.rows * (self.tuple_read + self.tuple_write),
                sorted_asc=child.sorted_desc, sorted_desc=child.sorted_asc,
                min_value=child.min_value, max_value=child.max_value,
            )
        if isinstance(op, physical.Contains):
            child = children[0]
            if child.sorted_asc:
                probe = 2 * self._log2(child.rows) * self.comparison
            else:
                probe = child.rows * (self.tuple_read + self.comparison)
            return PlanEstimate(rows=1.0, cost=child.cost + probe)
        if isinstance(op, physical.GetAt):
            child = children[0]
            return PlanEstimate(rows=1.0, cost=child.cost + self.tuple_read)
        raise CostModelError(f"no cost formula for operator {op.label()!r}")

    # -- formulas ---------------------------------------------------------------

    def _source_estimate(self, value) -> PlanEstimate:
        if isinstance(value, CollectionValue):
            rows = float(value.count)
            sorted_asc = sorted_desc = False
            min_value = max_value = None
            if value.is_atomic_elements:
                bat = value.bat
                sorted_asc = bat.tail_sorted
                sorted_desc = bat.tail_sorted_desc
                # zone-map statistics: column min/max, like any DBMS
                # keeps for its base data
                if rows and bat.tail_dtype_kind in ("i", "f"):
                    min_value = float(bat.tail.min())
                    max_value = float(bat.tail.max())
            return PlanEstimate(rows=rows, cost=0.0,
                                sorted_asc=sorted_asc, sorted_desc=sorted_desc,
                                min_value=min_value, max_value=max_value)
        return PlanEstimate(rows=self.default_rows, cost=0.0)

    def _log2(self, n: float) -> float:
        return math.log2(n) if n > 2 else 1.0

    def _selectivity(self, op: physical.RangeSelect, child: PlanEstimate) -> float:
        """Uniform-distribution selectivity from zone-map stats, or the
        configured default when bounds/stats are unavailable."""
        if isinstance(op.lo, str) or isinstance(op.hi, str):
            return self.select_selectivity
        if child.min_value is None or child.max_value is None:
            return self.select_selectivity
        span = child.max_value - child.min_value
        if span <= 0:
            inside = (op.lo is None or op.lo <= child.min_value) and (
                op.hi is None or op.hi >= child.max_value
            )
            return 1.0 if inside else 0.0
        lo = child.min_value if op.lo is None else max(float(op.lo), child.min_value)
        hi = child.max_value if op.hi is None else min(float(op.hi), child.max_value)
        return max(hi - lo, 0.0) / span

    def _range_select(self, op: physical.RangeSelect, child: PlanEstimate) -> PlanEstimate:
        selectivity = self._selectivity(op, child)
        out = max(child.rows * selectivity, 1.0) if child.rows else 0.0
        if child.sorted_asc:
            cost = (
                2 * self._log2(child.rows) * self.comparison
                + out * (self.tuple_read + self.tuple_write)
            )
        else:
            cost = (
                child.rows * (self.tuple_read + self.comparison)
                + out * self.tuple_write
            )
        new_min = child.min_value if op.lo is None or child.min_value is None else max(
            child.min_value, float(op.lo) if not isinstance(op.lo, str) else child.min_value
        )
        new_max = child.max_value if op.hi is None or child.max_value is None else min(
            child.max_value, float(op.hi) if not isinstance(op.hi, str) else child.max_value
        )
        return PlanEstimate(rows=out, cost=child.cost + cost,
                            sorted_asc=child.sorted_asc, sorted_desc=child.sorted_desc,
                            min_value=new_min, max_value=new_max)

    def _convert(self, op: physical.Convert, child: PlanEstimate) -> PlanEstimate:
        if isinstance(op.result_type, SetType):
            rows = child.rows * self.dedup_ratio
            cost = child.rows * (self.tuple_read + self.comparison) + rows * self.tuple_write
            return PlanEstimate(rows=rows, cost=child.cost + cost, sorted_asc=True)
        # bag conversion is physically the identity, but the ordering
        # knowledge is forgotten (no order exists on a BAG), so later
        # operators cannot plan order-aware fast paths; the value
        # *multiset* is unchanged, so the zone map stays valid
        return PlanEstimate(rows=child.rows, cost=child.cost,
                            min_value=child.min_value, max_value=child.max_value)

    def _sort(self, op: physical.Sort, child: PlanEstimate) -> PlanEstimate:
        already = child.sorted_desc if op.descending else child.sorted_asc
        if already and op.column is None:
            return child
        n = child.rows
        cost = n * self._log2(n) * self.comparison + n * (self.tuple_read + self.tuple_write)
        # sorting permutes, it does not change the value multiset:
        # the zone map stays valid
        return PlanEstimate(rows=n, cost=child.cost + cost,
                            sorted_asc=not op.descending, sorted_desc=op.descending,
                            min_value=child.min_value, max_value=child.max_value)

    def _topn(self, op: physical.TopN, child: PlanEstimate) -> PlanEstimate:
        out = min(float(op.n), child.rows)
        already = child.sorted_desc if op.descending else child.sorted_asc
        if already and op.column is None:
            cost = out * (self.tuple_read + self.tuple_write)
        else:
            cost = (
                child.rows * (self.tuple_read + self.comparison)
                + out * self._log2(max(out, 2)) * self.comparison
                + out * self.tuple_write
            )
        return PlanEstimate(rows=out, cost=child.cost + cost,
                            sorted_asc=not op.descending, sorted_desc=op.descending)

    def _slice(self, op: physical.Slice, child: PlanEstimate) -> PlanEstimate:
        out = max(min(float(op.count), child.rows - op.offset), 0.0)
        cost = out * (self.tuple_read + self.tuple_write)
        return PlanEstimate(rows=out, cost=child.cost + cost,
                            sorted_asc=child.sorted_asc, sorted_desc=child.sorted_desc)

    def _setop(self, op: physical.SetOp, a: PlanEstimate, b: PlanEstimate) -> PlanEstimate:
        if op.which == "union":
            rows = a.rows + b.rows * 0.5
        elif op.which == "intersect":
            rows = min(a.rows, b.rows) * 0.5
        else:
            rows = a.rows * 0.5
        cost = (a.rows + b.rows) * (self.tuple_read + self.comparison) + rows * self.tuple_write
        return PlanEstimate(rows=rows, cost=a.cost + b.cost + cost, sorted_asc=True)
