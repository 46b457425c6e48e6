"""Search results and measurement sessions.

:class:`SearchResult` decorates a :class:`~repro.topn.result.TopNResult`
with the cost snapshot and wall time of the query.  :class:`QuerySession`
batches a query set through a database under one strategy and
aggregates cost and quality — the workhorse of the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..quality import average_precision, mean_over_queries, overlap_at, precision_at
from ..storage.stats import CostCounter
from ..topn.result import TopNResult


@dataclass
class SearchResult:
    """One query's answer plus its measured cost."""

    result: TopNResult
    term_ids: list[int]
    cost: CostCounter
    elapsed_seconds: float
    collection: object = None

    @property
    def hits(self):
        return self.result.items

    @property
    def doc_ids(self) -> list[int]:
        return self.result.doc_ids

    @property
    def safe(self) -> bool:
        return self.result.safe

    def __len__(self) -> int:
        return len(self.result)

    def terms(self) -> list[str]:
        """Query terms as strings (when a collection is attached)."""
        if self.collection is None:
            return [str(t) for t in self.term_ids]
        return [self.collection.term_strings[t] for t in self.term_ids]

    def describe(self) -> str:
        lines = [
            f"strategy={self.result.strategy} safe={self.result.safe} "
            f"n={len(self.result)} time={self.elapsed_seconds * 1000:.1f}ms "
            f"tuples_read={self.cost.tuples_read} pages={self.cost.page_reads}"
        ]
        for rank, item in enumerate(self.result, start=1):
            lines.append(f"  {rank:>3}. doc {item.obj_id:<8} score {item.score:.4f}")
        return "\n".join(lines)


@dataclass
class SessionReport:
    """Aggregated measurements of one strategy over a query set."""

    strategy: str
    n_queries: int
    total_cost: CostCounter
    total_seconds: float
    mean_average_precision: float | None = None
    mean_precision_at_n: float | None = None
    mean_overlap_vs_reference: float | None = None
    per_query: list[dict] = field(default_factory=list)

    @property
    def tuples_read(self) -> int:
        return self.total_cost.tuples_read

    @property
    def page_reads(self) -> int:
        return self.total_cost.page_reads

    @property
    def modeled_seconds(self) -> float:
        """Deterministic modeled execution time (see
        :meth:`repro.storage.stats.CostCounter.modeled_seconds`)."""
        return self.total_cost.modeled_seconds()


class QuerySession:
    """Runs a query set against a database and measures it."""

    def __init__(self, database) -> None:
        self.database = database

    def run(
        self,
        query_set,
        n: int = 20,
        strategy=None,
        reference_rankings: dict[int, list[int]] | None = None,
        cold_buffer: bool = True,
    ) -> SessionReport:
        """Execute every query; aggregate cost, wall time and quality.

        ``reference_rankings`` (query id → exact top doc ids) enables
        the overlap metric against a reference strategy.
        ``cold_buffer`` (default) flushes the simulated buffer pool
        before the run so strategies are compared from the same cold
        state regardless of what ran before; queries within the run
        still warm the pool for each other, as in a real system.
        """
        if cold_buffer:
            from ..storage.buffer import get_buffer_manager

            get_buffer_manager().flush()
        total_cost = CostCounter()
        total_seconds = 0.0
        aps, pns, overlaps = [], [], []
        per_query = []
        strategy_name = None
        for query in query_set:
            result = self.database.search(list(query.term_ids), n=n, strategy=strategy)
            strategy_name = result.result.strategy
            total_cost.add(result.cost)
            total_seconds += result.elapsed_seconds
            relevant = query_set.relevant(query.query_id)
            entry = {
                "query_id": query.query_id,
                "tuples_read": result.cost.tuples_read,
                "elapsed": result.elapsed_seconds,
            }
            if relevant:
                entry["average_precision"] = average_precision(result.doc_ids, relevant, cutoff=n)
                entry["precision_at_n"] = precision_at(result.doc_ids, relevant, n)
                aps.append(entry["average_precision"])
                pns.append(entry["precision_at_n"])
            if reference_rankings is not None:
                entry["overlap"] = overlap_at(
                    result.doc_ids, reference_rankings[query.query_id], n
                )
                overlaps.append(entry["overlap"])
            per_query.append(entry)
        return SessionReport(
            strategy=strategy_name or str(strategy),
            n_queries=len(per_query),
            total_cost=total_cost,
            total_seconds=total_seconds,
            mean_average_precision=mean_over_queries(aps) if aps else None,
            mean_precision_at_n=mean_over_queries(pns) if pns else None,
            mean_overlap_vs_reference=mean_over_queries(overlaps) if overlaps else None,
            per_query=per_query,
        )

    def reference_rankings(self, query_set, n: int = 20) -> dict[int, list[int]]:
        """Exact (naive) top-n doc ids per query, as overlap reference."""
        out = {}
        for query in query_set:
            result = self.database.search(list(query.term_ids), n=n, strategy="naive")
            out[query.query_id] = result.doc_ids
        return out
