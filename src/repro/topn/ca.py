"""The Combined Algorithm (CA): TA/NRA hybrid for costed access.

Fagin's framework (cited by the paper for its upper/lower bound
administration) includes CA for the realistic middleware regime where
a random access costs ``h`` times a sorted access: run NRA-style
bookkeeping on sorted accesses, and only once every ``h`` rounds spend
random accesses — on the most promising incomplete candidate.  With
``h = 1`` CA behaves like an eager TA; as ``h`` grows it degrades
gracefully toward NRA.

The result is the exact top-N set; completed candidates report exact
scores, others their lower bounds.

Like NRA, the engine reads sorted ranks a slab at a time through the
uncharged bulk reads and picks completions and checks the stop rule
with NumPy at exactly the depths the one-access-at-a-time loop does
(:mod:`repro.topn.bounds`); it then charges that loop's sorted and
random accesses through the sources.  Answers, stats, cost counters
and the ``ca.completion`` / ``ca.check`` trace events equal the loop's.
Over block storage the sorted accesses are charged in whole storage
blocks and the stats carry the block counts, as
:func:`~repro.topn.ta.threshold_topn` documents.
"""

from __future__ import annotations

from ..errors import TopNError
from ..obs import tracer
from .aggregates import AggregateFunction, SUM, require_monotone
from .bounds import run_bounds
from .result import TopNResult
from .ta import block_storage, record_blocks, require_slabs


def combined_topn(sources: list, n: int, agg: AggregateFunction = SUM,
                  h: int = 4, check_every: int = 8,
                  max_depth: int | None = None, *,
                  resume_from=None, capture_state: bool = False,
                  cancel=None) -> TopNResult:
    """Exact top-N with CA under random/sorted cost ratio ``h``.

    ``resume_from`` / ``capture_state`` are as in
    :func:`~repro.topn.nra.nra_topn` (the state must also share ``h``).
    ``cancel`` is as in :func:`~repro.topn.ta.threshold_topn`; the
    token is checked before every completion and stop check."""
    if not sources:
        raise TopNError("combined_topn needs at least one source")
    if h < 1:
        raise TopNError(f"cost ratio h must be >= 1, got {h}")
    blocked = block_storage(sources)
    strategy = "fagin-ca-blocked" if blocked else "fagin-ca"
    if n <= 0:
        return TopNResult([], max(n, 0), strategy=strategy, safe=True)
    require_monotone(agg, "CA")
    agg.validate_arity(len(sources))
    require_slabs(sources, "combined_topn")

    with tracer.span("topn.ca_blocked" if blocked else "topn.ca",
                     n=n, m=len(sources), agg=agg.name, h=h,
                     objects=max(source.n_objects for source in sources)):
        run = run_bounds(sources, n, agg, "combined_topn", check_every=check_every,
                         h=h, max_depth=max_depth, cancel=cancel, resume_from=resume_from,
                         capture_state=capture_state)
        blocks_read = run.charge(sources)
        tracer.annotate(stop_reason=run.stop_reason, depth=run.depth,
                        objects_seen=run.objects_seen, completions=run.completions)
        stats = {"depth": run.depth, "objects_seen": run.objects_seen,
                 "completions": run.completions, "h": h,
                 "stop_reason": run.stop_reason,
                 "bottom_aggregate": run.bottom_aggregate,
                 "bound_checks": run.bound_checks}
        if blocked:
            stats.update(record_blocks(sources, blocks_read))
        if capture_state:
            stats["resume_state"] = run.state
        return TopNResult(run.items, n, strategy=strategy, safe=True, stats=stats)
