"""No-Random-Access (NRA) algorithm.

For subsystems that only support sorted access (streams, remote
engines), NRA maintains for every seen object a *lower bound* (seen
grades, unseen grades floored at 0) and an *upper bound* (unseen
grades capped at the source's current bottom grade).  It stops when
the N-th best lower bound is at least the upper bound of every other
object — including the "virtual" object never seen anywhere, whose
upper bound is the aggregate of the current bottoms.

NRA guarantees the correct top-N *membership*; reported scores are the
lower bounds at termination (exact when the object was seen
everywhere).  This is the fullest form of the "upper and lower bound
administration" the paper cites from Fagin's work.

The engine reads sorted ranks a slab at a time through the uncharged
bulk reads and evaluates the bounds with NumPy at exactly the depths
the one-access-at-a-time loop checks them (the shared core in
:mod:`repro.topn.bounds`); it then charges that loop's sorted accesses
through the sources.  Answers, stats, cost counters and the
``nra.check`` trace events equal the loop's.  Over block storage the
sorted accesses are charged in whole storage blocks and the stats
carry the block counts, as :func:`~repro.topn.ta.threshold_topn`
documents.
"""

from __future__ import annotations

from ..errors import TopNError
from ..obs import tracer
from .aggregates import AggregateFunction, SUM, require_monotone
from .bounds import run_bounds
from .result import TopNResult
from .ta import block_storage, record_blocks, require_slabs


def nra_topn(sources: list, n: int, agg: AggregateFunction = SUM,
             check_every: int = 16, max_depth: int | None = None, *,
             resume_from=None, capture_state: bool = False,
             cancel=None) -> TopNResult:
    """Top-N by sorted access only (NRA).

    ``check_every`` controls how often the stop condition is evaluated;
    ``max_depth`` optionally caps sorted-access depth (the result is
    then best-effort, still safe in membership if the stop condition
    was met earlier).  ``resume_from`` continues a
    :class:`~repro.cache.resume.BoundResumeState` captured over the
    same sources, aggregate and ``check_every``, at any ``n``, and
    returns what a cold run returns while charging only what the
    capture did not; ``capture_state=True`` stores this run's state
    under ``stats["resume_state"]`` (:mod:`repro.topn.bounds`).
    ``cancel`` is as in :func:`~repro.topn.ta.threshold_topn`; the
    token is checked before every stop check.
    """
    if not sources:
        raise TopNError("nra_topn needs at least one source")
    blocked = block_storage(sources)
    strategy = "fagin-nra-blocked" if blocked else "fagin-nra"
    if n <= 0:
        return TopNResult([], max(n, 0), strategy=strategy, safe=True)
    require_monotone(agg, "NRA")
    agg.validate_arity(len(sources))
    require_slabs(sources, "nra_topn")

    with tracer.span("topn.nra_blocked" if blocked else "topn.nra",
                     n=n, m=len(sources), agg=agg.name, check_every=check_every,
                     objects=max(source.n_objects for source in sources)):
        run = run_bounds(sources, n, agg, "nra_topn", check_every=check_every,
                         max_depth=max_depth, cancel=cancel, resume_from=resume_from,
                         capture_state=capture_state)
        blocks_read = run.charge(sources)
        tracer.annotate(stop_reason=run.stop_reason, depth=run.depth,
                        objects_seen=run.objects_seen)
        stats = {
            "depth": run.depth,
            "objects_seen": run.objects_seen,
            "bottom_aggregate": run.bottom_aggregate,
            "stop_reason": run.stop_reason,
            "bound_checks": run.bound_checks,
        }
        if blocked:
            stats.update(record_blocks(sources, blocks_read))
        if capture_state:
            stats["resume_state"] = run.state
        return TopNResult(run.items, n, strategy=strategy, safe=True, stats=stats)
