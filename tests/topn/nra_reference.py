"""The one-access-at-a-time NRA loop: the test oracle for
:func:`repro.topn.nra_topn`.

Every round reads one sorted access per live source through the
sources' charged scalar protocol, and every ``check_every`` rounds the
stop condition rebuilds both bounds of every seen object.  The library
engine reads slabs and charges afterwards; its items, stats, cost
counters and ``nra.check`` events must equal this loop's exactly, the
block counts over block storage included.
"""

import math

from repro.obs import tracer
from repro.topn import SUM, RankedItem, TopNResult, require_monotone

from .ta_reference import block_counts, opens_block


def reference_nra_topn(sources, n, agg=SUM, check_every=16, max_depth=None):
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-nra", safe=True)
    require_monotone(agg, "NRA")
    agg.validate_arity(len(sources))

    m = len(sources)
    with tracer.span("topn.nra", n=n, m=m, agg=agg.name, check_every=check_every,
                     objects=max(source.n_objects for source in sources)):
        traced = tracer.enabled()
        grades = {}
        bottoms = [math.inf] * m  # current last sorted-access grade per source
        depth = 0
        blocks_read = 0
        stopped = False
        stop_reason = "exhausted"
        bound_checks = 0
        while not stopped:
            if max_depth is not None and depth >= max_depth:
                stop_reason = "max_depth"
                break
            active = False
            for i, source in enumerate(sources):
                if source.exhausted(depth):
                    bottoms[i] = 0.0
                    continue
                active = True
                obj, grade = source.sorted_access(depth)
                blocks_read += opens_block(source, depth)
                bottoms[i] = grade
                grades.setdefault(obj, [None] * m)[i] = grade
            depth += 1
            if not active:
                break
            if depth % check_every == 0:
                bound_checks += 1
                stopped = stop_condition_met(grades, bottoms, n, agg)
                if stopped:
                    stop_reason = "bounds"
                if traced:
                    tracer.event("nra.check", depth=depth, stopped=stopped,
                                 objects_seen=len(grades))
        effective_bottoms = [0.0 if b is math.inf else b for b in bottoms]

        scored = []
        for obj, seen in grades.items():
            lower = agg.combine([0.0 if g is None else g for g in seen])
            scored.append((lower, obj))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        items = [RankedItem(obj, lower) for lower, obj in scored[:n]]
        tracer.annotate(stop_reason=stop_reason, depth=depth,
                        objects_seen=len(grades))
        stats = {
            "depth": depth,
            "objects_seen": len(grades),
            "bottom_aggregate": agg.combine(effective_bottoms),
            "stop_reason": stop_reason,
            "bound_checks": bound_checks,
        }
        stats.update(block_counts(sources, blocks_read))
        return TopNResult(items, n, strategy="fagin-nra", safe=True, stats=stats)


def stop_condition_met(grades, bottoms, n, agg):
    """True when the N-th best lower bound dominates every other
    object's upper bound (and the virtual unseen object's)."""
    effective_bottoms = [0.0 if b is math.inf else b for b in bottoms]
    bounds = []
    for obj, seen in grades.items():
        lower = agg.combine([0.0 if g is None else g for g in seen])
        upper = agg.combine([
            effective_bottoms[i] if g is None else g for i, g in enumerate(seen)
        ])
        bounds.append((lower, upper, obj))
    if len(bounds) < n:
        return False
    bounds.sort(key=lambda triple: (-triple[0], triple[2]))
    top, rest = bounds[:n], bounds[n:]
    nth_lower = top[-1][0]
    # the virtual never-seen object
    virtual_upper = agg.combine(effective_bottoms)
    max_rest_upper = max((upper for _, upper, _ in rest), default=-math.inf)
    return nth_lower >= max(max_rest_upper, virtual_upper)
