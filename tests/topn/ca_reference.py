"""The one-access-at-a-time CA loop: the test oracle for
:func:`repro.topn.combined_topn`.

Every round reads one sorted access per live source through the
sources' charged scalar protocol; every ``h`` rounds the incomplete
object with the best ``(upper bound, smallest id)`` key is completed by
random access, and every ``check_every`` rounds the stop condition
rebuilds both bounds of every seen object.  The library engine reads
slabs and charges afterwards; its items, stats, cost counters and
``ca.completion`` / ``ca.check`` events must equal this loop's exactly,
the block counts over block storage included.
"""

import math

from repro.obs import tracer
from repro.topn import SUM, RankedItem, TopNResult, require_monotone

from .ta_reference import block_counts, opens_block


def reference_combined_topn(sources, n, agg=SUM, h=4, check_every=8, max_depth=None):
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ca", safe=True)
    require_monotone(agg, "CA")
    agg.validate_arity(len(sources))

    m = len(sources)
    traced = tracer.enabled()
    grades = {}
    bottoms = [math.inf] * m
    depth = 0
    blocks_read = 0
    completions = 0

    def effective_bottoms():
        return [0.0 if b is math.inf else b for b in bottoms]

    def lower(seen):
        return agg.combine([0.0 if g is None else g for g in seen])

    def upper(seen):
        eb = effective_bottoms()
        return agg.combine([eb[i] if g is None else g for i, g in enumerate(seen)])

    def stop_condition():
        bounds = sorted(
            ((lower(seen), upper(seen), obj) for obj, seen in grades.items()),
            key=lambda t: (-t[0], t[2]),
        )
        if len(bounds) < n:
            return False
        top, rest = bounds[:n], bounds[n:]
        nth_lower = top[-1][0]
        virtual = agg.combine(effective_bottoms())
        max_rest = max((u for _, u, _ in rest), default=-math.inf)
        return nth_lower >= max(max_rest, virtual)

    with tracer.span("topn.ca", n=n, m=m, agg=agg.name, h=h,
                     objects=max(source.n_objects for source in sources)):
        stop_reason = "exhausted"
        bound_checks = 0
        while True:
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
            if depth % h == 0 and grades:
                # complete the most promising incomplete candidate
                best_obj, best_seen = None, None
                best_key = None
                for obj, seen in grades.items():
                    if None not in seen:
                        continue
                    key = (upper(seen), -obj)
                    if best_key is None or key > best_key:
                        best_key, best_obj, best_seen = key, obj, seen
                if best_obj is not None:
                    for i, grade in enumerate(best_seen):
                        if grade is None:
                            best_seen[i] = sources[i].random_access(best_obj)
                    completions += 1
                    if traced:
                        tracer.event("ca.completion", depth=depth, obj=best_obj)
            if not active:
                break
            if depth % check_every == 0:
                bound_checks += 1
                stopped = stop_condition()
                if traced:
                    tracer.event("ca.check", depth=depth, stopped=stopped,
                                 objects_seen=len(grades))
                if stopped:
                    stop_reason = "bounds"
                    break

        scored = sorted(
            ((lower(seen), obj) for obj, seen in grades.items()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        items = [RankedItem(obj, score) for score, obj in scored[:n]]
        tracer.annotate(stop_reason=stop_reason, depth=depth,
                        objects_seen=len(grades), completions=completions)
        stats = {"depth": depth, "objects_seen": len(grades),
                 "completions": completions, "h": h, "stop_reason": stop_reason,
                 "bottom_aggregate": agg.combine(effective_bottoms()),
                 "bound_checks": bound_checks}
        stats.update(block_counts(sources, blocks_read))
        return TopNResult(items, n, strategy="fagin-ca", safe=True, stats=stats)
