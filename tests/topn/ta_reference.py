"""The one-access-at-a-time Threshold Algorithm: the test oracle for
:func:`repro.topn.threshold_topn`.

Every round reads one sorted access per live source and completes each
newly seen object at once by ``m - 1`` random accesses, through the
sources' charged scalar protocol.  The library engine reads slabs and
charges in bulk; its items, stats, resume frontier, cost counters and
``ta.round`` events must equal this loop's exactly.  Over block storage
the loop counts the blocks its sorted accesses open
(:func:`opens_block`) and reports them as :func:`block_counts` does.
"""

import numpy as np

from repro.obs import tracer
from repro.topn import SUM, BoundedTopN, TopNResult, require_monotone
from repro.topn.ta import _check_resume


def opens_block(source, rank):
    """1 when sorted access at ``rank`` opens a storage block of
    ``source`` (block storage charges the whole block there), else 0."""
    size = getattr(source, "block_size", None)
    return int(size is not None and rank % size == 0)


def block_counts(sources, blocks_read):
    """The block counts a run over block storage reports in its stats
    and on its span; empty when some source is not block storage."""
    if not all(hasattr(source, "read_block") for source in sources):
        return {}
    counts = {"block_size": sources[0].block_size, "blocks_read": blocks_read,
              "blocks_skipped": sum(source.n_blocks for source in sources) - blocks_read}
    tracer.annotate(**counts)
    return counts


def reference_threshold_topn(sources, n, agg=SUM, *, resume_from=None,
                             capture_state=False, max_depth=None):
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-ta", safe=True)
    require_monotone(agg, "TA")
    agg.validate_arity(len(sources))

    m = len(sources)
    with tracer.span("topn.ta", n=n, m=m, agg=agg.name,
                     objects=max(source.n_objects for source in sources),
                     resumed=resume_from is not None):
        traced = tracer.enabled()
        heap = BoundedTopN(n)
        seen_scores = {}
        first_seen = []
        taus = []
        last_grades = [0.0] * m
        depth = 0
        random_accesses = 0
        blocks_read = 0
        resumed_from = 0
        stop_reason = "threshold"
        threshold = 0.0
        done = False
        if resume_from is not None:
            _check_resume(resume_from, n, m, agg)
            resumed_from = resume_from.n
            seen_scores = dict(zip(resume_from.ids.tolist(), resume_from.scores.tolist()))
            for obj, score in seen_scores.items():
                heap.push(obj, score)
            first_seen = resume_from.first_seen.tolist()
            taus = resume_from.tau.tolist()
            depth = resume_from.depth_next
            threshold = taus[-1] if taus else 0.0
            if resume_from.exhausted:
                done, stop_reason = True, "exhausted"
            elif heap.full and heap.threshold() >= threshold:
                done = True
        ranks_read = depth
        while not done:
            if max_depth is not None and depth >= max_depth:
                stop_reason = "max_depth"
                break
            active = False
            for i, source in enumerate(sources):
                if source.exhausted(depth):
                    last_grades[i] = 0.0
                    continue
                active = True
                obj, grade = source.sorted_access(depth)
                blocks_read += opens_block(source, depth)
                last_grades[i] = grade
                if obj in seen_scores:
                    continue
                grades = [
                    grade if j == i else other.random_access(obj)
                    for j, other in enumerate(sources)
                ]
                random_accesses += m - 1
                score = agg.combine(grades)
                seen_scores[obj] = score
                first_seen.append(depth)
                heap.push(obj, score)
            threshold = agg.combine(last_grades)
            taus.append(threshold)
            if traced:
                tracer.event("ta.round", depth=depth, threshold=threshold,
                             heap_threshold=heap.threshold(),
                             objects_seen=len(seen_scores))
            ranks_read = depth + 1
            if heap.full and heap.threshold() >= threshold:
                break
            if not active:
                stop_reason = "exhausted"
                break
            depth += 1
        tracer.annotate(stop_reason=stop_reason, depth=ranks_read)
        stats = {
            "depth": ranks_read,
            "objects_seen": len(seen_scores),
            "random_accesses": random_accesses,
            "final_threshold": threshold,
            "stop_reason": stop_reason,
            "resumed_from": resumed_from,
        }
        stats.update(block_counts(sources, blocks_read))
        if capture_state:
            from repro.cache.resume import TAResumeState
            stats["resume_state"] = TAResumeState(
                n=n, m_sources=m, agg_name=agg.name,
                ids=np.array(list(seen_scores), dtype=np.int64),
                scores=np.array(list(seen_scores.values()), dtype=np.float64),
                first_seen=np.array(first_seen, dtype=np.int64),
                tau=np.array(taus, dtype=np.float64),
                sorted_units=tuple(getattr(source, "block_size", 1) for source in sources),
                exhausted=(stop_reason == "exhausted"),
                list_lengths=(tuple(source.blocks.n_postings for source in sources)
                              if all(hasattr(source, "read_block") for source in sources)
                              else None),
            )
        return TopNResult(heap.items_sorted(), n, strategy="fagin-ta",
                          safe=True, stats=stats)
