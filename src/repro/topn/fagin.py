"""Fagin's Algorithm (FA) — the original middleware top-N algorithm.

[Fag98/Fag99]: perform sorted access on all m graded lists in
parallel until at least N objects have been seen *in every list*; then
complete the grades of every seen object by random access and return
the best N.  For monotone aggregation functions the result is exactly
the top N ("ending the processing as soon as it is certain that the
required top N answers have been computed" — the paper's Section 2).
"""

from __future__ import annotations

import numpy as np

from ..errors import TopNError
from ..obs import tracer
from .aggregates import AggregateFunction, SUM, require_monotone
from .result import TopNResult, top_items


def fagin_topn(sources: list, n: int, agg: AggregateFunction = SUM) -> TopNResult:
    """Exact top-N over graded sources with Fagin's Algorithm."""
    if not sources:
        raise TopNError("fagin_topn needs at least one source")
    if n <= 0:
        return TopNResult([], max(n, 0), strategy="fagin-fa", safe=True)
    # FA's phase-1 stop ("N objects seen in every list") certifies the
    # answer only for monotone t — same precondition as TA/NRA/CA
    require_monotone(agg, "FA")
    agg.validate_arity(len(sources))

    m = len(sources)
    with tracer.span("topn.fa", n=n, m=m, agg=agg.name,
                     objects=max(source.n_objects for source in sources)):
        traced = tracer.enabled()
        seen_in: dict[int, int] = {}  # obj -> number of lists it was seen in
        seen_in_all = 0
        depth = 0
        with tracer.span("fa.sorted_phase"):
            active = True
            while active and seen_in_all < n:
                active = False
                for source in sources:
                    if source.exhausted(depth):
                        continue
                    active = True
                    obj, _grade = source.sorted_access(depth)
                    count = seen_in.get(obj, 0) + 1
                    seen_in[obj] = count
                    if count == m:
                        seen_in_all += 1
                depth += 1
                if traced:
                    tracer.event("fa.round", depth=depth, seen_in_all=seen_in_all)
                # a source that exhausts means every unseen object grades at its
                # floor there; FA's phase-1 condition can also be met by running
                # out of input on all lists (handled by `active`)
            tracer.annotate(depth=depth, objects_seen=len(seen_in),
                            stop_reason="seen_in_all" if seen_in_all >= n else "exhausted")

        # phase 2: complete grades by random access for every seen
        # object, then cut the best n of them
        ids = np.array(sorted(seen_in), dtype=np.int64)
        with tracer.span("fa.random_phase", objects=len(ids)):
            scores = np.array([agg.combine([source.random_access(obj) for source in sources])
                               for obj in ids.tolist()], dtype=np.float64)
        return TopNResult(
            top_items(ids, scores, n), n, strategy="fagin-fa", safe=True,
            stats={
                "depth": depth,
                "objects_seen": len(ids),
                "random_accesses": len(ids) * m,
            },
        )
