"""The chained anytime TA stream: the test oracle for
:class:`repro.serve.session.AnytimeRunner`'s TA streams.

Every step re-enters :func:`repro.topn.threshold_topn` with the previous
step's captured frontier and a depth cap that doubles from
``chunk_depth``, and answers with that capped run's own result.  The
runner advances one TA run slab by slab and cuts the same chunks from
it; chunk for chunk, its frames and the stream's summed charges must
equal this chain's.
"""

from repro.intervals import ThresholdBound
from repro.serve.session import Chunk
from repro.topn import SUM, threshold_topn


class ChainedTARunner:
    """One capped, resumed ``threshold_topn`` call per chunk."""

    def __init__(self, sources, n, agg=SUM, *, epoch=0, chunk_depth=32):
        self.sources = sources
        self.n = n
        self.agg = agg
        self.epoch = epoch
        self.calls = 0
        self._depth = chunk_depth
        self._seq = 0
        self._state = None
        self._last = None

    @property
    def finished(self):
        return self._last is not None and self._last.final

    def step(self):
        if self.finished:
            return self._last
        result = threshold_topn(self.sources, self.n, self.agg,
                                resume_from=self._state, capture_state=True,
                                max_depth=self._depth)
        self.calls += 1
        self._state = result.stats.pop("resume_state")
        final = result.stats["stop_reason"] != "max_depth"
        chunk = Chunk(
            seq=self._seq,
            items=[(item.obj_id, item.score) for item in result.items],
            depth=int(result.stats["depth"]),
            final=final,
            certified=final,
            bound=self._bound(result, final),
            epoch=self.epoch,
            algorithm="ta",
            stats=result.stats,
        )
        self._seq += 1
        self._last = chunk
        if not final:
            self._depth *= 2
        return chunk

    def _bound(self, result, final):
        if final and result.items:
            tail = result.items[-1]
            return ThresholdBound(n=len(result.items),
                                  key=(-tail.score, tail.obj_id), epoch=self.epoch)
        return ThresholdBound(n=len(result.items),
                              key=(-float(result.stats["final_threshold"]), -1),
                              epoch=self.epoch)
