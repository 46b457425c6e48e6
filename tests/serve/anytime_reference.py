"""Test oracles for :class:`repro.serve.session.AnytimeRunner`'s streams.

:class:`ChainedTARunner` is the chained anytime TA stream: every step
re-enters :func:`repro.topn.threshold_topn` with the previous step's
captured frontier and a depth cap that doubles from ``chunk_depth``,
and answers with that capped run's own result.  The runner advances
one TA run slab by slab and cuts the same chunks from it; chunk for
chunk, its frames and the stream's summed charges must equal this
chain's.

:class:`CappedColdRunner` answers every NRA or CA chunk with a cold
run capped at the chunk's depth.  The runner resumes each chunk from
the previous one's state instead; its frames must equal these, and
each chunk must charge the difference between successive cold runs.
"""

from repro.intervals import ThresholdBound
from repro.serve.session import Chunk
from repro.topn import SUM, combined_topn, nra_topn, threshold_topn


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


class CappedColdRunner:
    """One cold, capped NRA or CA call per chunk."""

    def __init__(self, sources, n, algorithm, agg=SUM, *, epoch=0, chunk_depth=32):
        self.engine = nra_topn if algorithm == "nra" else combined_topn
        self.sources = sources
        self.n = n
        self.algorithm = algorithm
        self.agg = agg
        self.epoch = epoch
        self._depth = chunk_depth
        self._seq = 0
        self._blocks = 0
        self._last = None

    @property
    def finished(self):
        return self._last is not None and self._last.final

    def step(self):
        if self.finished:
            return self._last
        result = self.engine(self.sources, self.n, self.agg, max_depth=self._depth)
        stats = dict(result.stats)
        if "blocks_read" in stats:
            # a chunk reports the blocks its own run read
            read = stats["blocks_read"] - self._blocks
            self._blocks = stats["blocks_read"]
            stats["blocks_skipped"] += stats["blocks_read"] - read
            stats["blocks_read"] = read
        final = stats["stop_reason"] != "max_depth"
        items = [(item.obj_id, item.score) for item in result.items]
        if final and items:
            bound = ThresholdBound(n=len(items), key=(-items[-1][1], items[-1][0]),
                                   epoch=self.epoch)
        else:
            bound = ThresholdBound(n=len(items), key=(-float(stats["bottom_aggregate"]), -1),
                                   epoch=self.epoch)
        chunk = Chunk(seq=self._seq, items=items, depth=int(stats["depth"]), final=final,
                      certified=final, bound=bound, epoch=self.epoch,
                      algorithm=self.algorithm, stats=stats)
        self._seq += 1
        self._last = chunk
        if not final:
            self._depth *= 2
        return chunk
