"""Fragment-aware query execution strategies (Step 1 of the paper).

Four strategies over one :class:`~repro.fragmentation.fragmenter.FragmentedIndex`:

``UNFRAGMENTED``
    the baseline: full index, naive evaluation;
``UNSAFE_SMALL``
    process only the small (interesting) fragment; terms living in the
    large fragment are skipped entirely.  Fast — it touches ~5% of the
    postings — but *unsafe*: answer quality drops;
``SAFE_SWITCH``
    process the small fragment, then run the early
    :class:`~repro.fragmentation.quality_check.QualityCheck`; when the
    check fires, also process the query's large-fragment terms — which
    requires *scanning* the unindexed large fragment, so quality is
    restored at a substantial speed cost;
``INDEXED``
    like SAFE_SWITCH, but the large fragment carries the paper's
    non-dense index, so the switch fetches only the needed postings —
    "extra computations while still decreasing execution time".
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import TopNError
from ..ir.ranking import ScoringModel
from ..obs import tracer
from ..storage import kernel, stats
from ..storage.bat import BAT
from ..topn.naive import naive_topn
from ..topn.result import TopNResult
from .fragmenter import FragmentedIndex
from .quality_check import QualityCheck


class Strategy(enum.Enum):
    """Fragment-aware execution strategies."""

    UNFRAGMENTED = "unfragmented"
    UNSAFE_SMALL = "unsafe-small"
    SAFE_SWITCH = "safe-switch"
    INDEXED = "indexed"


class FragmentedExecutor:
    """Executes top-N queries against a fragmented inverted file."""

    def __init__(
        self,
        fragmented: FragmentedIndex,
        model: ScoringModel,
        quality_check: QualityCheck | None = None,
    ) -> None:
        self.fragmented = fragmented
        self.model = model
        self.quality_check = quality_check or QualityCheck()
        if not fragmented.large.has_index:
            # INDEXED strategy builds it lazily on first use
            self._index_built = False
        else:
            self._index_built = True

    # -- public API ---------------------------------------------------------

    def query(self, tids: list[int], n: int, strategy: Strategy) -> TopNResult:
        """Run a top-N query under the given strategy."""
        if n <= 0:
            raise TopNError(f"n must be positive, got {n}")
        with tracer.span("frag.query", strategy=strategy.value, n=n, terms=len(tids)):
            if strategy is Strategy.UNFRAGMENTED:
                return self._unfragmented(tids, n)
            if strategy is Strategy.UNSAFE_SMALL:
                return self._unsafe_small(tids, n)
            if strategy is Strategy.SAFE_SWITCH:
                return self._with_switch(tids, n, use_index=False)
            if strategy is Strategy.INDEXED:
                return self._with_switch(tids, n, use_index=True)
        raise TopNError(f"unknown strategy {strategy!r}")

    # -- strategies ------------------------------------------------------------

    def _unfragmented(self, tids: list[int], n: int) -> TopNResult:
        result = naive_topn(self.fragmented.full, tids, self.model, n)
        result.stats["strategy"] = Strategy.UNFRAGMENTED.value
        return result

    def _small_fragment_scores(self, tids_small: list[int]) -> tuple[dict, np.ndarray, np.ndarray]:
        """Small-fragment partial scores: ``(partials by term id,
        accumulator over all docs, candidate mask)``."""
        index = self.fragmented.small
        with tracer.span("frag.small_fragment", terms=len(tids_small)):
            parts = {}
            for tid in tids_small:
                doc_ids, tfs = index.postings(tid)
                if len(doc_ids):
                    parts[tid] = (doc_ids, self.model.partial_scores(index, tid, doc_ids, tfs))
            accumulator = np.zeros(index.n_docs, dtype=np.float64)
            touched = np.zeros(index.n_docs, dtype=bool)
            self._accumulate(parts, tids_small, accumulator, touched)
            return parts, accumulator, touched

    @staticmethod
    def _accumulate(parts: dict, tids: list[int], accumulator: np.ndarray,
                    touched: np.ndarray) -> None:
        """Add each term's ``(doc_ids, partials)`` in the order of
        ``tids``, as :func:`~repro.ir.ranking.score_all` does."""
        for tid in tids:
            part = parts.get(tid)
            if part is not None:
                np.add.at(accumulator, *part)
                touched[part[0]] = True

    def _finish(self, accumulator, touched, n, strategy_name, extra_stats) -> TopNResult:
        candidates = np.nonzero(touched)[0]
        stats.charge_tuples_written(len(candidates))
        scores = BAT(accumulator[candidates], head=candidates.astype(np.int64), head_key=True)
        top = kernel.topn_tail(scores, n, descending=True)
        safe = strategy_name != Strategy.UNSAFE_SMALL.value
        result = TopNResult.from_bat(top, n, strategy=strategy_name, safe=safe,
                                     stats=extra_stats)
        result.stats["candidates"] = len(candidates)
        return result

    def _unsafe_small(self, tids: list[int], n: int) -> TopNResult:
        tids_small, tids_large = self.fragmented.split_query(tids)
        _, accumulator, touched = self._small_fragment_scores(tids_small)
        return self._finish(
            accumulator, touched, n, Strategy.UNSAFE_SMALL.value,
            {
                "strategy": Strategy.UNSAFE_SMALL.value,
                "terms_small": len(tids_small),
                "terms_skipped": len(tids_large),
            },
        )

    def _with_switch(self, tids: list[int], n: int, use_index: bool) -> TopNResult:
        tids_small, tids_large = self.fragmented.split_query(tids)
        parts, accumulator, touched = self._small_fragment_scores(tids_small)

        # provisional N-th score for the early quality check
        positive = accumulator[touched] if touched.any() else np.empty(0)
        found = int(touched.sum())
        if found >= n:
            nth_score = float(np.partition(positive, len(positive) - n)[len(positive) - n])
        else:
            nth_score = 0.0
        with tracer.span("frag.quality_check", terms_large=len(tids_large)):
            decision = self.quality_check.decide(
                self.fragmented.full, self.model, tids_large, nth_score, found, n
            )
            tracer.annotate(switch=decision.switch, missing_mass=decision.missing_mass)

        switched = False
        if decision.switch and tids_large:
            switched = True
            with tracer.span("frag.switch", use_index=use_index,
                             terms_large=len(tids_large)):
                if use_index:
                    if not self.fragmented.large.has_index:
                        self.fragmented.large.build_sparse_index()
                    postings = self.fragmented.large.indexed_postings(tids_large)
                else:
                    postings = self.fragmented.large.scan_postings(tids_large)
                # the small-fragment sums are redone in query-term order
                # together with the large-fragment partials, as the
                # unfragmented evaluation adds them, so that a switched
                # answer equals it bit for bit
                for doc_ids, _ in parts.values():
                    accumulator[doc_ids] = 0.0
                for tid, (doc_ids, tfs) in postings.items():
                    if len(doc_ids):
                        parts[tid] = (doc_ids, self.model.partial_scores(
                            self.fragmented.full, tid, doc_ids, tfs))
                self._accumulate(parts, tids, accumulator, touched)

        name = Strategy.INDEXED.value if use_index else Strategy.SAFE_SWITCH.value
        result = self._finish(
            accumulator, touched, n, name,
            {
                "strategy": name,
                "terms_small": len(tids_small),
                "terms_large": len(tids_large),
                "switched": switched,
                "missing_mass": decision.missing_mass,
                "nth_score_small": decision.nth_score,
            },
        )
        # the answer is certified when the switch fired, when no term
        # was skipped, or when no document outside the small-fragment
        # top n can gain enough from the skipped terms to enter it:
        # s_{N+1} + missing_mass <= s_N.  (Without the switch, fewer
        # than n candidates always switch, so found >= n here.)
        if switched or not tids_large:
            result.safe = True
        else:
            runner_up = (float(np.partition(positive, found - n - 1)[found - n - 1])
                         if found > n else 0.0)
            result.safe = runner_up + decision.missing_mass <= nth_score
        return result
