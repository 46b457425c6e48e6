"""Threshold/bound cache for the parallel top-N coordinator.

The TPUT-style coordinator spends its round-1 budget asking *every*
shard for a candidate prefix, then prunes shards whose best remaining
item cannot beat the running n-th-best key.  A previous certified run
of the same fingerprint already measured two reusable facts:

* the final **merge threshold** ``τ(n)`` — the sort key of the n-th
  result.  On identical data (same fingerprint ⇒ same corpus epoch and
  shard layout) the key ordering gives ``τ_key(n) ≤ τ_key(n_c)`` for
  any ``n ≤ n_c``, so any cached ``τ_key(n_c)`` with ``n_c ≥ n`` is a
  sound *upper bound* (in key order, lower is better) on this run's
  final threshold;
* each shard's **best item key** and, when a shard was fully drained,
  its complete local ranking.

A shard whose cached best key is strictly worse than a sound threshold
bound cannot contribute to the top-``n`` — the coordinator skips its
round-1 probe outright (``bound_pruned``).  A shard with a cached
complete ranking is served from the cache without scheduling its
evaluator at all (``bound_served``).  Both prunings preserve the
coordinator's certification argument: a pruned shard is *provably*
below the final threshold, a served shard is exhausted by construction.

Thresholds are stored as the shared
:class:`~repro.intervals.ThresholdBound` dataclass, stamped with the
corpus epoch they were measured at.  Reuse at a different epoch is
unsound (scores may have changed under mutation): the
:meth:`CoordinatorBounds.seedable_at` gate refuses it, and recording
at a new epoch purges every stale fact first.

All state is lock-guarded: the bound cache is shared through the query
cache and may be read by concurrent coordinated runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..intervals import ThresholdBound
from ..sync import declares_shared_state, make_lock


@dataclass(frozen=True)
class ShardBoundInfo:
    """What a previous run learned about one shard."""

    shard_id: int
    #: sort key ``(-score, obj_id)`` of the shard's best item; ``None``
    #: for an empty shard (which is trivially prunable)
    top_key: tuple | None
    #: total candidates the shard holds for this fingerprint
    candidates: int
    #: True when the previous run drained the shard completely
    exhausted: bool
    #: the full local ranking ``((obj, score), ...)`` — only retained
    #: when ``exhausted`` and every candidate was shipped, so the cached
    #: answer is valid for *any* requested depth
    ranking: tuple | None = None


@declares_shared_state
class CoordinatorBounds:
    """Per-fingerprint shard bound cache (lives inside a cache entry)."""

    SHARED_STATE = {
        "epoch": "_lock",
        "tau_by_n": "_lock",
        "shards": "_lock",
    }

    def __init__(self, epoch: int = 0) -> None:
        self._lock = make_lock("cache.bounds")
        #: corpus epoch every stored fact was measured at
        self.epoch = epoch
        #: recorded final merge thresholds: n -> ThresholdBound record
        self.tau_by_n: dict[int, ThresholdBound] = {}
        #: shard_id -> ShardBoundInfo
        self.shards: dict[int, ShardBoundInfo] = {}

    def seedable_at(self, epoch: int) -> bool:
        """Whether the stored facts may seed a run at ``epoch``.

        Bounds measured at a different corpus epoch may not seed
        pruning (scores can change under mutation).  An empty cache is
        trivially seedable.
        """
        with self._lock:
            if not self.tau_by_n and not self.shards:
                return True
            return self.epoch == epoch

    def record(self, n: int, tau_key: tuple | None, infos,
               epoch: int | None = None) -> None:
        """Store the outcome of one *certified* run at depth ``n``.

        ``tau_key`` is the key of the n-th merged item (``None`` when the
        corpus holds fewer than ``n`` candidates — nothing to prune by).
        Shard infos replace older observations for the same shard only
        when they are at least as informative (an exhausted observation
        is never downgraded to a partial one).  Recording at a *newer*
        epoch first purges every fact from the old epoch — stale bounds
        must never outlive the data they were measured on.
        """
        with self._lock:
            if epoch is not None and epoch != self.epoch:
                self.tau_by_n.clear()
                self.shards.clear()
                self.epoch = epoch
            if tau_key is not None:
                self.tau_by_n[n] = ThresholdBound(n=n, key=tau_key,
                                                  epoch=self.epoch)
            for info in infos:
                old = self.shards.get(info.shard_id)
                if old is not None and old.exhausted and not info.exhausted:
                    continue
                self.shards[info.shard_id] = info

    def threshold_bound(self, n: int, epoch: int | None = None) -> tuple | None:
        """Tightest sound bound on this run's final ``τ_key(n)``:
        the best (smallest) cached ``τ_key(n_c)`` over ``n_c ≥ n``.
        With ``epoch`` given, facts from another epoch yield ``None``."""
        with self._lock:
            if epoch is not None and self.tau_by_n and self.epoch != epoch:
                return None
            keys = [bound.key for n_c, bound in self.tau_by_n.items()
                    if n_c >= n]
        return min(keys) if keys else None

    def prunable_shards(self, n: int, epoch: int | None = None) -> set[int]:
        """Shards provably unable to contribute to the top-``n``:
        cached best key strictly worse than the threshold bound (or the
        shard is known empty).  With ``epoch`` given, an epoch mismatch
        prunes nothing."""
        if epoch is not None and not self.seedable_at(epoch):
            return set()
        bound = self.threshold_bound(n, epoch=epoch)
        with self._lock:
            out = set()
            for shard_id, info in self.shards.items():
                if info.top_key is None and info.exhausted:
                    out.add(shard_id)
                elif bound is not None and info.top_key is not None \
                        and info.top_key > bound:
                    out.add(shard_id)
            return out

    def complete_ranking(self, shard_id: int) -> tuple | None:
        """The shard's cached full local ranking, if one was retained."""
        with self._lock:
            info = self.shards.get(shard_id)
        if info is not None and info.exhausted and info.ranking is not None:
            return info.ranking
        return None

    def snapshot(self) -> dict:
        """JSON-able view (for diagnostics and the bench CLI)."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "tau_by_n": {n: bound.to_dict()
                             for n, bound in self.tau_by_n.items()},
                "shards": {
                    shard_id: {
                        "top_key": list(info.top_key) if info.top_key else None,
                        "candidates": info.candidates,
                        "exhausted": info.exhausted,
                        "has_ranking": info.ranking is not None,
                    }
                    for shard_id, info in self.shards.items()
                },
            }
