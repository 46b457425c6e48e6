"""Configuration for the MMDatabase facade."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError


@dataclass
class DatabaseConfig:
    """Tunables of an :class:`~repro.core.database.MMDatabase`.

    Attributes
    ----------
    model:
        Ranking model name (``tfidf`` / ``bm25`` / ``lm``).
    model_params:
        Keyword parameters for the model constructor.
    fragment_volume_cut:
        Postings-volume share assigned to the large fragment when
        fragmenting (the paper's 0.95).
    switch_sensitivity:
        Quality-check sensitivity for the safe switching strategy.
    default_strategy:
        Strategy name used by ``search`` when none is given:
        ``auto``, ``unfragmented``, ``unsafe-small``, ``safe-switch``,
        ``indexed`` or ``parallel``.
    default_shards:
        Shard count used by ``shard()`` / ``strategy="parallel"`` when
        none is given; ``None`` defers to the
        ``REPRO_PARALLEL_DEFAULT_SHARDS`` environment variable.
    executor_kind:
        Executor pool flavour for parallel search: ``thread``
        (default) or ``serial``.
    max_parallel_queries:
        Admission-control bound: concurrent parallel queries beyond
        this are rejected with ``AdmissionRejectedError``.
    cache_enabled:
        Turn on the multi-level query cache (results, resumable top-N
        state, coordinator bounds).  Off by default: cached serving
        changes the cost profile of repeated queries, which the
        cost-model experiments measure cold.
    cache_max_entries:
        LRU capacity of the query cache, in fingerprints.
    buffer_policy:
        Replacement policy installed on the process-wide buffer pool at
        database construction (``lru`` / ``slru`` / ``clock``);
        ``None`` leaves the pool untouched.
    """

    model: str = "bm25"
    model_params: dict = field(default_factory=dict)
    fragment_volume_cut: float = 0.95
    switch_sensitivity: float = 0.35
    default_strategy: str = "auto"
    default_shards: int | None = None
    executor_kind: str = "thread"
    max_parallel_queries: int = 8
    cache_enabled: bool = False
    cache_max_entries: int = 64
    buffer_policy: str | None = None

    def validate(self) -> None:
        if not 0.0 < self.fragment_volume_cut < 1.0:
            raise ReproError(
                f"fragment_volume_cut must be in (0, 1), got {self.fragment_volume_cut}"
            )
        if self.switch_sensitivity < 0:
            raise ReproError(
                f"switch_sensitivity must be non-negative, got {self.switch_sensitivity}"
            )
        if self.default_shards is not None and self.default_shards < 1:
            raise ReproError(
                f"default_shards must be positive, got {self.default_shards}"
            )
        if self.executor_kind not in ("serial", "thread"):
            raise ReproError(
                f"executor_kind must be serial/thread, got {self.executor_kind!r}"
            )
        if self.max_parallel_queries < 1:
            raise ReproError(
                f"max_parallel_queries must be positive, got {self.max_parallel_queries}"
            )
        if self.cache_max_entries < 1:
            raise ReproError(
                f"cache_max_entries must be positive, got {self.cache_max_entries}"
            )
        if self.buffer_policy is not None:
            from ..storage.policies import POLICIES

            if self.buffer_policy not in POLICIES:
                raise ReproError(
                    f"buffer_policy must be one of {sorted(POLICIES)}, "
                    f"got {self.buffer_policy!r}"
                )
