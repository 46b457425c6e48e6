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
        none is given; ``None`` means 2.
    cache_enabled:
        Turn on the two-level query cache (results and resumable top-N
        state).  Off by default: cached serving
        changes the cost profile of repeated queries, which the
        cost-model experiments measure cold.  The cache is an LRU of
        64 fingerprints.

    Parallel search evaluates its shards one after another on the
    calling thread.
    """

    model: str = "bm25"
    model_params: dict = field(default_factory=dict)
    fragment_volume_cut: float = 0.95
    switch_sensitivity: float = 0.35
    default_strategy: str = "auto"
    default_shards: int | None = None
    cache_enabled: bool = False

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
