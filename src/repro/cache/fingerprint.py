"""Canonical query fingerprints: the cache key discipline.

A cached answer may only be reused when the *whole* evaluation context
matches, not just the query text.  The fingerprint therefore canonically
encodes every input the engines read:

* the query **terms** (term ids, sorted — naive scoring is a sum over
  terms, so term order is irrelevant; duplicates are kept because a
  repeated term contributes twice) or, for middleware queries, one
  stable **token per graded source** (a posting-list source is
  identified by its term id and model; a feature similarity source by
  its feature space, measure and a hash of its query vector, so a
  request is keyed before any similarity scan runs);
* the **aggregate** / scoring model combining the sources;
* the **fragment set** the strategy reads (an unsafe fragment-restricted
  answer must never serve an unfragmented query);
* the **shard layout** (a parallel answer is tied to its boundaries);
* the **corpus epoch** — a counter the database bumps on every mutation
  that can change scores (ingest, fragmentation, sharding, attribute or
  feature registration).  Stale epochs never collide with fresh ones,
  so invalidation is by construction, not by search.

``n`` is deliberately *not* part of the fingerprint: the whole point of
the result cache is answering top-``n`` from a cached top-``m``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _token(value) -> str:
    """Render one key component deterministically."""
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_token(v) for v in value) + ")"
    return repr(value)


@dataclass(frozen=True)
class QueryFingerprint:
    """The canonical cache key of one query, minus its ``n``."""

    #: query flavour: ``text`` / ``feature`` / ``parallel`` / ``combined``
    kind: str
    #: sorted term ids, or per-source identity tokens (order preserved
    #: for sources: weighted aggregates are not symmetric)
    terms: tuple
    #: aggregate or scoring-model name (``sum`` / ``bm25`` / ...)
    aggregate: str
    #: fragment signature of the executing strategy (empty = whole index)
    fragments: tuple = ()
    #: document-range shard boundaries (empty = serial)
    shard_layout: tuple = ()
    #: corpus epoch the entry was built at
    epoch: int = 0
    #: anything else reuse must agree on (strategy name, measure, ...)
    extra: tuple = field(default=())

    def digest(self) -> str:
        """Stable hex digest used as the storage key."""
        payload = "|".join((
            self.kind,
            _token(self.terms),
            self.aggregate,
            _token(self.fragments),
            _token(self.shard_layout),
            str(self.epoch),
            _token(self.extra),
        ))
        return hashlib.sha1(payload.encode()).hexdigest()


def feature_token(space: str, measure: str, query) -> tuple:
    """The token of a feature similarity source, from the request alone.

    Its grades are a pure function of the feature space, the measure
    and the query vector, and the space's identity is already covered
    by the corpus epoch, so the token is ``(space, measure, hash of the
    float64 query)`` — the way a posting-list source is keyed by
    ``(term id, model)``.  Computing it needs no similarity scan.
    """
    vector = np.ascontiguousarray(query, dtype=np.float64)
    return ("feature", space, measure, hashlib.sha1(vector.tobytes()).hexdigest()[:16])


def text_fingerprint(tids, model_name: str, epoch: int, strategy: str = "naive",
                     fragments: tuple = (), shard_layout: tuple = ()) -> QueryFingerprint:
    """Fingerprint of a text top-N query (term ids + ranking model)."""
    return QueryFingerprint(
        kind="text",
        terms=tuple(sorted(int(t) for t in tids)),
        aggregate=model_name,
        fragments=tuple(fragments),
        shard_layout=tuple(shard_layout),
        epoch=epoch,
        extra=("strategy", strategy),
    )


def tokens_fingerprint(tokens: tuple, agg_name: str, epoch: int, algorithm: str,
                       kind: str = "feature") -> QueryFingerprint:
    """Fingerprint of a multi-source query from its per-source tokens
    in source order (:func:`feature_token` for a feature source,
    ``("term", tid, model)`` for a posting list), so a caller keys a
    query before it builds the sources."""
    return QueryFingerprint(
        kind=kind,
        terms=tuple(tokens),
        aggregate=agg_name,
        epoch=epoch,
        extra=("algorithm", algorithm),
    )
