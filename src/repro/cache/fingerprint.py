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
  request is keyed before any similarity scan runs; any other array
  source by a content hash of its grade vector);
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

    def describe(self) -> dict:
        """JSON-able key breakdown (for diagnostics and the CLI)."""
        return {
            "kind": self.kind,
            "terms": list(self.terms),
            "aggregate": self.aggregate,
            "fragments": list(self.fragments),
            "shard_layout": list(self.shard_layout),
            "epoch": self.epoch,
            "extra": list(self.extra),
            "digest": self.digest(),
        }


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


def source_token(source) -> tuple:
    """A stable identity token for one graded score source.

    A feature similarity source carries the ``(space, measure, query)``
    it was scanned from as its ``request`` and is keyed by
    :func:`feature_token`, computed here rather than at every scan so
    that queries with the cache off never pay for it.  Posting-list
    sources are content-addressed by ``(term id, model)`` — their
    grades are a pure function of the index and the model, and the
    index's identity is already covered by the corpus epoch.  Any
    other dense array source hashes its grade vector: two such sources
    only share cache state when their score arrays are bit-identical.
    """
    request = getattr(source, "request", None)
    if request is not None:
        return feature_token(*request)
    tid = getattr(source, "tid", None)
    if tid is not None:
        model = getattr(source, "model", None)
        return ("term", int(tid), getattr(model, "name", str(model)))
    scores = getattr(source, "_scores", None)
    if scores is not None:
        content = hashlib.sha1(scores.tobytes()).hexdigest()[:16]
        return ("array", getattr(source, "name", "array"), content)
    return ("source", getattr(source, "name", repr(source)))


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


def sources_fingerprint(sources, agg_name: str, epoch: int, algorithm: str,
                        kind: str = "feature") -> QueryFingerprint:
    """Fingerprint of a middleware (Fagin-family) multi-source query."""
    return tokens_fingerprint(tuple(source_token(source) for source in sources),
                              agg_name, epoch, algorithm, kind)


def tokens_fingerprint(tokens: tuple, agg_name: str, epoch: int, algorithm: str,
                       kind: str = "feature") -> QueryFingerprint:
    """Fingerprint of a multi-source query from its per-source tokens
    (:func:`source_token`), in source order — what a caller that has
    not built the sources yet keys on."""
    return QueryFingerprint(
        kind=kind,
        terms=tuple(tokens),
        aggregate=agg_name,
        epoch=epoch,
        extra=("algorithm", algorithm),
    )
