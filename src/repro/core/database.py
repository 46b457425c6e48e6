"""The MMDatabase facade: one object tying the whole system together.

This is the integrated MM retrieval DBMS the paper's research aims at:
text content (inverted index + ranking models + Zipf fragmentation),
multimedia feature spaces (Fagin-family multi-source top-N), and
alphanumeric attributes (STOP AFTER over attribute predicates) — all
over one storage kernel with one cost accounting.

Typical use::

    collection = SyntheticCollection.generate(n_docs=2000, seed=7)
    db = MMDatabase.from_collection(collection)
    db.fragment()                      # enable Step-1 strategies
    hits = db.search("zipf ranking", n=10, strategy="indexed")

    db.add_feature_space(color_histograms(len(collection), seed=1))
    hits = db.feature_search({"color": query_vector}, n=10, algorithm="ta")
"""

from __future__ import annotations

import functools
import time
from typing import Callable, NamedTuple

import numpy as np

from ..cache import (
    QueryCache,
    feature_token,
    text_fingerprint,
    tokens_fingerprint,
)
from ..errors import ReproError, TopNError, WorkloadError
from ..fragmentation import FragmentedExecutor, QualityCheck, Strategy, fragment_by_volume
from ..ir.documents import Collection
from ..ir.invindex import InvertedIndex
from ..ir.ranking import make_model
from ..mm.features import FeatureSpace
from ..mm.sources import PostingsSource, feature_source
from ..obs import tracer
from ..storage.bat import BAT
from ..storage.stats import CostCounter
from ..topn import (
    SUM,
    combined_topn,
    naive_topn,
    nra_topn,
    threshold_topn,
)
from ..topn.result import RankedItem, TopNResult
from ..topn.ta import answer_at
from .config import DatabaseConfig
from .session import SearchResult

_ALGORITHMS = {
    "ta": threshold_topn,
    "nra": nra_topn,
    "ca": combined_topn,
}

#: text strategies whose ranking is independent of n (exact engines and
#: the fragment-restricted unsafe one); safe-switch picks its execution
#: path based on an n-dependent quality check, so only exact-n repeats
#: are served for it
_PREFIX_SAFE_STRATEGIES = frozenset(
    {"naive", "unfragmented", "unsafe-small", "indexed"})


class FeatureStream(NamedTuple):
    """Where a served multi-feature stream starts
    (:meth:`MMDatabase.feature_stream`)."""

    #: the corpus epoch the stream is keyed and stamped at
    epoch: int
    #: the graded sources to run over; None when ``run`` serves it
    sources: list | None
    #: a completed TA run from the cache, with its frontier, to cut
    #: the stream's chunks from
    run: TopNResult | None
    #: called with the stream's final TA run to store it in the cache
    store: Callable[[TopNResult], None] | None


class MMDatabase:
    """An in-process multimedia retrieval database."""

    def __init__(self, collection: Collection, index: InvertedIndex,
                 config: DatabaseConfig | None = None) -> None:
        self.collection = collection
        self.index = index
        self.config = config or DatabaseConfig()
        self.config.validate()
        self.model = make_model(self.config.model, **self.config.model_params)
        self.fragmented = None
        self._executor: FragmentedExecutor | None = None
        self.sharded = None
        self.feature_spaces: dict[str, FeatureSpace] = {}
        self.attributes: dict[str, BAT] = {}
        #: corpus epoch: bumped by every mutation that can change scores
        #: (fragmenting, sharding, attribute/feature registration) —
        #: cache keys embed it, so stale entries can never hit
        self.epoch = 0
        self.cache: QueryCache | None = (
            QueryCache(max_entries=64) if self.config.cache_enabled else None)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_collection(cls, collection: Collection,
                        config: DatabaseConfig | None = None) -> "MMDatabase":
        """Build a database (index included) from a collection."""
        return cls(collection, InvertedIndex.build(collection), config)

    # -- content registration ---------------------------------------------------

    def _bump_epoch(self) -> None:
        """Advance the corpus epoch and garbage-collect stale cache
        entries (they could never hit anyway — the epoch is part of
        every fingerprint)."""
        self.epoch += 1
        if self.cache is not None:
            self.cache.invalidate_below_epoch(self.epoch)

    def fragment(self, volume_cut: float | None = None) -> None:
        """Fragment the inverted file (paper Step 1); enables the
        ``unsafe-small`` / ``safe-switch`` / ``indexed`` strategies."""
        cut = volume_cut if volume_cut is not None else self.config.fragment_volume_cut
        self.fragmented = fragment_by_volume(self.index, volume_cut=cut)
        self._executor = FragmentedExecutor(
            self.fragmented, self.model,
            QualityCheck(sensitivity=self.config.switch_sensitivity),
        )
        self._bump_epoch()

    def shard(self, shards: int | None = None,
              boundaries: list[int] | None = None,
              balance: str = "docs") -> None:
        """Partition the index into document-range shards (enables the
        ``parallel`` strategy).  ``shards`` defaults to the config's
        ``default_shards``, else 2."""
        from ..parallel import shard_index

        if shards is None and boundaries is None:
            shards = self.config.default_shards or 2
        self.sharded = shard_index(self.index, shards=shards,
                                   boundaries=boundaries, balance=balance)
        self._bump_epoch()

    def close(self) -> None:
        """Release the database's resources.  It holds none that need
        releasing: shard evaluation runs on the caller's thread."""

    def add_feature_space(self, space: FeatureSpace, name: str | None = None) -> None:
        """Register a multimedia feature space over the documents."""
        if space.n_objects != self.collection.n_docs:
            raise WorkloadError(
                f"feature space covers {space.n_objects} objects, "
                f"collection has {self.collection.n_docs}"
            )
        self.feature_spaces[name or space.name] = space
        self._bump_epoch()

    def set_attribute(self, name: str, values) -> None:
        """Register an alphanumeric attribute column over documents."""
        values = np.asarray(values)
        if len(values) != self.collection.n_docs:
            raise WorkloadError(
                f"attribute {name!r} has {len(values)} values for "
                f"{self.collection.n_docs} documents"
            )
        self.attributes[name] = BAT(values, name=f"attr_{name}", persistent=True)
        self._bump_epoch()

    # -- text search ----------------------------------------------------------

    def _terms_to_tids(self, query) -> list[int]:
        if isinstance(query, str):
            terms = query.split()
        else:
            terms = list(query)
        tids = []
        for term in terms:
            if isinstance(term, (int, np.integer)):
                tids.append(int(term))
            elif term in self.index.vocabulary:
                tids.append(self.index.vocabulary.term_id(term))
        return tids

    def _resolve_strategy(self, strategy) -> Strategy | None:
        """None means plain naive evaluation on the full index."""
        if isinstance(strategy, Strategy):
            return strategy
        name = strategy or self.config.default_strategy
        if name == "auto":
            if self._executor is None:
                return None
            return Strategy.INDEXED
        if name in ("naive", "unfragmented"):
            return Strategy.UNFRAGMENTED if self._executor else None
        for member in Strategy:
            if member.value == name:
                return member
        raise ReproError(f"unknown search strategy {name!r}")

    def search(self, query, n: int = 10, strategy=None) -> SearchResult:
        """Top-``n`` text search.

        ``query`` is a string (whitespace-split; unknown terms are
        ignored) or a list of term strings / term ids.
        """
        tids = self._terms_to_tids(query)
        name = strategy if strategy is not None else self.config.default_strategy
        if name == "parallel":
            return self._parallel_search(tids, n)
        resolved = self._resolve_strategy(strategy)
        fingerprint = None
        label = "naive" if resolved is None else resolved.value
        if self.cache is not None:
            fingerprint = text_fingerprint(tids, self.model.name, self.epoch,
                                           strategy=label)
            with tracer.span("cache.lookup", kind="text", n=n):
                served, _entry = self.cache.lookup(fingerprint, n)
                tracer.annotate(hit=served is not None)
            if served is not None:
                started = time.perf_counter()
                with CostCounter.activate() as cost:
                    pass  # a cache hit charges no cost-model operations
                elapsed = time.perf_counter() - started
                return SearchResult(served, tids, cost, elapsed)
        started = time.perf_counter()
        with CostCounter.activate() as cost:
            if resolved is None:
                result = naive_topn(self.index, tids, self.model, n)
            else:
                if self._executor is None:
                    raise ReproError("database is not fragmented; call fragment() "
                                     "or use strategy='naive'")
                result = self._executor.query(tids, n, resolved)
        elapsed = time.perf_counter() - started
        if fingerprint is not None:
            self.cache.store(fingerprint, n, result,
                             prefix_safe=label in _PREFIX_SAFE_STRATEGIES,
                             complete=len(result.items) < n)
        return SearchResult(result, tids, cost, elapsed)

    def _parallel_search(self, tids, n) -> SearchResult:
        """Sharded execution: the exact gather over document-range
        shards, every shard evaluated on the calling thread (auto-shards
        on first use).  With the cache enabled, a repeat is served from
        the cached answer."""
        from ..parallel import parallel_topn

        if self.sharded is None:
            self.shard()
        fingerprint = None
        if self.cache is not None:
            fingerprint = text_fingerprint(
                tids, self.model.name, self.epoch, strategy="parallel",
                shard_layout=tuple(self.sharded.boundaries))
            with tracer.span("cache.lookup", kind="parallel", n=n):
                served, _entry = self.cache.lookup(fingerprint, n)
                tracer.annotate(hit=served is not None)
            if served is not None:
                started = time.perf_counter()
                with CostCounter.activate() as cost:
                    pass  # a cache hit charges no cost-model operations
                elapsed = time.perf_counter() - started
                return SearchResult(served, tids, cost, elapsed)
        started = time.perf_counter()
        with CostCounter.activate() as cost:
            result = parallel_topn(self.sharded, tids, self.model, n)
        elapsed = time.perf_counter() - started
        if fingerprint is not None:
            self.cache.store(fingerprint, n, result, prefix_safe=True,
                             complete=len(result.items) < n)
        return SearchResult(result, tids, cost, elapsed)

    # -- multimedia search ---------------------------------------------------------

    def _run_multisource(self, sources, n, algorithm, agg, fingerprint, entry):
        """Run a Fagin-family engine through the cache, when enabled.

        The caller looked ``fingerprint`` up before building
        ``sources`` (None: the cache is off) and missed; ``entry`` is
        what the lookup found under it.  Per-algorithm reuse (see
        :mod:`repro.cache`): TA resumes from a saved frontier at any
        ``n`` no smaller than the saved one; NRA/CA resume from a saved
        bound administration at any ``n`` (their lower-bound scores
        depend on the stopping depth, which the resumed run recomputes
        for the new ``n``).  A resumed answer equals the cold one, and
        each run stores its state for the next — a TA run's result and
        frontier together, which a served stream at the same ``n`` is
        cut from (:meth:`feature_stream`).
        """
        engine = _ALGORITHMS[algorithm]
        if fingerprint is None:
            return engine(sources, n, agg)
        resume = entry.resume if entry is not None else None
        if algorithm == "ta" and resume is not None and n < resume.n:
            resume = None
        result = engine(sources, n, agg, resume_from=resume, capture_state=True)
        if resume is not None:
            self.cache.note_resume()
        # a run that exhausts the corpus ranks every object with exact
        # (depth-independent) scores: complete is safe
        self.cache.store(fingerprint, n, result, prefix_safe=algorithm == "ta",
                         complete=len(result.items) < n,
                         resume=result.stats.pop("resume_state", None))
        return result

    def _multisource_fingerprint(self, tids, queries, measure, algorithm, agg, kind,
                                 epoch):
        """The cache key of a multi-source query, from the request
        alone: one token per source, in the order
        :meth:`_multisource_search` builds them, so no source is built
        to look it up."""
        tokens = tuple(("term", int(tid), self.model.name) for tid in tids) + tuple(
            feature_token(name, measure, vector) for name, vector in queries.items())
        return tokens_fingerprint(tokens, agg.name, epoch, algorithm, kind=kind)

    def _check_spaces(self, queries) -> None:
        for name in queries:
            if name not in self.feature_spaces:
                raise WorkloadError(f"unknown feature space {name!r}; "
                                    f"have {sorted(self.feature_spaces)}")

    def feature_sources(self, queries: dict[str, np.ndarray],
                        measure: str = "l2") -> list:
        """Graded sources for a multi-feature query, one per named
        feature space — the building block :meth:`feature_search` and
        the serve layer's anytime runners share."""
        self._check_spaces(queries)
        return [feature_source(self.feature_spaces[name],
                               np.asarray(vector, dtype=np.float64), measure)
                for name, vector in queries.items()]

    def _multisource_search(self, tids, queries, n, algorithm, agg, measure,
                            kind) -> SearchResult:
        """One posting source per term id, then one feature source per
        feature query, combined by ``algorithm``; with the cache on, the
        request is looked up before any source is built."""
        if algorithm not in _ALGORITHMS:
            raise TopNError(f"unknown algorithm {algorithm!r}; have {sorted(_ALGORITHMS)}")
        self._check_spaces(queries)
        fingerprint = entry = None
        if self.cache is not None:
            fingerprint = self._multisource_fingerprint(tids, queries, measure, algorithm,
                                                        agg, kind, self.epoch)
            with tracer.span("cache.lookup", kind=kind, n=n):
                served, entry = self.cache.lookup(fingerprint, n)
                tracer.annotate(hit=served is not None)
            if served is not None:
                started = time.perf_counter()
                with CostCounter.activate() as cost:
                    pass  # a cache hit charges no cost-model operations
                elapsed = time.perf_counter() - started
                return SearchResult(served, tids, cost, elapsed)
        sources = [PostingsSource(self.index, tid, self.model) for tid in tids]
        sources += self.feature_sources(queries, measure)
        started = time.perf_counter()
        with CostCounter.activate() as cost:
            result = self._run_multisource(sources, n, algorithm, agg, fingerprint, entry)
        elapsed = time.perf_counter() - started
        return SearchResult(result, tids, cost, elapsed)

    def feature_search(self, queries: dict[str, np.ndarray], n: int = 10,
                       algorithm: str = "ta", agg=SUM,
                       measure: str = "l2") -> SearchResult:
        """Multi-feature top-``n``: one graded source per feature query,
        combined with a Fagin-family algorithm."""
        return self._multisource_search([], queries, n, algorithm, agg, measure,
                                        kind="feature")

    def combined_search(self, text_query, feature_queries: dict[str, np.ndarray],
                        n: int = 10, algorithm: str = "ta", agg=SUM,
                        measure: str = "l2") -> SearchResult:
        """Integrated content query: text terms and feature similarity
        as one multi-source top-N (the paper's target scenario —
        "integrated top N queries on several content and alpha
        numerical types")."""
        tids = self._terms_to_tids(text_query)
        if not tids and not feature_queries:
            raise TopNError("combined_search needs at least one source")
        return self._multisource_search(tids, feature_queries, n, algorithm, agg, measure,
                                        kind="combined")

    def feature_stream(self, queries: dict[str, np.ndarray], n: int, algorithm: str,
                       agg=SUM, measure: str = "l2") -> FeatureStream:
        """Where a served multi-feature stream starts.

        With the cache on, a TA stream looks its request up before any
        source is built, under the key :meth:`feature_search` uses.  A
        hit is the completed run stored at exactly this ``n`` with its
        frontier: the stream is cut from it and builds, runs and charges
        nothing.  On a miss the stream gets its sources and a ``store``
        that files its final run as the cold library run, for later
        streams and library calls alike.  NRA and CA streams, and
        every stream with the cache off, just get their sources.
        """
        epoch = self.epoch
        if self.cache is None or algorithm != "ta":
            return FeatureStream(epoch, self.feature_sources(queries, measure), None, None)
        self._check_spaces(queries)
        fingerprint = self._multisource_fingerprint((), queries, measure, algorithm, agg,
                                                    "feature", epoch)
        with tracer.span("cache.lookup", kind="feature", n=n):
            run, _entry = self.cache.lookup(fingerprint, n, frontier=True)
            tracer.annotate(hit=run is not None)
        if run is not None:
            return FeatureStream(epoch, None, run, None)
        return FeatureStream(epoch, self.feature_sources(queries, measure), None,
                             functools.partial(self._store_ta_run, fingerprint, n))

    def _store_ta_run(self, fingerprint, n: int, run: TopNResult) -> None:
        """Store a stream's final TA run as the cold run at ``n``: its
        items, the stats the cold library call reports (a stream's last
        run is resumed, so its own count only its last stretch) and its
        frontier.  A run whose epoch was invalidated meanwhile is not
        stored (:meth:`~repro.cache.QueryCache.store`)."""
        items, stats = answer_at(run, run.stats["depth"])
        result = TopNResult([RankedItem(obj, score) for obj, score in items], n,
                            strategy=run.strategy, safe=run.safe, stats=stats)
        self.cache.store(fingerprint, n, result, prefix_safe=True,
                         complete=len(result.items) < n,
                         resume=run.stats["resume_state"])

    # -- persistence -------------------------------------------------------------

    def save(self, directory) -> None:
        """Persist the database (index, vocabulary, attributes, feature
        spaces, config) under ``directory``.

        Document *content* is not stored — like any IR system, the
        inverted index plus vocabulary is the searchable database; a
        loaded database answers queries identically but cannot re-render
        document text.
        """
        import json
        from pathlib import Path

        from ..storage.catalog import Catalog

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        catalog = Catalog()
        catalog.register("postings_terms", self.index.postings_terms)
        catalog.register("postings_docs", self.index.postings_docs)
        catalog.register("postings_tf", self.index.postings_tf)
        catalog.register("doc_lengths", self.index.doc_lengths)
        for name, bat in self.attributes.items():
            catalog.register(f"attr_{name}", bat)
        catalog.save(directory / "bats")
        np.save(directory / "offsets.npy", self.index.offsets)
        np.savez(
            directory / "vocabulary.npz",
            df=self.index.vocabulary.df_array(),
            cf=self.index.vocabulary.cf_array(),
        )
        with open(directory / "terms.txt", "w") as fh:
            fh.write("\n".join(self.index.vocabulary.terms()))
        for name, space in self.feature_spaces.items():
            np.savez(directory / f"feature_{name}.npz", vectors=space.vectors,
                     cluster_of=(space.cluster_of
                                 if space.cluster_of is not None else np.empty(0)))
        manifest = {
            "n_docs": self.collection.n_docs,
            "name": self.collection.name,
            "model": self.config.model,
            "model_params": self.config.model_params,
            "fragment_volume_cut": self.config.fragment_volume_cut,
            "switch_sensitivity": self.config.switch_sensitivity,
            "default_strategy": self.config.default_strategy,
            "attributes": sorted(self.attributes),
            "feature_spaces": sorted(self.feature_spaces),
            "fragmented": self.fragmented is not None,
        }
        with open(directory / "database.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory) -> "MMDatabase":
        """Load a database saved with :meth:`save`.

        The loaded database answers queries identically (same index,
        vocabulary, model, attributes, feature spaces); fragmentation
        is re-derived when the saved database was fragmented.
        """
        import json
        from pathlib import Path

        from ..ir.documents import Collection, Document
        from ..ir.vocabulary import Vocabulary
        from ..storage.catalog import Catalog

        directory = Path(directory)
        with open(directory / "database.json") as fh:
            manifest = json.load(fh)
        catalog = Catalog.load(directory / "bats")
        with open(directory / "terms.txt") as fh:
            text = fh.read()
        term_strings = text.split("\n") if text else []
        vocab_arrays = np.load(directory / "vocabulary.npz")
        vocabulary = Vocabulary.from_counts(term_strings, vocab_arrays["df"],
                                            vocab_arrays["cf"])
        offsets = np.load(directory / "offsets.npy")
        index = InvertedIndex(
            catalog.get("postings_terms"),
            catalog.get("postings_docs"),
            catalog.get("postings_tf"),
            offsets,
            catalog.get("doc_lengths"),
            vocabulary,
        )
        # placeholder documents: content is not persisted (see save)
        documents = [Document(i, np.empty(0, dtype=np.int64))
                     for i in range(manifest["n_docs"])]
        collection = Collection(documents, term_strings, name=manifest["name"])
        config = DatabaseConfig(
            model=manifest["model"],
            model_params=manifest["model_params"],
            fragment_volume_cut=manifest["fragment_volume_cut"],
            switch_sensitivity=manifest["switch_sensitivity"],
            default_strategy=manifest["default_strategy"],
        )
        db = cls(collection, index, config)
        for name in manifest["attributes"]:
            db.attributes[name] = catalog.get(f"attr_{name}")
        for name in manifest["feature_spaces"]:
            arrays = np.load(directory / f"feature_{name}.npz")
            cluster_of = arrays["cluster_of"]
            db.feature_spaces[name] = FeatureSpace(
                name, arrays["vectors"],
                cluster_of if len(cluster_of) else None,
            )
        if manifest["fragmented"]:
            db.fragment()
        return db

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> dict:
        """Sizing statistics of the database."""
        out = {
            "n_docs": self.collection.n_docs,
            "n_terms": self.index.n_terms,
            "total_postings": self.index.total_postings(),
            "avg_doc_length": self.index.avg_dl,
            "model": self.model.name,
            "feature_spaces": sorted(self.feature_spaces),
            "attributes": sorted(self.attributes),
            "fragmented": self.fragmented is not None,
        }
        if self.fragmented is not None:
            out["small_volume_share"] = self.fragmented.small_volume_share()
            out["small_vocabulary_share"] = self.fragmented.small_vocabulary_share()
        if self.sharded is not None:
            out["shards"] = self.sharded.n_shards
            out["shard_skew"] = self.sharded.skew()
        return out
