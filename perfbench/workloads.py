"""Inputs, set-up, operations and oracles of the three workloads.

Every input is a pure function of the workload name and the seed.  The
corpus, the two feature spaces and the query pools of ``mm_fagin`` and
``serve_hot`` are fixed, like a test collection with its topics; the
seed draws the traffic: which queries are sent, how often and in what
order, and ``text_step1``'s unique queries.  A fixed pool keeps the
heaviest queries — which set p99 — the same for every seed, so the
run-to-run spread measures the program and the host, not the draw.
Each workload has

* ``setup_ops`` — one operation per kind, run inside the timed set-up
  so the first query's lazy builds (the non-dense index, the shards,
  the worker pools) count as set-up;
* ``warmup_ops`` — drawn from the same distribution, run before timing
  so the buffer pool and the cache reach steady state;
* ``ops`` — the fixed list the timed phase replays.

An operation is a small dict: ``{"kind": ..., "t": template}``.  The
templates (query text, query vectors, attribute columns) live on the
workload object, and the oracle is keyed by ``(kind, t)``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import DatabaseConfig, MMDatabase
from repro.mm.features import color_histograms, query_near_cluster, texture_features
from repro.mm.sources import PostingsSource, feature_source
from repro.serve.client import ServeClient, raise_error
from repro.serve.server import ServerConfig, ServerThread
from repro.serve.tenants import TenantConfig
from repro.topn.naive import naive_topn_sources
from repro.workloads import SyntheticCollection, trec
from repro.workloads.queries import generate_queries

#: results per query
N = 10
#: warm-up operations run before timing
WARMUP_OPS = 250
#: shard count of the served database: fixed, never read from the
#: environment, so every run partitions the index the same way
SHARDS = 2
#: query-vector noise around a planted cluster centre
NOISE = 0.05
#: seed of the fixed query pools
POOL_SEED = 0


@dataclass
class Answer:
    """What one operation returned, plus what the traced run counts."""

    #: ``(obj_id, score)`` pairs, best first; None for writes
    items: list | None
    #: seconds from sending to the first streamed chunk (served ops)
    first_s: float | None = None
    depth: int = 0
    switched: bool = False
    chunks: int = 0
    frame_bytes: int = 0


def _items(result) -> list:
    return [(int(item.obj_id), float(item.score)) for item in result.items]


def _derived_seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Corpus:
    """The shared corpus: ``trec.ft_like(scale=1.0)`` plus the ``color``
    (16 bins) and ``texture`` (8 dimensions) feature spaces over the
    same objects, each with 8 planted clusters."""

    def __init__(self) -> None:
        self.collection = SyntheticCollection.generate(trec.ft_like(scale=1.0, seed=0))
        n = self.collection.n_docs
        self.color = color_histograms(n, bins=16, n_clusters=8, seed=1)
        self.texture = texture_features(n, dim=8, n_clusters=8, seed=2)

    def spaces(self):
        return {"color": self.color, "texture": self.texture}

    def unique_queries(self, count: int, terms: tuple[int, int], seed: int) -> list[str]:
        """``count`` distinct generated text queries, in random order.
        Every length in ``terms`` gets an equal share: the term count
        drives a query's cost, so a fixed mix of lengths keeps one
        seed's list from being heavier than another's."""
        lengths = list(range(terms[0], terms[1] + 1))
        seen: set = set()
        out: list[str] = []
        for position, length in enumerate(lengths):
            want = count // len(lengths) + (position < count % len(lengths))
            found = 0
            for batch_seed in _derived_seeds(seed, 101 + length, 64):
                batch = generate_queries(self.collection, n_queries=2 * want,
                                         terms_range=(length, length), seed=batch_seed)
                for query in batch:
                    if found < want and query.term_ids not in seen:
                        seen.add(query.term_ids)
                        out.append(query.text(self.collection))
                        found += 1
                if found == want:
                    break
            else:
                raise RuntimeError(f"could not generate {want} distinct {length}-term queries")
        np.random.default_rng([seed, 100]).shuffle(out)
        return out

    def vectors(self, space, count: int, seed: int) -> list[np.ndarray]:
        """``count`` query vectors near randomly chosen cluster centres."""
        rng = np.random.default_rng([seed, 7])
        return [query_near_cluster(space, int(rng.integers(0, 8)), noise=NOISE,
                                   seed=int(rng.integers(0, 2**31 - 1)))
                for _ in range(count)]

    def build(self, config: DatabaseConfig, *, fragment: bool = False,
              index=None) -> MMDatabase:
        """Index build plus registration: the database side of set-up.
        The oracle passes an already built ``index`` (the inverted
        index is immutable; every other structure is its own)."""
        db = (MMDatabase(self.collection, index, config) if index is not None
              else MMDatabase.from_collection(self.collection, config))
        if fragment:
            db.fragment()
        for name, space in self.spaces().items():
            db.add_feature_space(space, name)
        return db


@dataclass
class Workload:
    """Base: op lists, digest, and the timed-replay hooks."""

    name: str = ""
    exact: bool = True
    #: host-speed probe kind (see ``run.PROBES``)
    probe: str = "mixed"
    setup_ops: list = field(default_factory=list)
    warmup_ops: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    def templates(self) -> dict:
        raise NotImplementedError

    def matches(self, op, got: list, want: list) -> bool:
        """Exact workloads: ids, scores and order equal the oracle's."""
        return got == want

    def digest(self) -> str:
        """SHA-256 over the op lists and the templates they use."""
        def plain(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, dict):
                return {k: plain(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [plain(v) for v in value]
            return value

        payload = json.dumps(plain({"setup": self.setup_ops, "warmup": self.warmup_ops,
                                    "ops": self.ops, "templates": self.templates()}),
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def repeat_share(self) -> float:
        """Share of timed ops whose ``(kind, template)`` already
        appeared earlier in the list: the reuse a cache could exploit."""
        seen, repeats = set(), 0
        for op in self.ops:
            key = (op["kind"], op["t"])
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.ops)


# -- text_step1 ------------------------------------------------------------


class TextStep1(Workload):
    """The paper's Step 1: unique 2-8 term queries through
    ``db.search`` with the default strategy after ``fragment()`` — the
    indexed safe switch — with the cache off."""

    TIMED_OPS = 3000

    def __init__(self, corpus: Corpus, seed: int) -> None:
        super().__init__(name="text_step1", exact=False, probe="python")
        self.corpus = corpus
        self.queries = corpus.unique_queries(1 + WARMUP_OPS + self.TIMED_OPS, (2, 8), seed)
        kinds = [{"kind": "text", "t": i} for i in range(len(self.queries))]
        self.setup_ops = kinds[:1]
        self.warmup_ops = kinds[1:1 + WARMUP_OPS]
        self.ops = kinds[1 + WARMUP_OPS:]

    def templates(self) -> dict:
        return {"text": self.queries}

    def oracle(self, index) -> dict:
        db = self.corpus.build(DatabaseConfig(), index=index)
        return {("text", op["t"]): _items(db.search(self.queries[op["t"]], n=N,
                                                    strategy="unfragmented").result)
                for op in self.ops}

    def setup(self):
        db = self.corpus.build(DatabaseConfig(), fragment=True)
        system = LibrarySystem(db, self)
        for op in self.setup_ops:
            system.run(op)
        return system


# -- mm_fagin -----------------------------------------------------------------


class MMFagin(Workload):
    """The integrated multimedia query through the library: half
    ``feature_search`` over color and texture with TA, a quarter
    ``combined_search`` over text and color with TA, a quarter over text
    and texture with CA.  Operations repeat templates from a pool (the
    cache is off, so a repeat costs what the first run did); the pool
    bounds the oracle's exhaustive scoring."""

    TIMED_OPS = 1000
    POOL = {"feature": 32, "text_color": 16, "text_texture": 16}
    MIX = {"feature": 2, "text_color": 1, "text_texture": 1}

    def __init__(self, corpus: Corpus, seed: int) -> None:
        super().__init__(name="mm_fagin", exact=True)
        self.corpus = corpus
        s = _derived_seeds(POOL_SEED, 202, 8)
        pool = self.POOL
        combined = pool["text_color"] + pool["text_texture"]
        self.texts = corpus.unique_queries(combined, (2, 4), s[0])
        self.color = corpus.vectors(corpus.color, pool["feature"] + pool["text_color"], s[1])
        self.texture = corpus.vectors(corpus.texture,
                                      pool["feature"] + pool["text_texture"], s[2])
        rng = np.random.default_rng([seed, 203])
        self.setup_ops = [{"kind": kind, "t": 0} for kind in pool]
        self.warmup_ops = self._draw(rng, WARMUP_OPS)
        self.ops = self._draw(rng, self.TIMED_OPS)

    def _draw(self, rng, count: int) -> list:
        weight = sum(self.MIX.values())
        kinds = []
        for kind, share in self.MIX.items():
            kinds += [kind] * (count * share // weight)
        kinds += ["feature"] * (count - len(kinds))
        rng.shuffle(kinds)
        return [{"kind": kind, "t": int(rng.integers(0, self.POOL[kind]))} for kind in kinds]

    def templates(self) -> dict:
        return {"texts": self.texts, "color": self.color, "texture": self.texture}

    def request(self, op):
        """``(text, {space: vector}, algorithm)`` of one operation."""
        t, kind = op["t"], op["kind"]
        if kind == "feature":
            return None, {"color": self.color[t], "texture": self.texture[t]}, "ta"
        base = self.POOL["feature"]
        if kind == "text_color":
            return self.texts[t], {"color": self.color[base + t]}, "ta"
        return (self.texts[self.POOL["text_color"] + t],
                {"texture": self.texture[base + t]}, "ca")

    def matches(self, op, got: list, want: list) -> bool:
        """CA returns the exact top-N set, with exact scores for the
        candidates it completed and lower bounds for the rest, so a CA
        answer must hold the oracle's ids with no score above the exact
        one; TA answers must equal the oracle exactly."""
        if self.request(op)[2] != "ca":
            return got == want
        exact = dict(want)
        return (len(got) == len(want)
                and all(obj in exact and score <= exact[obj] + 1e-9 * max(1.0, exact[obj])
                        for obj, score in got))

    def oracle(self, index) -> dict:
        """Exhaustive ``naive_topn_sources`` over the same sources the
        facade builds: one postings source per known query term, then
        one feature source per space."""
        db = self.corpus.build(DatabaseConfig(), index=index)
        expected = {}
        for op in self.ops:
            key = (op["kind"], op["t"])
            if key in expected:
                continue
            text, vectors, _algorithm = self.request(op)
            sources = []
            for term in (text or "").split():
                if term in db.index.vocabulary:
                    sources.append(PostingsSource(
                        db.index, db.index.vocabulary.term_id(term), db.model))
            for name, vector in vectors.items():
                sources.append(feature_source(db.feature_spaces[name], vector))
            expected[key] = _items(naive_topn_sources(sources, N))
        return expected

    def setup(self):
        db = self.corpus.build(DatabaseConfig())
        system = LibrarySystem(db, self)
        for op in self.setup_ops:
            system.run(op)
        return system


class LibrarySystem:
    """In-process calls on one database (``text_step1``, ``mm_fagin``)."""

    def __init__(self, db: MMDatabase, workload) -> None:
        self.db = db
        self.workload = workload

    def run(self, op) -> Answer:
        if op["kind"] == "text":
            result = self.db.search(self.workload.queries[op["t"]], n=N).result
            return Answer(_items(result), switched=bool(result.stats.get("switched")))
        text, vectors, algorithm = self.workload.request(op)
        if text is None:
            result = self.db.feature_search(vectors, n=N, algorithm=algorithm).result
        else:
            result = self.db.combined_search(text, vectors, n=N, algorithm=algorithm).result
        return Answer(_items(result), depth=int(result.stats.get("depth", 0)))

    def cache_counters(self) -> dict | None:
        return None

    def close(self) -> None:
        self.db.close()


# -- serve_hot ----------------------------------------------------------------


class ServeHot(Workload):
    """Served hot traffic: one ``ServeClient`` connection to a
    ``ServerThread`` over a cache-enabled, 2-shard database.  About half
    the requests (``FEATURE_SHARE``) are feature queries streamed
    anytime with TA, the rest text queries with ``strategy="parallel"``;
    templates are Zipf-popular within each kind from pools far larger
    than the cache (64 entries), so the hot head hits and the tail
    misses.  Every ``WRITE_EVERY``-th operation is an in-process
    ``db.set_attribute`` that bumps the corpus epoch and invalidates the
    cache; the warm-up and the op list both end with one, so every pass
    starts from the same empty cache."""

    TIMED_OPS = 1000
    POOL = 512
    ZIPF = 1.0
    WRITE_EVERY = 250
    WRITE_COLUMNS = 4
    #: text requests take ~1 ms and feature requests ~8 ms: at exactly
    #: half each the median would sit on the gap between the two modes
    #: and jump with a handful of ops, so feature requests are a little
    #: over half and the median falls inside their mode
    FEATURE_SHARE = 0.55

    def __init__(self, corpus: Corpus, seed: int) -> None:
        super().__init__(name="serve_hot", exact=True)
        self.corpus = corpus
        s = _derived_seeds(POOL_SEED, 303, 8)
        self.texts = corpus.unique_queries(self.POOL, (2, 8), s[0])
        self.color = corpus.vectors(corpus.color, self.POOL, s[1])
        self.texture = corpus.vectors(corpus.texture, self.POOL, s[2])
        rng = np.random.default_rng([seed, 304])
        self.columns = [rng.integers(0, 1000, size=corpus.collection.n_docs)
                        for _ in range(self.WRITE_COLUMNS)]
        self.setup_ops = [{"kind": "feature", "t": 0}, {"kind": "text", "t": 0}]
        self.warmup_ops = self._draw(rng, WARMUP_OPS)
        self.ops = self._draw(rng, self.TIMED_OPS)

    def _draw(self, rng, count: int) -> list:
        popularity = 1.0 / np.arange(1, self.POOL + 1) ** self.ZIPF
        popularity /= popularity.sum()
        features = round(count * self.FEATURE_SHARE)
        kinds = ["feature"] * features + ["text"] * (count - features)
        rng.shuffle(kinds)
        ops = [{"kind": kind, "t": int(rng.choice(self.POOL, p=popularity))}
               for kind in kinds]
        for i in range(self.WRITE_EVERY - 1, count, self.WRITE_EVERY):
            ops[i] = {"kind": "write", "t": (i // self.WRITE_EVERY) % self.WRITE_COLUMNS}
        return ops

    def templates(self) -> dict:
        return {"texts": self.texts, "color": self.color, "texture": self.texture,
                "columns": self.columns}

    def config(self, cache: bool) -> DatabaseConfig:
        return DatabaseConfig(cache_enabled=cache, default_shards=SHARDS)

    def oracle(self, index) -> dict:
        """Direct library calls on a cache-less database of the same
        content; the served final chunk must equal them exactly."""
        db = self.corpus.build(self.config(cache=False), index=index)
        expected = {}
        try:
            for op in self.ops:
                key = (op["kind"], op["t"])
                if op["kind"] == "write" or key in expected:
                    continue
                if op["kind"] == "text":
                    result = db.search(self.texts[op["t"]], n=N, strategy="parallel").result
                else:
                    result = db.feature_search(self._vectors(op["t"]), n=N,
                                               algorithm="ta").result
                expected[key] = _items(result)
        finally:
            db.close()
        return expected

    def _vectors(self, t: int) -> dict:
        return {"color": self.color[t], "texture": self.texture[t]}

    def setup(self):
        db = self.corpus.build(self.config(cache=True))
        config = ServerConfig(
            tenants=(TenantConfig("bench", rate=1e9, burst=1e9, max_concurrent=4),),
            allow_unknown=False)
        server = ServerThread(db, config)
        handle = server.start()
        system = ServedSystem(db, server, ServeClient(handle.host, handle.port), self)
        for op in self.setup_ops:
            system.run(op)
        return system


class ServedSystem:
    """One client connection to one served database."""

    def __init__(self, db, server, client, workload: ServeHot) -> None:
        self.db = db
        self.server = server
        self.client = client
        self.workload = workload
        #: the traced run turns this on to count response bytes
        self.count_bytes = False

    def run(self, op) -> Answer:
        w = self.workload
        started = time.perf_counter()
        if op["kind"] == "write":
            self.db.set_attribute("popularity", w.columns[op["t"]])
            return Answer(None)
        if op["kind"] == "text":
            frames = self.client.query(tenant="bench", kind="text", n=N,
                                       query=w.texts[op["t"]], strategy="parallel")
        else:
            frames = self.client.query(tenant="bench", kind="feature", n=N,
                                       algorithm="ta", queries=w._vectors(op["t"]))
        first = None
        chunks = []
        frame_bytes = 0
        for frame in frames:
            if first is None:
                first = time.perf_counter() - started
            if self.count_bytes:
                frame_bytes += 4 + len(json.dumps(frame, separators=(",", ":")).encode())
            if frame["type"] == "chunk":
                chunks.append(frame)
            elif frame["type"] == "error":
                raise_error(frame)
        final = chunks[-1] if chunks and chunks[-1]["final"] else None
        if final is None:
            raise RuntimeError(f"stream ended without a final chunk: {op}")
        return Answer([(int(i), float(s)) for i, s in final["items"]], first_s=first,
                      depth=int(final["depth"]) if op["kind"] == "feature" else 0,
                      chunks=len(chunks), frame_bytes=frame_bytes)

    def cache_counters(self) -> dict:
        return self.db.cache.counters()

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.db.close()


WORKLOADS = {"text_step1": TextStep1, "mm_fagin": MMFagin, "serve_hot": ServeHot}
