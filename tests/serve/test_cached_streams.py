"""Served TA feature streams from the query cache against cold streams.

With the cache on, a TA feature stream looks its request up before any
source is built (:meth:`~repro.core.MMDatabase.feature_stream`).  A
hit is the completed run stored at exactly the stream's ``n`` with its
frontier, and the stream's chunks are cut from it: the frames must be
the cold stream's byte for byte (the resume token aside), and the hit
must build no source, call no engine and charge nothing.  A miss runs
as a cold stream and stores its final run, which later streams and the
library's ``feature_search`` share with the library's own runs.  A
write between store and lookup must never serve the stale entry, and a
stream whose epoch moved mid-stream must not be stored.
"""

import threading

import numpy as np
import pytest

from repro.core import DatabaseConfig, MMDatabase
from repro.core import database as database_module
from repro.mm.features import FeatureSpace
from repro.serve import ServeClient, ServerConfig, ServerThread, collect, session
from repro.serve.protocol import encode_frame
from repro.serve.session import AnytimeRunner
from repro.serve.tenants import TenantConfig
from repro.storage import CostCounter
from repro.workloads import SyntheticCollection, trec

from tests.serve.test_anytime_differential import (
    stop_by_deadline_after_every_chunk,
    stop_by_disconnect_after_every_chunk,
    stripped,
)

DIMS = 6
SPACES = ("color", "texture")
TOKEN = "sv1.x.0"


def build_db(cache: bool = True, seed: int = 41) -> MMDatabase:
    """Two spaces over the same 3,000 vectors of few distinct values:
    many objects share a grade, so tie order decides the answers."""
    collection = SyntheticCollection.generate(trec.small(seed=seed))
    db = MMDatabase.from_collection(collection, DatabaseConfig(cache_enabled=cache))
    vectors = np.random.default_rng(seed).integers(0, 3, (collection.n_docs, DIMS)) / 2.0
    for name in SPACES:
        db.add_feature_space(FeatureSpace(name, vectors.copy()))
    return db


def make_query(seed: int) -> dict:
    """Opposite corners in the two spaces: the two lists disagree, so TA
    reads deep (past its first slabs at ``n`` 10 and 60) and a stream's
    last run resumes an earlier one."""
    query = np.random.default_rng(seed).integers(0, 3, DIMS) / 2.0
    return {"color": query, "texture": 1.0 - query}


def served_runner(db, query, n, chunk_depth):
    """The runner the server builds for a TA feature request."""
    stream = db.feature_stream(query, n, "ta")
    return AnytimeRunner(stream.sources, n, "ta", epoch=stream.epoch,
                         chunk_depth=chunk_depth, run=stream.run, store=stream.store)


def cold_runner(db, query, n, chunk_depth):
    """A stream over freshly built sources, bypassing the cache."""
    return AnytimeRunner(db.feature_sources(query), n, "ta", epoch=db.epoch,
                         chunk_depth=chunk_depth)


def drain(runner, limit=64):
    """Every chunk's encoded frame and the stream's summed charges."""
    frames = []
    with CostCounter.activate() as cost:
        while not runner.finished:
            frames.append(encode_frame(runner.step().to_frame(TOKEN)))
            assert len(frames) <= limit, "stream never reached a final chunk"
    return frames, cost.snapshot()


def counters(db):
    c = db.cache.counters()
    return c["hits"], c["misses"], c["stores"]


@pytest.fixture
def db():
    database = build_db()
    yield database
    database.close()


class TestFramesEqualCold:
    @pytest.mark.parametrize("chunk_depth", [1, 4, 32])
    @pytest.mark.parametrize("n", [1, 10, 60])
    def test_miss_then_hit_equal_the_cold_stream(self, db, n, chunk_depth):
        for seed in range(3):
            query = make_query(seed)
            cold, _ = drain(cold_runner(db, query, n, chunk_depth))
            hits, misses, stores = counters(db)
            missed, _ = drain(served_runner(db, query, n, chunk_depth))
            assert counters(db) == (hits, misses + 1, stores + 1)
            served, _ = drain(served_runner(db, query, n, chunk_depth))
            assert counters(db) == (hits + 1, misses + 1, stores + 1)
            assert missed == cold
            assert served == cold

    def test_hit_cut_at_another_chunk_depth(self, db):
        """The stored run serves any chunk schedule."""
        query = make_query(7)
        drain(served_runner(db, query, 10, 32))
        for chunk_depth in (1, 3, 100):
            served, _ = drain(served_runner(db, query, 10, chunk_depth))
            assert served == drain(cold_runner(db, query, 10, chunk_depth))[0]
        assert db.cache.counters()["hits"] == 3


class TestHitDoesNoWork:
    def test_no_source_no_engine_no_charge(self, db, monkeypatch):
        query = make_query(1)
        drain(served_runner(db, query, 10, 1))
        scans, runs = [], []
        scan, engine = database_module.feature_source, session.threshold_topn

        def counting_scan(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        def counting_engine(*args, **kwargs):
            runs.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(database_module, "feature_source", counting_scan)
        monkeypatch.setattr(session, "threshold_topn", counting_engine)
        with CostCounter.activate() as cost:
            runner = served_runner(db, query, 10, 1)
            frames, _ = drain(runner)
        assert runner.sources is None
        assert (scans, runs) == ([], [])
        assert all(value == 0 for value in cost.snapshot().values())
        # the same counters see a miss's work
        drain(served_runner(db, make_query(2), 10, 1))
        assert len(scans) == len(SPACES) and runs
        assert len(frames) > 3

    def test_another_n_is_no_hit(self, db):
        query = make_query(3)
        drain(served_runner(db, query, 10, 4))
        for n in (5, 11):
            hits, misses, stores = counters(db)
            served, _ = drain(served_runner(db, query, n, 4))
            assert counters(db) == (hits, misses + 1, stores + 1)
            assert served == drain(cold_runner(db, query, n, 4))[0]

    def test_frontier_at_another_n_is_no_hit(self, db):
        """The entry holds the answer at ``n`` but the frontier of a
        deeper run: no stream at ``n`` is cut from it."""
        query = make_query(3)
        db.feature_search(query, n=10, algorithm="ta")
        db.feature_search(query, n=30, algorithm="ta")
        hits, misses, stores = counters(db)
        served, _ = drain(served_runner(db, query, 10, 4))
        assert counters(db) == (hits, misses + 1, stores + 1)
        assert served == drain(cold_runner(db, query, 10, 4))[0]

    def test_other_algorithms_do_not_look_up(self, db):
        query = make_query(4)
        for algorithm in ("nra", "ca"):
            stream = db.feature_stream(query, 10, algorithm)
            assert stream.run is None and stream.store is None
            assert len(stream.sources) == len(SPACES)
        assert counters(db) == (0, 0, 0)


class TestEpochs:
    def test_write_between_store_and_lookup(self, db):
        query = make_query(5)
        drain(served_runner(db, query, 10, 4))
        db.set_attribute("popularity", np.arange(db.collection.n_docs))
        hits, misses, stores = counters(db)
        served, _ = drain(served_runner(db, query, 10, 4))
        assert counters(db) == (hits, misses + 1, stores + 1)
        assert served == drain(cold_runner(db, query, 10, 4))[0]

    def test_stream_across_a_write_is_not_stored(self, db):
        query = make_query(6)
        runner = served_runner(db, query, 10, 1)
        runner.step()
        db.set_attribute("popularity", np.arange(db.collection.n_docs))
        stores = db.cache.counters()["stores"]
        while not runner.finished:
            runner.step()
        assert db.cache.counters()["stores"] == stores
        assert len(db.cache) == 0
        hits = db.cache.counters()["hits"]
        drain(served_runner(db, query, 10, 1))
        assert db.cache.counters()["hits"] == hits


class TestSharedWithTheLibrary:
    def test_stream_serves_the_library(self, db):
        query = make_query(14)
        cold_db = MMDatabase(db.collection, db.index)
        cold_db.feature_spaces = db.feature_spaces
        cold = cold_db.feature_search(query, n=10, algorithm="ta").result
        assert cold.stats["depth"] > 256
        drain(served_runner(db, query, 10, 1))
        hits = db.cache.counters()["hits"]
        warm = db.feature_search(query, n=10, algorithm="ta")
        assert db.cache.counters()["hits"] == hits + 1
        assert warm.result.stats.pop("cache") == "hit"
        assert warm.result.stats.pop("cache_source_n") == 10
        assert warm.result.items == cold.items
        assert warm.result.stats == cold.stats
        assert warm.cost.snapshot() == CostCounter().snapshot()

    def test_library_serves_the_stream(self, db):
        query = make_query(9)
        db.feature_search(query, n=10, algorithm="ta")
        hits = db.cache.counters()["hits"]
        served, cost = drain(served_runner(db, query, 10, 4))
        assert db.cache.counters()["hits"] == hits + 1
        assert served == drain(cold_runner(db, query, 10, 4))[0]
        assert all(value == 0 for value in cost.values())

    def test_resumed_library_run_serves_the_stream(self, db):
        """A library run at a larger ``n`` resumes a smaller one's
        frontier; the entry it leaves still cuts a cold stream."""
        query = make_query(10)
        db.feature_search(query, n=5, algorithm="ta")
        db.feature_search(query, n=20, algorithm="ta")
        assert db.cache.counters()["resumes"] == 1
        served, _ = drain(served_runner(db, query, 20, 2))
        assert db.cache.counters()["hits"] == 1
        assert served == drain(cold_runner(db, query, 20, 2))[0]


# -- through a live server ---------------------------------------------------------


@pytest.fixture(scope="module")
def live():
    database = build_db()
    unlimited = TenantConfig("default", rate=1e9, burst=1e9)
    thread = ServerThread(database, ServerConfig(chunk_depth=1, tenants=(unlimited,)))
    handle = thread.start()
    yield database, handle
    thread.stop()
    database.close()


@pytest.fixture(scope="module")
def stream_query():
    return make_query(11)


@pytest.fixture(scope="module")
def uninterrupted(live, stream_query):
    """The cold stream's frames; the first served stream stores its run."""
    db, handle = live
    runner = cold_runner(db, stream_query, 10, 1)
    expected = []
    while not runner.finished:
        expected.append(runner.step().to_frame(None))
    assert len(expected) >= 5
    with ServeClient(handle.host, handle.port) as client:
        first = collect(client.query(queries=stream_query, n=10, chunk_depth=1))
    assert stripped(first.chunks) == expected
    hits = db.cache.counters()["hits"]
    with ServeClient(handle.host, handle.port) as client:
        second = collect(client.query(queries=stream_query, n=10, chunk_depth=1))
    assert stripped(second.chunks) == expected
    assert db.cache.counters()["hits"] == hits + 1
    return expected


class TestLiveHits:
    def test_disconnect_after_every_chunk(self, live, stream_query, uninterrupted,
                                          monkeypatch):
        db, handle = live
        hits = db.cache.counters()["hits"]
        stop_by_disconnect_after_every_chunk(handle, stream_query, "ta", uninterrupted,
                                             monkeypatch)
        assert db.cache.counters()["hits"] == hits + len(uninterrupted) - 1

    def test_deadline_after_every_chunk(self, live, stream_query, uninterrupted,
                                        monkeypatch):
        db, handle = live
        hits = db.cache.counters()["hits"]
        stop_by_deadline_after_every_chunk(handle, stream_query, "ta", uninterrupted,
                                           monkeypatch)
        assert db.cache.counters()["hits"] == hits + len(uninterrupted)

    def test_two_connections_stream_one_fingerprint(self, live):
        """Concurrent streams of one request, cold and warm, share one
        entry: every stream equals the cold one."""
        db, handle = live
        for seed in (12, 13, 14):
            query = make_query(seed)
            runner = cold_runner(db, query, 10, 1)
            expected = []
            while not runner.finished:
                expected.append(runner.step().to_frame(None))
            results, errors = [], []

            def stream(query=query):
                try:
                    with ServeClient(handle.host, handle.port) as client:
                        for _ in range(4):
                            results.append(collect(client.query(
                                queries=query, n=10, chunk_depth=1)))
                except Exception as exc:  # noqa: BLE001 - surface to the test
                    errors.append(repr(exc))

            threads = [threading.Thread(target=stream) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert len(results) == 8
            for result in results:
                assert result.complete
                assert stripped(result.chunks) == expected
