"""Integration: the parallel strategy through MMDatabase, the query
server, the CLI and the profile metrics snapshot."""

import io
import json
import threading

import pytest

from repro.cli import main
from repro.core import DatabaseConfig, MMDatabase
from repro.errors import ReproError
from repro.parallel import IndexShardEvaluator
from repro.serve import ServeClient, ServerThread, collect
from repro.serve.server import _TextRunner
from repro.workloads import SyntheticCollection, generate_queries, trec

SCALE = ["--scale", "0.006", "--seed", "3"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def db():
    collection = SyntheticCollection.generate(trec.tiny(seed=13))
    database = MMDatabase.from_collection(collection)
    database.fragment()
    yield database
    database.close()


@pytest.fixture(scope="module")
def query(db):
    generated = generate_queries(db.collection, n_queries=1,
                                 terms_range=(3, 6), seed=2).queries[0]
    return " ".join(db.collection.term_strings[t] for t in generated.term_ids)


class TestDatabaseStrategy:
    def test_parallel_matches_naive(self, db, query):
        db.shard(3)
        naive = db.search(query, n=10, strategy="naive")
        parallel = db.search(query, n=10, strategy="parallel")
        assert parallel.result.doc_ids == naive.result.doc_ids
        assert parallel.result.scores == naive.result.scores
        assert parallel.result.certified is True
        assert parallel.result.stats["shards"] == 3

    def test_auto_shards_on_first_parallel_search(self, query):
        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        fresh = MMDatabase.from_collection(collection,
                                           config=DatabaseConfig(default_shards=2))
        try:
            assert fresh.sharded is None
            result = fresh.search(query, n=5, strategy="parallel")
            assert fresh.sharded.n_shards == 2
            assert result.result.certified is True
        finally:
            fresh.close()

    def test_parallel_as_default_strategy(self, query):
        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        fresh = MMDatabase.from_collection(
            collection, config=DatabaseConfig(default_strategy="parallel",
                                              default_shards=2))
        try:
            result = fresh.search(query, n=5)
            assert result.result.strategy == "parallel"
        finally:
            fresh.close()

    def test_stats_report_sharding(self, db):
        db.shard(3)
        stats = db.stats()
        assert stats["shards"] == 3
        assert stats["shard_skew"] >= 1.0


class TestShardsRunInline:
    """Every shard evaluator runs on the thread that runs the query,
    and no thread is started for it."""

    @pytest.fixture()
    def shard_threads(self, monkeypatch):
        idents = []
        top = IndexShardEvaluator.top

        def recording_top(self, depth):
            idents.append(threading.get_ident())
            return top(self, depth)

        monkeypatch.setattr(IndexShardEvaluator, "top", recording_top)
        return idents

    @pytest.mark.parametrize("default_shards", [None, 4])
    def test_facade_search_evaluates_shards_on_calling_thread(
            self, query, shard_threads, default_shards):
        """Auto-sharded on first use: 2 shards with no count
        configured, else the configured count."""
        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        fresh = MMDatabase.from_collection(
            collection, config=DatabaseConfig(default_shards=default_shards))
        before = set(threading.enumerate())
        try:
            result = fresh.search(query, n=10, strategy="parallel")
        finally:
            fresh.close()
        shards = default_shards or 2
        assert result.result.stats["shards"] == shards
        assert result.result.certified is True
        assert len(shard_threads) >= shards  # every shard, round 1
        assert set(shard_threads) == {threading.get_ident()}
        assert set(threading.enumerate()) <= before

    def test_served_text_query_evaluates_shards_on_step_thread(
            self, query, shard_threads, monkeypatch):
        step_threads = []
        step = _TextRunner.step

        def recording_step(self):
            step_threads.append(threading.get_ident())
            return step(self)

        monkeypatch.setattr(_TextRunner, "step", recording_step)
        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        fresh = MMDatabase.from_collection(collection)
        fresh.shard(4)
        server = ServerThread(fresh)
        handle = server.start()
        try:
            with ServeClient(handle.host, handle.port) as client:
                served = collect(client.query(kind="text", query=query, n=10,
                                              strategy="parallel"))
        finally:
            server.stop()
            fresh.close()
        assert served.complete
        assert len(step_threads) == 1
        assert len(shard_threads) >= 4
        assert set(shard_threads) == set(step_threads)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-shard")]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"default_shards": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ReproError):
            DatabaseConfig(**kwargs).validate()

    def test_defaults_accepted(self):
        config = DatabaseConfig()
        config.validate()
        assert config.default_shards is None


class TestCli:
    def test_search_parallel_strategy(self, db, query):
        code, text = run_cli(SCALE + ["search", *query.split(),
                                      "--strategy", "parallel", "--shards", "2"])
        assert code in (0, 1)  # tiny scale may not know the terms
        assert "strategy=parallel" in text or "no results" in text

    def test_profile_json_includes_parallel_metrics(self):
        code, text = run_cli(SCALE + ["profile", "topn", "--shards", "2",
                                      "--objects", "200", "--json"])
        assert code == 0
        payload = json.loads(text)
        counters = payload["metrics"]["counters"]
        assert counters["parallel.rounds"] >= 1
        assert "parallel.probes" in counters
        assert "parallel.probes_saved" in counters

    def test_profile_search_with_shards(self):
        code, text = run_cli(SCALE + ["profile", "search", "--terms", "data",
                                      "--shards", "2", "--json"])
        assert code == 0
        payload = json.loads(text)
        span_names = {span["name"] for root in payload["spans"]
                      for span in _walk(root)}
        assert "topn.parallel" in span_names
        assert "parallel.round" in span_names
        assert "parallel.shard" in span_names


def _walk(span):
    yield span
    for child in span.get("children", []):
        yield from _walk(child)
