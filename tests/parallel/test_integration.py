"""Integration: the parallel strategy through MMDatabase, the CLI, the
profile metrics snapshot and the environment default."""

import io
import json

import pytest

from repro.cli import main
from repro.core import DatabaseConfig, MMDatabase
from repro.errors import AdmissionRejectedError, ReproError
from repro.parallel import DEFAULT_SHARDS_ENV, default_shard_count
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

    def test_admission_rejection_surfaces(self, db, query):
        db.shard(2)
        pool = db._parallel_pool()
        original = pool.max_queries
        pool.max_queries = 1
        try:
            with pool.admit():
                with pytest.raises(AdmissionRejectedError):
                    db.search(query, n=5, strategy="parallel")
        finally:
            pool.max_queries = original

    def test_stats_report_sharding(self, db):
        db.shard(3)
        stats = db.stats()
        assert stats["shards"] == 3
        assert stats["shard_skew"] >= 1.0


class TestEnvironmentDefault:
    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "4")
        assert default_shard_count() == 4
        assert default_shard_count(fallback=9) == 4

    @pytest.mark.parametrize("raw", ["", "0", "-3", "two", "2.5"])
    def test_invalid_env_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, raw)
        assert default_shard_count(fallback=3) == 3

    def test_db_shard_honors_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "4")
        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        database = MMDatabase.from_collection(collection)
        try:
            database.shard()
            assert database.sharded.n_shards == 4
        finally:
            database.close()


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
        assert "parallel.queue_depth" in payload["metrics"]["gauges"]

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
