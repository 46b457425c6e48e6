"""Satellite stress test: the parallel conformance matrix (shards {2,4,7},
thread executor, concurrent queries) executed under the runtime race
sanitizer.  Zero sanitizer reports, and every ranking identical to the
serial reference."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import sync
from repro.core import MMDatabase
from repro.storage.buffer import BufferManager, set_buffer_manager
from repro.workloads import SyntheticCollection, generate_queries, trec

SHARD_MATRIX = (2, 4, 7)
N_QUERIES = 6
TOP_N = 10


@pytest.fixture(scope="module")
def db():
    collection = SyntheticCollection.generate(trec.tiny(seed=13))
    database = MMDatabase.from_collection(collection)
    database.fragment()
    yield database
    database.close()


@pytest.fixture(scope="module")
def queries(db):
    generated = generate_queries(db.collection, n_queries=N_QUERIES,
                                 terms_range=(3, 6), seed=7)
    return [" ".join(db.collection.term_strings[t] for t in q.term_ids)
            for q in generated.queries]


@pytest.fixture(scope="module")
def reference(db, queries):
    """Serial naive rankings, computed once before any sanitized run."""
    return {q: db.search(q, n=TOP_N, strategy="naive") for q in queries}


@pytest.fixture()
def sanitized_buffer():
    """Install the sanitizer and a fresh BufferManager created *under* it,
    so the pool containers are access-recording proxies."""
    sync.install_sanitizer()
    fresh = BufferManager(capacity_pages=16)
    previous = set_buffer_manager(fresh)
    sync.reset_violations()
    try:
        yield
    finally:
        set_buffer_manager(previous)
        sync.uninstall_sanitizer()


@pytest.mark.parametrize("shards", SHARD_MATRIX)
def test_concurrent_parallel_search_is_race_free(db, queries, reference,
                                                shards, sanitized_buffer):
    db.shard(shards)
    with ThreadPoolExecutor(max_workers=4) as outer:
        futures = [(q, outer.submit(db.search, q, n=TOP_N,
                                    strategy="parallel"))
                   for q in queries for _ in range(2)]
        results = [(q, f.result()) for q, f in futures]

    violations = sync.violations()
    assert violations == (), "\n".join(v.render() for v in violations)

    for q, outcome in results:
        expected = reference[q]
        assert outcome.result.doc_ids == expected.result.doc_ids, q
        assert outcome.result.scores == expected.result.scores, q
        assert outcome.result.stats["shards"] == shards


def test_sanitized_matrix_covers_every_shard_count():
    assert SHARD_MATRIX == (2, 4, 7)
