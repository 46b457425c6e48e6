"""Golden of the sharded text path: answers, charged costs and the
coordinator's statistics.

Twenty ``trec.tiny`` queries run through ``MMDatabase.search(...,
strategy="parallel")`` at K = 1, 2, 4 and 7 shards, once with the cache
off (n=10) and once with it on (a pass at n=10, then a pass at n=20).
Each run yields two sha256 digests of canonical JSON:

* ``ITEMS_DIGESTS`` over every query's items.  The sharded answer is
  serial ``naive_topn``'s at every K, so there is one digest per cache
  mode, and no change to the coordinator may move it.
* ``COST_DIGESTS`` over every :class:`~repro.storage.stats.CostCounter`
  field and the coordinator ``stats`` listed in ``STATS``.  A change
  that moves any count must update them on purpose.
"""

import hashlib
import json

import pytest

from repro.core import DatabaseConfig, MMDatabase
from repro.ir import InvertedIndex
from repro.storage.buffer import BufferManager, set_buffer_manager
from repro.workloads import SyntheticCollection, generate_queries, trec

STATS = ("shards", "items_shipped", "candidates")

ITEMS_DIGESTS = {
    False: "e0351e6d550d8f22ed5c9394e14ff8b13e89b7c93025c0711bc57ac1dae64933",
    True: "62b14662d3745d617acd8bc8ad62058233c659d6e03ad79df3c3a8d81dc3b7a7",
}

COST_DIGESTS = {
    (1, False): "a878ddb4efe9116fdcca006b0b014edfa1e0096f6ee86a782b7e99cba90ab138",
    (1, True): "f71d0d25b7ba1560a1801aba63a2686cc014d599c895cc0761108a7a197aaad1",
    (2, False): "00e968f4c0c9bde9d2c52f3c96bda1ac50a03c3700def10089c18dffcdccbbd2",
    (2, True): "7fb4fc5f291f5494825d687bf81d232c387f8a914442ccc299812ad398b0b9c1",
    (4, False): "365ccf8e36bfcde203ef9f7b00221eb2a90c998eb8e8d3f0e33bc17db38972ea",
    (4, True): "0a325beafa8deaea0687472856f3fa1da110c87a141750b316a8c5e9d9870bb3",
    (7, False): "72dab9d2a80774aec053bc01718a09bc1e91ced137219d3276a1f8118e543b01",
    (7, True): "f3fc12e8e97ab98e7f3c12edf452f2d598e3743a4933a08a487f93bd16bc71f7",
}


@pytest.fixture(scope="module")
def corpus():
    collection = SyntheticCollection.generate(trec.tiny(seed=21))
    index = InvertedIndex.build(collection)
    queries = generate_queries(collection, n_queries=20, terms_range=(2, 8), seed=5)
    return collection, index, [list(map(int, q.term_ids)) for q in queries.queries]


def run_records(collection, index, queries, shards: int, cache: bool) -> list:
    """Per-query records of one fresh database (and a fresh buffer
    pool, so page reads and hits do not depend on earlier tests)."""
    previous = set_buffer_manager(BufferManager())
    db = MMDatabase(collection, index, DatabaseConfig(cache_enabled=cache))
    try:
        db.shard(shards)
        records = []
        for n in ((10, 20) if cache else (10,)):
            for tids in queries:
                search = db.search(tids, n=n, strategy="parallel")
                result = search.result
                records.append({
                    "n": n,
                    "items": [[item.obj_id, repr(item.score)] for item in result.items],
                    "cost": search.cost.snapshot(),
                    "stats": {key: result.stats.get(key) for key in STATS},
                })
        return records
    finally:
        db.close()
        set_buffer_manager(previous)


def digest(records: list, *keys: str) -> str:
    """sha256 of the canonical JSON of ``keys`` of every record."""
    projected = [{key: record[key] for key in ("n", *keys)} for record in records]
    return hashlib.sha256(json.dumps(projected, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_parallel_search_matches_golden(corpus, shards, cache):
    collection, index, queries = corpus
    records = run_records(collection, index, queries, shards, cache)
    assert digest(records, "items") == ITEMS_DIGESTS[cache]
    assert digest(records, "cost", "stats") == COST_DIGESTS[(shards, cache)]
