"""Golden of the sharded text path: answers, charged costs and the
coordinator's round statistics.

Twenty ``trec.tiny`` queries run through ``MMDatabase.search(...,
strategy="parallel")`` at K = 1, 2, 4 and 7 shards, once with the cache
off (n=10) and once with it on (a pass at n=10, then a pass at n=20, so
the second pass is seeded by the first pass's
:class:`~repro.cache.CoordinatorBounds`).  Each query contributes its
items, every :class:`~repro.storage.stats.CostCounter` field and the
coordinator ``stats`` listed in ``STATS``; ``DIGESTS`` is the sha256 of
each run's canonical JSON.  The digests were recorded when shards still
ran on an executor pool, with its inline (``serial``) kind, whose
probe order and live re-check the inline coordinator keeps.  A change
that moves any answer or any count must update them on purpose.
"""

import hashlib
import json

import pytest

from repro.core import DatabaseConfig, MMDatabase
from repro.ir import InvertedIndex
from repro.storage.buffer import BufferManager, set_buffer_manager
from repro.workloads import SyntheticCollection, generate_queries, trec

STATS = ("rounds", "probes", "live_skipped", "items_shipped",
         "bound_served", "bound_pruned")

DIGESTS = {
    (1, False): "24aca93866b267ef9cf690eed15e5dd4d2cba31e045f785fdf0666c3400ad02a",
    (1, True): "7ed99107fc88556b6d97373e63bfd5dda84c1666875ad27e54d832cb3836b929",
    (2, False): "7b2a63138fb073a282452c464ef8a2d4b27a8d01a089e5d090763dc0ac7cecfd",
    (2, True): "cd87b121b956214c5c39be560ab3a81f48fed53e3a5d6205b9a6ff275613f3f9",
    (4, False): "f246699b5a4a77a1668fce9f2019a6e0aeee773a8d1c6e1a3f2291c88a88fb9a",
    (4, True): "750a3bc864cadaa2440960156c6c7b68563891c774033e3154ecc17647acb9ee",
    (7, False): "854f800c4226d5cfa84df228c5b5dfd089791e0b51ecb77809ebc9d05777d1dd",
    (7, True): "435642a9ae11367869c224a73e47169be4c48e7b8ef067e88c6dc7484f0ee386",
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
                    "certified": result.certified,
                })
        return records
    finally:
        db.close()
        set_buffer_manager(previous)


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_parallel_search_matches_golden(corpus, shards, cache):
    collection, index, queries = corpus
    records = run_records(collection, index, queries, shards, cache)
    assert all(record["certified"] for record in records)
    assert digest(records) == DIGESTS[(shards, cache)]
