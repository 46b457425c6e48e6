"""Two-thread cache stress: concurrent lookups, stores and resumes on
one shared cache must stay linearizable and race-free.

CI runs this file again with ``REPRO_SANITIZE=1`` so the runtime race
sanitizer checks every shared-state access against the ``repro.sync``
declarations — zero violations is part of the cache acceptance bar.
"""

import threading

import numpy as np

import pytest

from repro.cache import QueryCache, QueryFingerprint
from repro.core import DatabaseConfig, MMDatabase
from repro.mm import FeatureSpace
from repro.topn.result import RankedItem, TopNResult
from repro.workloads import SyntheticCollection, trec

THREADS = 2
ROUNDS = 60


def fp(i, epoch=0):
    return QueryFingerprint(kind="text", terms=(i,), aggregate="bm25", epoch=epoch)


def result(n):
    return TopNResult(items=[RankedItem(i, 1.0 - i / 100) for i in range(n)],
                      n_requested=n, strategy="naive", safe=True)


class TestQueryCacheStress:
    def test_concurrent_lookup_store_evict(self):
        cache = QueryCache(max_entries=8)
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(tid):
            try:
                barrier.wait()
                for round_no in range(ROUNDS):
                    key = (tid * ROUNDS + round_no) % 12
                    cache.store(fp(key), 10, result(10))
                    served, entry = cache.lookup(fp(key), 5)
                    if served is not None and served.doc_ids != [0, 1, 2, 3, 4]:
                        errors.append(("bad prefix", tid, round_no))
                    cache.note_resume()
                    if round_no % 10 == 0:
                        cache.invalidate_below_epoch(0)  # no-op, takes the lock
            except Exception as exc:  # noqa: BLE001 - surface to the test
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        counters = cache.counters()
        assert counters["stores"] == THREADS * ROUNDS
        assert counters["resumes"] == THREADS * ROUNDS
        assert counters["entries"] <= 8

    @pytest.mark.parametrize("algorithm", ["nra", "ca"])
    def test_concurrent_resumes_of_one_entry(self, algorithm):
        """Two threads resuming one cache entry's bound state at
        alternating depths: every answer is the cold one."""
        collection = SyntheticCollection.generate(trec.tiny(seed=31))
        rng = np.random.default_rng(32)
        space = FeatureSpace("stress", rng.random((collection.n_docs, 4)))
        query = {"stress": rng.random(4)}

        def database(cache):
            db = MMDatabase.from_collection(collection, DatabaseConfig(cache_enabled=cache))
            db.add_feature_space(space)
            return db

        depths = (5, 25, 12, 40)
        cold_db = database(cache=False)
        cold = {n: cold_db.feature_search(query, n=n, algorithm=algorithm).result
                for n in depths}
        db = database(cache=True)
        db.feature_search(query, n=3, algorithm=algorithm)  # the entry's first state
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(tid):
            try:
                barrier.wait()
                for round_no in range(10):
                    n = depths[(tid + round_no) % len(depths)]
                    got = db.feature_search(query, n=n, algorithm=algorithm).result
                    if got.doc_ids != cold[n].doc_ids or got.scores != cold[n].scores:
                        errors.append(("diverged", tid, n))
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cold_db.close()
        db.close()
        assert errors == []
        assert db.cache.counters()["resumes"] >= 1

    def test_no_sanitizer_violations_recorded(self):
        """When the runtime sanitizer is armed (CI: REPRO_SANITIZE=1),
        the stress runs above must have recorded zero violations."""
        from repro import sync

        if sync.sanitizer_active():
            assert sync.violations() == ()
