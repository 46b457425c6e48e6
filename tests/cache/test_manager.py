"""Serving discipline of :class:`repro.cache.manager.QueryCache`:
exact hits, complete and prefix serves, demotion, LRU eviction,
epoch garbage collection and counter lifecycle."""

from repro.cache import QueryCache, QueryFingerprint
from repro.obs import metrics
from repro.topn.result import RankedItem, TopNResult


def fp(terms=(1,), epoch=0, **kw):
    return QueryFingerprint(kind="text", terms=tuple(terms), aggregate="bm25",
                            epoch=epoch, **kw)


def result(n, total=None, strategy="naive"):
    total = n if total is None else total
    items = [RankedItem(i, 1.0 - i / 100) for i in range(total)]
    return TopNResult(items=items, n_requested=n, strategy=strategy, safe=True)


class TestServeModes:
    def test_exact_hit(self):
        cache = QueryCache()
        cache.store(fp(), 10, result(10))
        served, entry = cache.lookup(fp(), 10)
        assert served is not None and entry is not None
        assert served.doc_ids == result(10).doc_ids
        assert served.stats["cache"] == "hit"
        assert cache.counters()["hits"] == 1

    def test_miss_counted_and_entry_exposed(self):
        cache = QueryCache()
        cache.store(fp(), 10, result(10))
        served, entry = cache.lookup(fp(), 50)  # deeper than cached
        assert served is None
        assert entry is not None  # the resume opportunity
        assert cache.counters()["misses"] == 1

    def test_prefix_serve_from_deeper_entry(self):
        cache = QueryCache()
        cache.store(fp(), 100, result(100))
        served, _ = cache.lookup(fp(), 10)
        assert served is not None
        assert served.doc_ids == [item.obj_id for item in result(100).items[:10]]
        assert served.stats["cache"] == "hit-prefix"
        assert served.stats["cache_source_n"] == 100
        assert served.n_requested == 10

    def test_smallest_covering_prefix_preferred(self):
        cache = QueryCache()
        cache.store(fp(), 100, result(100))
        cache.store(fp(), 20, result(20))
        served, _ = cache.lookup(fp(), 15)
        assert served.stats["cache_source_n"] == 20

    def test_non_prefix_safe_serves_exact_only(self):
        cache = QueryCache()
        cache.store(fp(), 100, result(100, strategy="nra"), prefix_safe=False)
        assert cache.lookup(fp(), 100)[0] is not None
        assert cache.lookup(fp(), 10)[0] is None

    def test_demotion_poisons_prefix_serving(self):
        cache = QueryCache()
        cache.store(fp(), 100, result(100))
        cache.store(fp(), 50, result(50), prefix_safe=False)
        # the whole entry is demoted: exact depths only now
        assert cache.lookup(fp(), 100)[0] is not None
        assert cache.lookup(fp(), 50)[0] is not None
        assert cache.lookup(fp(), 10)[0] is None

    def test_complete_entry_serves_any_depth(self):
        # 7 items for a top-10 request: the corpus is exhausted
        cache = QueryCache()
        cache.store(fp(), 10, result(10, total=7), complete=True)
        deep, _ = cache.lookup(fp(), 500)
        assert deep is not None
        assert len(deep.items) == 7
        assert deep.stats["cache"] == "hit-complete"

    def test_distinct_fingerprints_do_not_collide(self):
        cache = QueryCache()
        cache.store(fp(terms=(1,)), 10, result(10))
        assert cache.lookup(fp(terms=(2,)), 10)[0] is None
        assert cache.lookup(fp(terms=(1,), epoch=1), 10)[0] is None


class TestEvictionAndInvalidation:
    def test_lru_eviction(self):
        cache = QueryCache(max_entries=2)
        cache.store(fp(terms=(1,)), 5, result(5))
        cache.store(fp(terms=(2,)), 5, result(5))
        cache.lookup(fp(terms=(1,)), 5)  # refresh 1: makes 2 the LRU victim
        cache.store(fp(terms=(3,)), 5, result(5))
        assert len(cache) == 2
        assert cache.lookup(fp(terms=(1,)), 5)[0] is not None
        assert cache.lookup(fp(terms=(2,)), 5)[0] is None
        assert cache.counters()["evictions"] == 1

    def test_invalidate_below_epoch(self):
        cache = QueryCache()
        cache.store(fp(epoch=0), 5, result(5))
        cache.store(fp(terms=(9,), epoch=1), 5, result(5))
        dropped = cache.invalidate_below_epoch(1)
        assert dropped == 1
        assert len(cache) == 1
        assert cache.counters()["invalidations"] == 1
        assert cache.lookup(fp(terms=(9,), epoch=1), 5)[0] is not None

    def test_clear(self):
        cache = QueryCache()
        cache.store(fp(), 5, result(5))
        cache.clear()
        assert len(cache) == 0


class TestCounters:
    def test_reset_counters_keeps_data(self):
        cache = QueryCache()
        cache.store(fp(), 5, result(5))
        cache.lookup(fp(), 5)
        cache.note_resume()
        cache.reset_counters()
        counters = cache.counters()
        assert counters["hits"] == counters["stores"] == counters["resumes"] == 0
        assert counters["entries"] == 1
        assert cache.lookup(fp(), 5)[0] is not None

    def test_metrics_reset_zeroes_cache_counters(self):
        """`metrics.reset()` (and therefore `repro profile`) must zero
        live caches through the registered reset hook."""
        cache = QueryCache()
        cache.store(fp(), 5, result(5))
        cache.lookup(fp(), 5)
        assert cache.counters()["hits"] == 1
        metrics.reset()
        assert cache.counters()["hits"] == 0
        assert cache.counters()["stores"] == 0

    def test_entry_carries_payloads(self):
        cache = QueryCache()
        entry = cache.store(fp(), 5, result(5), resume="frontier",
                            hints={"depth": 12})
        assert entry.resume == "frontier"
        assert entry.hints["depth"] == 12
        assert entry.best_n() == 5
