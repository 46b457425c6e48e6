"""Unit tests for the simulated buffer manager and cost counters."""

import threading

import pytest

from repro.errors import BufferError_
from repro.storage import BufferManager, CostCounter, get_buffer_manager, set_buffer_manager
from repro.storage import stats


class TestBufferManager:
    def test_invalid_config_rejected(self):
        with pytest.raises(BufferError_):
            BufferManager(capacity_pages=0)
        with pytest.raises(BufferError_):
            BufferManager(page_tuples=0)

    def test_miss_then_hit(self):
        buf = BufferManager(capacity_pages=4, page_tuples=10)
        assert buf.request(1, 0) is False  # cold miss
        assert buf.request(1, 0) is True  # now resident
        assert buf.hits == 1 and buf.misses == 1

    def test_lru_eviction(self):
        buf = BufferManager(capacity_pages=2, page_tuples=10)
        buf.request(1, 0)
        buf.request(1, 1)
        buf.request(1, 2)  # evicts page 0
        assert buf.evictions == 1
        assert buf.request(1, 0) is False  # page 0 was evicted

    def test_lru_touch_refreshes(self):
        buf = BufferManager(capacity_pages=2, page_tuples=10)
        buf.request(1, 0)
        buf.request(1, 1)
        buf.request(1, 0)  # refresh page 0
        buf.request(1, 2)  # should evict page 1, not 0
        assert buf.request(1, 0) is True

    def test_page_math(self):
        buf = BufferManager(page_tuples=100)
        assert buf.page_of(0) == 0
        assert buf.page_of(99) == 0
        assert buf.page_of(100) == 1
        assert buf.pages_for(0) == 0
        assert buf.pages_for(1) == 1
        assert buf.pages_for(100) == 1
        assert buf.pages_for(101) == 2

    def test_scan_counts_misses(self):
        buf = BufferManager(page_tuples=10)
        misses = buf.scan(segment_id=1, n_tuples=25)
        assert misses == 3
        assert buf.scan(1, 25) == 0  # warm

    def test_scan_with_offset(self):
        buf = BufferManager(page_tuples=10)
        buf.scan(1, 10, start_tuple=0)  # page 0
        misses = buf.scan(1, 10, start_tuple=10)  # page 1
        assert misses == 1

    def test_scan_zero_tuples(self):
        buf = BufferManager()
        assert buf.scan(1, 0) == 0

    def test_random_read(self):
        buf = BufferManager(page_tuples=10)
        assert buf.random_read(1, 15) is False
        assert buf.random_read(1, 12) is True  # same page

    def test_write_charges_and_warms(self):
        buf = BufferManager(page_tuples=10)
        with CostCounter.activate() as cost:
            buf.write(1, 25)
        assert cost.page_writes == 3
        assert cost.tuples_written == 25
        assert buf.request(1, 0) is True

    def test_segments_are_independent(self):
        buf = BufferManager(page_tuples=10)
        buf.request(1, 0)
        assert buf.request(2, 0) is False

    def test_evict_segment(self):
        buf = BufferManager(page_tuples=10)
        buf.request(1, 0)
        buf.request(2, 0)
        buf.evict_segment(1)
        assert buf.request(2, 0) is True
        assert buf.request(1, 0) is False

    def test_flush(self):
        buf = BufferManager()
        buf.request(1, 0)
        buf.flush()
        assert buf.resident_pages == 0

    def test_hit_rate(self):
        buf = BufferManager()
        assert buf.hit_rate() == 0.0
        buf.request(1, 0)
        buf.request(1, 0)
        assert buf.hit_rate() == 0.5

    def test_global_swap(self):
        original = get_buffer_manager()
        replacement = BufferManager(capacity_pages=1)
        try:
            previous = set_buffer_manager(replacement)
            assert previous is original
            assert get_buffer_manager() is replacement
        finally:
            set_buffer_manager(original)


def fill(manager, n, segment=0):
    for page in range(n):
        manager.request(segment, page)


class TestLRU:
    def test_evicts_coldest(self):
        manager = BufferManager(capacity_pages=3)
        fill(manager, 3)
        manager.request(0, 0)  # page 0 now hottest; page 1 coldest
        manager.request(0, 3)  # evicts page 1
        assert manager.request(0, 0)  # hit
        assert not manager.request(0, 1)  # miss: was evicted
        assert manager.evictions >= 1

    def test_lru_not_scan_resistant_baseline(self):
        """A one-pass scan of a large cold segment flushes the
        re-referenced hot set under LRU."""
        hot = list(range(4))
        manager = BufferManager(capacity_pages=8)
        for page in hot:
            manager.request(0, page)
        for page in hot:
            manager.request(0, page)
        for page in range(100, 140):
            manager.request(1, page)
        hits = sum(manager.request(0, page) for page in hot)
        assert hits == 0


class TestManagerInvariants:
    def test_pinned_never_evicted(self):
        manager = BufferManager(capacity_pages=3)
        manager.request(0, 0)
        manager.pin(0, 0)
        fill(manager, 10)
        assert manager.request(0, 0), "evicted a pinned page"
        manager.unpin(0, 0)

    def test_all_pinned_overflow_raises(self):
        # pins beyond capacity (pin admits without evicting); the next
        # ordinary request cannot shrink the pool back under capacity
        manager = BufferManager(capacity_pages=2)
        for page in range(3):
            manager.pin(0, page)
        with pytest.raises(BufferError_):
            manager.request(0, 5)

    def test_flush_keeps_pinned(self):
        manager = BufferManager(capacity_pages=8)
        fill(manager, 4)
        manager.pin(0, 2)
        manager.flush()
        assert manager.resident_pages == 1
        assert manager.request(0, 2)  # still resident
        manager.unpin(0, 2)

    def test_unpin_unknown_raises(self):
        manager = BufferManager(capacity_pages=2)
        with pytest.raises(BufferError_):
            manager.unpin(0, 7)


class TestCostCounter:
    def test_scoped_charging(self):
        with CostCounter.activate() as cost:
            stats.charge_tuples_read(5)
            stats.charge_comparisons(3)
        assert cost.tuples_read == 5
        assert cost.comparisons == 3

    def test_charges_outside_scope_ignored(self):
        with CostCounter.activate() as cost:
            pass
        stats.charge_tuples_read(99)
        assert cost.tuples_read == 0

    def test_nested_counters_both_charged(self):
        with CostCounter.activate() as outer:
            stats.charge_page_reads(1)
            with CostCounter.activate() as inner:
                stats.charge_page_reads(2)
        assert inner.page_reads == 2
        assert outer.page_reads == 3

    def test_zero_charge_is_noop(self):
        with CostCounter.activate() as cost:
            stats.charge_comparisons(0)
        assert cost.comparisons == 0

    def test_extra_counters(self):
        with CostCounter.activate() as cost:
            stats.charge_extra("restarts", 2)
            stats.charge_extra("restarts")
        assert cost.extra["restarts"] == 3

    def test_add_merges(self):
        a = CostCounter(page_reads=1, extra={"x": 1})
        b = CostCounter(page_reads=2, tuples_read=5, extra={"x": 2, "y": 7})
        a.add(b)
        assert a.page_reads == 3
        assert a.tuples_read == 5
        assert a.extra == {"x": 3, "y": 7}

    def test_reset(self):
        counter = CostCounter(page_reads=4, extra={"k": 1})
        counter.reset()
        assert counter.page_reads == 0
        assert counter.extra == {}

    def test_snapshot_flattens_extra(self):
        counter = CostCounter(comparisons=2, extra={"probes": 9})
        snap = counter.snapshot()
        assert snap["comparisons"] == 2
        assert snap["probes"] == 9

    def test_totals(self):
        counter = CostCounter(random_accesses=2, sorted_accesses=3, page_reads=1, page_writes=4)
        assert counter.total_accesses == 5
        assert counter.total_io == 5

    def test_thread_isolation(self):
        seen = {}

        def worker():
            with CostCounter.activate() as inner:
                stats.charge_tuples_read(7)
            seen["thread"] = inner.tuples_read

        with CostCounter.activate() as main_counter:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["thread"] == 7
        assert main_counter.tuples_read == 0

    def test_unbalanced_exit_is_tolerated(self):
        counter = CostCounter()
        counter.__enter__()
        other = CostCounter()
        other.__enter__()
        counter.__exit__(None, None, None)  # out of order
        other.__exit__(None, None, None)
        assert stats.active_counters() == ()
