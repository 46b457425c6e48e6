"""Edge-case tests for kernel operators and page accounting."""

import numpy as np
import pytest

from repro.storage import BAT, BufferManager, CostCounter, kernel, set_buffer_manager
from repro.storage.buffer import get_buffer_manager


@pytest.fixture
def small_pages():
    """Install a tiny-page buffer manager for precise page assertions."""
    original = get_buffer_manager()
    manager = BufferManager(capacity_pages=1024, page_tuples=10)
    set_buffer_manager(manager)
    yield manager
    set_buffer_manager(original)


class TestPageAccounting:
    def test_scan_charges_exact_pages(self, small_pages):
        bat = BAT(np.arange(95), persistent=True)
        with CostCounter.activate() as cost:
            kernel.scan_cost(bat)
        assert cost.page_reads == 10  # ceil(95 / 10)

    def test_warm_rescan_hits(self, small_pages):
        bat = BAT(np.arange(50), persistent=True)
        kernel.scan_cost(bat)
        with CostCounter.activate() as cost:
            kernel.scan_cost(bat)
        assert cost.page_reads == 0
        assert cost.buffer_hits == 5

    def test_transient_bats_charge_no_pages(self, small_pages):
        bat = BAT(np.arange(100))  # not persistent
        with CostCounter.activate() as cost:
            kernel.scan_cost(bat)
        assert cost.page_reads == 0
        assert cost.tuples_read == 100

    def test_sorted_select_reads_only_matching_pages(self, small_pages):
        bat = BAT(np.arange(1000), tail_sorted=True, persistent=True)
        with CostCounter.activate() as cost:
            kernel.select_range(bat, 500, 509)  # exactly one page of data
        # binary-search probes + the one matching page
        assert cost.page_reads <= 12

    def test_fetch_values_random_probe_pages(self, small_pages):
        bat = BAT(np.arange(1000, dtype=np.float64), persistent=True)
        with CostCounter.activate() as cost:
            kernel.fetch_values(bat, np.array([5, 905]))  # two far-apart rows
        assert cost.page_reads == 2  # one page per touched position

    def test_fetch_values_same_page_deduped(self, small_pages):
        bat = BAT(np.arange(100, dtype=np.float64), persistent=True)
        with CostCounter.activate() as cost:
            kernel.fetch_values(bat, np.array([5, 6, 7]))
        assert cost.page_reads == 1


class TestOperatorEdges:
    def test_append_empty_sides(self):
        a = BAT([1, 2])
        empty = BAT(np.empty(0, dtype=np.int64))
        assert [t for _, t in kernel.append(a, empty).to_list()] == [1, 2]
        assert [t for _, t in kernel.append(empty, a).to_list()] == [1, 2]

    def test_topn_all_equal_scores(self):
        bat = BAT([1.0] * 20)
        out = kernel.topn_tail(bat, 5)
        assert [h for h, _ in out.to_list()] == [0, 1, 2, 3, 4]

    def test_topn_ranks_strings(self):
        bat = BAT(["b", "a", "c", "a"])
        assert kernel.topn_tail(bat, 3, descending=False).to_list() == [
            (1, "a"), (3, "a"), (0, "b")]
        assert kernel.topn_tail(bat, 2).to_list() == [(2, "c"), (0, "b")]

    def test_sort_stability(self):
        bat = BAT([1.0, 1.0, 0.5], head=[10, 11, 12])
        out = kernel.sort_tail(bat)
        assert [h for h, _ in out.to_list()] == [12, 10, 11]

    def test_select_range_on_desc_sorted_uses_scan(self):
        """A descending-sorted BAT cannot use the ascending binary
        search; it must scan (and still be correct)."""
        bat = BAT(np.arange(100)[::-1].copy(), tail_sorted_desc=True)
        out = kernel.select_range(bat, 10, 12)
        assert sorted(t for _, t in out.to_list()) == [10, 11, 12]

    def test_unique_on_strings(self):
        out = kernel.unique_tail(BAT(["b", "a", "b"]))
        assert [t for _, t in out.to_list()] == ["a", "b"]


class TestCounterScoping:
    def test_kernel_ops_charge_all_active_counters(self):
        bat = BAT(np.arange(100))
        with CostCounter.activate() as outer:
            kernel.sort_tail(bat)
            with CostCounter.activate() as inner:
                kernel.sort_tail(bat)
        assert inner.comparisons > 0
        assert outer.comparisons == pytest.approx(2 * inner.comparisons)

    def test_uncounted_when_no_scope(self):
        # must not raise outside any counter scope
        kernel.sort_tail(BAT([3, 1, 2]))
