"""Unit tests for the sparse/non-dense index and the catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, IndexError_
from repro.storage import BAT, Catalog, CostCounter, SparseIndex
from repro.storage import kernel


def sorted_bat(n=10_000, persistent=True):
    return BAT(np.arange(n, dtype=np.int64), tail_sorted=True, persistent=persistent)


class TestSparseIndex:
    def test_requires_sorted(self):
        with pytest.raises(IndexError_):
            SparseIndex(BAT([3, 1, 2]))

    def test_requires_ascending(self):
        with pytest.raises(IndexError_):
            SparseIndex(BAT([3, 2, 1], tail_sorted_desc=True))

    def test_invalid_stride(self):
        with pytest.raises(IndexError_):
            SparseIndex(sorted_bat(), stride=-5)

    def test_is_small(self):
        index = SparseIndex(sorted_bat(10_000), stride=100)
        assert index.entries == 100
        assert index.size_ratio() == pytest.approx(0.01)

    def test_lookup_eq(self):
        base = sorted_bat(1000)
        index = SparseIndex(base, stride=64)
        out = index.lookup_eq(123)
        assert out.to_list() == [(123, 123)]

    def test_lookup_range_matches_kernel_select(self):
        base = BAT(np.sort(np.random.default_rng(1).integers(0, 500, 2000)), tail_sorted=True)
        index = SparseIndex(base, stride=32)
        expected = kernel.select_range(base, 100, 200)
        got = index.lookup_range(100, 200)
        assert got.same_content(expected)

    def test_lookup_exclusive_bounds(self):
        base = BAT(np.array([1, 2, 3, 4, 5]), tail_sorted=True)
        index = SparseIndex(base, stride=2)
        out = index.lookup_range(1, 5, include_lo=False, include_hi=False)
        assert [t for _, t in out.to_list()] == [2, 3, 4]

    def test_lookup_open_bounds(self):
        base = sorted_bat(100)
        index = SparseIndex(base, stride=16)
        assert len(index.lookup_range(None, None)) == 100

    def test_lookup_no_match(self):
        base = sorted_bat(100)
        index = SparseIndex(base, stride=16)
        assert len(index.lookup_range(1000, 2000)) == 0

    def test_empty_span_allocates_nothing_and_charges_the_probe(self):
        """A key below every sample has an empty candidate span: the probe
        returns an empty BAT without allocating over the base, and charges
        only the sample search."""
        import tracemalloc

        base = sorted_bat(1_000_000, persistent=False)
        index = SparseIndex(base, stride=1024)
        tracemalloc.start()
        try:
            with CostCounter.activate() as cost:
                out = index.lookup_range(-10, -5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 0 and out.tail_sorted
        assert peak < 100_000  # a full-length mask alone would be 1 MB
        # 977 samples: a binary search charges 2 * ceil(log2 977) comparisons
        assert cost.snapshot() == {**CostCounter().snapshot(), "comparisons": 2 * 10}

    def test_lookup_positions_are_the_range_hits(self):
        tail = np.sort(np.random.default_rng(3).integers(0, 300, 1500))
        base = BAT(tail, hseqbase=7, tail_sorted=True)
        index = SparseIndex(base, stride=16)
        with CostCounter.activate() as positions_cost:
            positions = index.lookup_positions(40, 90)
        with CostCounter.activate() as range_cost:
            hits = index.lookup_range(40, 90)
        assert list(positions) == list(np.flatnonzero((tail >= 40) & (tail <= 90)))
        assert list(hits.head_array()) == list(positions + 7)
        assert positions_cost.snapshot() == range_cost.snapshot()

    def test_empty_base(self):
        base = BAT(np.empty(0, dtype=np.int64), tail_sorted=True)
        index = SparseIndex(base, stride=4)
        assert index.entries == 0
        assert len(index.lookup_range(0, 10)) == 0

    def test_probe_reads_fraction_of_pages(self):
        base = sorted_bat(100_000)
        index = SparseIndex(base)  # stride = page size
        with CostCounter.activate() as probe_cost:
            index.lookup_range(500, 600)
        with CostCounter.activate() as scan_cost:
            kernel.select_range(base.clone_with(tail_sorted=False, persistent=True), 500, 600)
        assert probe_cost.tuples_read < scan_cost.tuples_read / 50

    def test_duplicate_values_straddling_strides(self):
        # many duplicates of one key crossing stride boundaries
        tail = np.sort(np.concatenate([np.zeros(10, dtype=np.int64),
                                       np.full(25, 7, dtype=np.int64),
                                       np.arange(8, 40, dtype=np.int64)]))
        base = BAT(tail, tail_sorted=True)
        index = SparseIndex(base, stride=8)
        out = index.lookup_eq(7)
        assert len(out) == 25
        assert all(t == 7 for _, t in out.to_list())


class TestCatalog:
    def test_register_and_get(self):
        catalog = Catalog()
        bat = catalog.register("scores", BAT([1.0]))
        assert catalog.get("scores") is bat
        assert bat.name == "scores"
        assert "scores" in catalog

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.register("a", BAT([1]))
        with pytest.raises(CatalogError):
            catalog.register("a", BAT([2]))

    def test_replace(self):
        catalog = Catalog()
        catalog.register("a", BAT([1]))
        replacement = catalog.register("a", BAT([2]), replace=True)
        assert catalog.get("a") is replacement

    def test_missing_name(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.register("a", BAT([1]))
        catalog.drop("a")
        assert "a" not in catalog

    def test_names_sorted(self):
        catalog = Catalog()
        catalog.register("b", BAT([1]))
        catalog.register("a", BAT([1]))
        assert catalog.names() == ["a", "b"]

    def test_total_tuples(self):
        catalog = Catalog()
        catalog.register("a", BAT([1, 2]))
        catalog.register("b", BAT([3]))
        assert catalog.total_tuples() == 3

    def test_save_load_roundtrip(self, tmp_path):
        catalog = Catalog()
        catalog.register("dense", BAT([1.5, 2.5], hseqbase=10, tail_sorted=True))
        catalog.register("oids", BAT([7, 8], head=[100, 200], tail_key=True))
        catalog.register("words", BAT(["alpha", "beta"]))
        catalog.save(tmp_path / "db")

        loaded = Catalog.load(tmp_path / "db")
        assert loaded.names() == ["dense", "oids", "words"]
        dense = loaded.get("dense")
        assert dense.is_dense_head and dense.hseqbase == 10
        assert dense.tail_sorted and dense.persistent
        assert list(dense.tail) == [1.5, 2.5]
        oids = loaded.get("oids")
        assert list(oids.head_array()) == [100, 200]
        assert oids.tail_key
        assert list(loaded.get("words").tail) == ["alpha", "beta"]

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(CatalogError):
            Catalog.load(tmp_path)

    def test_load_missing_file(self, tmp_path):
        catalog = Catalog()
        catalog.register("a", BAT([1]))
        catalog.save(tmp_path / "db")
        (tmp_path / "db" / "a.npz").unlink()
        with pytest.raises(CatalogError):
            Catalog.load(tmp_path / "db")

    def test_save_charges_page_writes(self, tmp_path):
        catalog = Catalog()
        catalog.register("a", BAT(np.arange(1000)))
        with CostCounter.activate() as cost:
            catalog.save(tmp_path / "db")
        assert cost.page_writes > 0
