"""ArraySource builds its sorted order lazily, and exactly.

Sorted access must read the same ``(object, grade)`` at every rank as a
full sort by (grade descending, object id ascending) — whatever order
the ranks are read in, however many grades tie at a prefix cut, and
across the fall-back to sorting everything.  A top-10 over large
sources must not pay for the full sort, and grades that have no place
in a descending order (NaN, infinity) are rejected up front.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SourceExhaustedError, TopNError
from repro.mm import ArraySource
from repro.mm import sources as sources_module
from repro.mm.sources import BlockedSource
from repro.storage import CostCounter
from repro.topn import naive_topn_sources, threshold_topn


def full_order(grades: np.ndarray) -> list[int]:
    return np.lexsort((np.arange(len(grades)), -grades)).tolist()


def read(source: ArraySource, ranks) -> dict[int, tuple[int, float]]:
    return {rank: source.sorted_access(rank) for rank in ranks}


def expected(grades: np.ndarray, ranks) -> dict[int, tuple[int, float]]:
    order = full_order(grades)
    return {rank: (order[rank], float(grades[order[rank]])) for rank in ranks}


def grade_arrays(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "distinct": rng.random(n),
        "heavy_ties": rng.integers(0, 5, n).astype(np.float64) / 4,
        "all_equal": np.full(n, 0.5),
        "zeros": np.zeros(n),
    }


class TestExactOrder:
    @pytest.mark.parametrize("n", (1, 2, 7, 300, 1100, 5000))
    @pytest.mark.parametrize("kind", ("distinct", "heavy_ties", "all_equal", "zeros"))
    def test_increasing_ranks_match_full_sort(self, n, kind):
        grades = grade_arrays(n, seed=n)[kind]
        source = ArraySource(grades)
        assert read(source, range(n)) == expected(grades, range(n))

    @pytest.mark.parametrize("kind", ("distinct", "heavy_ties", "all_equal"))
    def test_random_rank_order_matches_full_sort(self, kind):
        grades = grade_arrays(4000, seed=3)[kind]
        ranks = np.random.default_rng(4).permutation(4000)[:600].tolist()
        source = ArraySource(grades)
        assert read(source, ranks) == expected(grades, ranks)

    def test_interleaved_sources_read_exact_ranks(self):
        grades = grade_arrays(3000, seed=5)
        a, b = ArraySource(grades["heavy_ties"]), ArraySource(grades["distinct"])
        order_a, order_b = full_order(grades["heavy_ties"]), full_order(grades["distinct"])
        for step, rank in enumerate((0, 5, 255, 256, 40, 600, 1, 2999, 700)):
            assert a.sorted_access(rank)[0] == order_a[rank]
            assert b.sorted_access(step * 97)[0] == order_b[step * 97]

    def test_ties_at_the_cut_stay_in_the_prefix(self):
        # 600 objects share the grade at rank 255: the first prefix must
        # take all of them, so it is longer than asked and still exact
        grades = np.concatenate([np.linspace(1.0, 0.9, 100), np.full(600, 0.5),
                                 np.linspace(0.4, 0.0, 3300)])
        grades = grades[np.random.default_rng(7).permutation(len(grades))]
        source = ArraySource(grades)
        assert source.sorted_access(0)[1] == 1.0
        assert len(source._order) == 700
        assert source._order.tolist() == full_order(grades)[:700]

    def test_prefix_doubles_then_falls_back_to_a_full_sort(self):
        n = 4 * sources_module._FIRST_PREFIX * 4
        grades = np.random.default_rng(8).random(n)
        source = ArraySource(grades)
        assert len(source._order) == 0  # construction sorts nothing
        first = sources_module._FIRST_PREFIX
        source.sorted_access(0)
        assert len(source._order) == first
        source.sorted_access(first)
        assert len(source._order) == 2 * first
        # a prefix of n / 4 or more is the whole sort
        source.sorted_access(n // 4)
        assert len(source._order) == n
        assert source._order.tolist() == full_order(grades)

    @pytest.mark.parametrize("n", (0, 1, 300, 3000))
    def test_past_the_end_raises(self, n):
        source = ArraySource(np.random.default_rng(n).random(n))
        assert source.exhausted(n) and (n == 0 or not source.exhausted(n - 1))
        with CostCounter.activate() as cost:
            with pytest.raises(SourceExhaustedError):
                source.sorted_access(n)
        assert cost.sorted_accesses == 0
        if n:
            assert source.sorted_access(n - 1)[0] == full_order(source._scores)[-1]

    @settings(max_examples=80, deadline=None)
    @given(
        grades=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1),
                        min_size=1, max_size=1500),
        ranks=st.lists(st.integers(0, 1600), min_size=1, max_size=40),
    )
    def test_any_read_sequence_matches_full_sort(self, grades, ranks):
        grades = np.array(grades)
        source = ArraySource(grades)
        order = full_order(grades)
        for rank in ranks:
            if rank < len(grades):
                assert source.sorted_access(rank) == (order[rank], float(grades[order[rank]]))
            else:
                with pytest.raises(SourceExhaustedError):
                    source.sorted_access(rank)


class TestConcurrentReaders:
    def test_threads_growing_one_prefix_all_read_the_full_sort(self):
        # readers race to grow the prefix: each swap is one assignment of
        # an exact prefix, so a lost race costs a re-partition, never a
        # wrong rank
        n = 20_000
        grades = np.round(np.random.default_rng(12).random(n), 3)  # ~20-way ties
        order = full_order(grades)
        source = ArraySource(grades)
        errors = []

        def reader(seed: int) -> None:
            # rising ranks below n / 4, so every step of the doubling races
            rng = np.random.default_rng(seed)
            for rank in np.sort(rng.integers(0, n // 4, 300)).tolist():
                if source.sorted_access(rank)[0] != order[rank]:
                    errors.append((seed, rank))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestNoFullSort:
    def test_ta_top10_over_20k_objects_sorts_only_a_prefix(self):
        rng = np.random.default_rng(9)
        sources = [ArraySource(rng.random(20_000)) for _ in range(2)]
        result = threshold_topn(sources, 10)
        for source in sources:
            assert 0 < len(source._order) < 20_000 // 4
        oracle = naive_topn_sources([ArraySource(s._scores) for s in sources], 10)
        assert [(i.obj_id, i.score) for i in result.items] == \
            [(i.obj_id, i.score) for i in oracle.items]


class TestNonFiniteGrades:
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_array_source_rejects(self, bad):
        grades = np.random.default_rng(10).random(50)
        grades[17] = bad
        with pytest.raises(TopNError, match="finite"):
            ArraySource(grades)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_blocked_source_rejects(self, bad):
        grades = np.random.default_rng(11).random(50)
        grades[3] = bad
        with pytest.raises(TopNError, match="finite"):
            BlockedSource.from_array(grades, block_size=8)

    def test_nan_feature_query_is_rejected(self):
        from tests.serve.conftest import DIMS, build_db

        db = build_db(seed=12)
        try:
            query = np.full(DIMS, 0.5)
            query[2] = np.nan
            with pytest.raises(TopNError, match="finite"):
                db.feature_search({"color": query}, n=5)
        finally:
            db.close()
