"""Property tests for the blocked access path (hypothesis).

Two properties carry the soundness argument of block-max pruning:

* **No dropped documents** — on arbitrary grade matrices (including
  the adversarial tie patterns hypothesis produces) a blocked engine
  returns the scalar oracle's answer bit for bit, so no block-skip
  decision ever drops a document the oracle returns.
* **Warm equals cold** — a cached TA resume state replayed against
  blocked storage yields the same answer as a cold run, in every
  direction (scalar-captured -> blocked resume and vice versa).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm import ArraySource, BlockedSource
from repro.topn import (
    SUM,
    combined_topn,
    nra_topn,
    threshold_topn,
)

matrices = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=1.0, width=32),
             min_size=2, max_size=2),
    min_size=1, max_size=60,
)


def blocked_sources(grid: np.ndarray, block_size: int):
    return [BlockedSource.from_array(grid[:, j], block_size, name=f"s{j}")
            for j in range(grid.shape[1])]


def scalar_sources(grid: np.ndarray):
    return [ArraySource(grid[:, j], name=f"s{j}") for j in range(grid.shape[1])]


class TestNoDroppedDocuments:
    """Block skipping is invisible: blocked answers are bit-identical
    to the scalar oracle on arbitrary matrices and block sizes."""

    @settings(max_examples=40, deadline=None)
    @given(matrix=matrices, n=st.integers(min_value=1, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_ta(self, matrix, n, block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        reference = threshold_topn(scalar_sources(grid), n, SUM)
        result = threshold_topn(blocked_sources(grid, block_size), n, SUM)
        assert result.doc_ids == reference.doc_ids
        assert result.scores == reference.scores

    @settings(max_examples=40, deadline=None)
    @given(matrix=matrices, n=st.integers(min_value=1, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_nra(self, matrix, n, block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        reference = nra_topn(scalar_sources(grid), n, SUM, check_every=4)
        result = nra_topn(blocked_sources(grid, block_size), n, SUM,
                          check_every=4)
        assert result.doc_ids == reference.doc_ids
        assert result.scores == reference.scores

    @settings(max_examples=40, deadline=None)
    @given(matrix=matrices, n=st.integers(min_value=1, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_ca(self, matrix, n, block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        reference = combined_topn(scalar_sources(grid), n, SUM, h=4,
                                  check_every=4)
        result = combined_topn(blocked_sources(grid, block_size), n,
                               SUM, h=4, check_every=4)
        assert result.doc_ids == reference.doc_ids
        assert result.scores == reference.scores


class TestWarmEqualsCold:
    """A TA resume state replayed against blocked storage answers as if
    the run had been cold — in every scalar/blocked direction."""

    @settings(max_examples=30, deadline=None)
    @given(matrix=matrices,
           n_small=st.integers(min_value=1, max_value=5),
           n_large=st.integers(min_value=6, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_capture_blocked_resume(self, matrix, n_small, n_large,
                                            block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        cold = threshold_topn(blocked_sources(grid, block_size),
                              n_large, SUM)
        first = threshold_topn(blocked_sources(grid, block_size),
                               n_small, SUM, capture_state=True)
        warm = threshold_topn(blocked_sources(grid, block_size),
                              n_large, SUM, resume_from=first.stats["resume_state"])
        assert warm.doc_ids == cold.doc_ids
        assert warm.scores == cold.scores

    @settings(max_examples=30, deadline=None)
    @given(matrix=matrices,
           n_small=st.integers(min_value=1, max_value=5),
           n_large=st.integers(min_value=6, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_scalar_capture_blocked_resume(self, matrix, n_small, n_large,
                                           block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        cold = threshold_topn(scalar_sources(grid), n_large, SUM)
        first = threshold_topn(scalar_sources(grid), n_small, SUM,
                               capture_state=True)
        warm = threshold_topn(blocked_sources(grid, block_size),
                              n_large, SUM, resume_from=first.stats["resume_state"])
        assert warm.doc_ids == cold.doc_ids
        assert warm.scores == cold.scores

    @settings(max_examples=30, deadline=None)
    @given(matrix=matrices,
           n_small=st.integers(min_value=1, max_value=5),
           n_large=st.integers(min_value=6, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_capture_scalar_resume(self, matrix, n_small, n_large,
                                           block_size):
        grid = np.asarray(matrix, dtype=np.float64)
        cold = threshold_topn(scalar_sources(grid), n_large, SUM)
        first = threshold_topn(blocked_sources(grid, block_size),
                               n_small, SUM, capture_state=True)
        warm = threshold_topn(scalar_sources(grid), n_large, SUM,
                              resume_from=first.stats["resume_state"])
        assert warm.doc_ids == cold.doc_ids
        assert warm.scores == cold.scores

    @settings(max_examples=30, deadline=None)
    @given(matrix=matrices,
           n_small=st.integers(min_value=1, max_value=5),
           n_large=st.integers(min_value=6, max_value=12),
           block_size=st.integers(min_value=1, max_value=70))
    def test_blocked_and_slab_capture_the_same_frontier(self, matrix, n_small,
                                                        n_large, block_size):
        """Cold and resumed, blocked TA captures the slab engine's
        frontier array for array: order, dtype and every element."""
        grid = np.asarray(matrix, dtype=np.float64)
        states = []
        for sources in (scalar_sources, lambda g: blocked_sources(g, block_size)):
            first = threshold_topn(sources(grid), n_small, SUM, capture_state=True)
            deep = threshold_topn(sources(grid), n_large, SUM, capture_state=True,
                                  resume_from=first.stats["resume_state"])
            states.append([
                (name, getattr(s, name).dtype.str, getattr(s, name).tolist())
                for s in (first.stats["resume_state"], deep.stats["resume_state"])
                for name in ("ids", "scores", "first_seen", "tau")])
        assert states[0] == states[1]
