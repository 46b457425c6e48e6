"""Step-1 queries keep void heads virtual and charge the same counts.

The indexed switch probes a large fragment whose head is a dense (void)
oid sequence.  Gathering a few hundred head oids from it must not build
the whole column, and how heads are represented must never move a
charged count: the golden values below were recorded while every gather
still went through a materialised head, and they pin every counter and
the order of buffer page requests for three strategies.
"""

import hashlib

import pytest

from repro.fragmentation import FragmentedExecutor, Strategy, fragment_by_volume
from repro.ir import BM25, InvertedIndex
from repro.storage import CostCounter
from repro.storage.bat import BAT
from repro.storage.buffer import BufferManager, set_buffer_manager
from repro.workloads import SyntheticCollection, generate_queries, trec

N = 10
N_QUERIES = 8


@pytest.fixture(scope="module")
def world():
    collection = SyntheticCollection.generate(trec.small(seed=31))
    index = InvertedIndex.build(collection)
    queries = generate_queries(collection, n_queries=N_QUERIES, terms_range=(3, 8), seed=4)
    return index, [list(query.term_ids) for query in queries.queries]


class _RecordingBuffer(BufferManager):
    """A small buffer pool that logs every page request and its outcome,
    so a change in request order shows up in the hits and the log."""

    def __init__(self) -> None:
        super().__init__(capacity_pages=64)
        self.log: list[tuple[int, bool]] = []

    def request_pages(self, keys) -> int:
        hits = 0
        for key in keys:
            hit = super().request_pages([key])
            self.log.append((int(key[1]), bool(hit)))
            hits += hit
        return hits


def _charges(index, queries, strategy):
    """Per-query counter snapshots (the index build first) and a digest
    of the page request log, on a fresh fragmentation and buffer pool."""
    fragmented = fragment_by_volume(index, volume_cut=0.95)
    executor = FragmentedExecutor(fragmented, BM25())
    buffer = _RecordingBuffer()
    previous = set_buffer_manager(buffer)
    try:
        rows = []
        with CostCounter.activate() as cost:
            fragmented.large.build_sparse_index()
        rows.append(cost.snapshot())
        for tids in queries:
            with CostCounter.activate() as cost:
                executor.query(tids, N, strategy)
            rows.append(cost.snapshot())
    finally:
        set_buffer_manager(previous)
    digest = hashlib.sha256(repr(buffer.log).encode()).hexdigest()[:16]
    return rows, digest


# (page_reads, page_writes, buffer_hits, tuples_read, tuples_written,
#  comparisons, random_accesses, sorted_accesses) per row; row 0 is the
#  sparse index build, then one row per query
FIELDS = ("page_reads", "page_writes", "buffer_hits", "tuples_read", "tuples_written",
          "comparisons", "random_accesses", "sorted_accesses")

GOLDEN = {
    "indexed": (
        [(646, 0, 0, 646, 0, 0, 0, 0), (12, 0, 3, 875, 72, 1667, 0, 0),
         (6, 0, 4, 546, 28, 1104, 0, 0), (10, 0, 7, 306, 34, 588, 0, 0),
         (6, 0, 4, 27, 18, 36, 0, 0), (4, 0, 10, 571, 38, 1121, 0, 0),
         (6, 0, 7, 839, 53, 1659, 0, 0), (2, 0, 16, 481, 39, 932, 0, 0),
         (2, 0, 7, 187, 21, 366, 0, 0)],
        "f1504dba8849c974",
    ),
    "safe-switch": (
        [(646, 0, 0, 646, 0, 0, 0, 0), (1944, 0, 0, 495888, 41, 495914, 0, 0),
         (1942, 0, 0, 495861, 20, 330602, 0, 0), (1952, 0, 0, 495877, 26, 165337, 0, 0),
         (8, 0, 2, 27, 18, 36, 0, 0), (1944, 0, 2, 495880, 27, 330619, 0, 0),
         (1942, 0, 0, 495874, 33, 495906, 0, 0), (1948, 0, 2, 495885, 28, 330620, 0, 0),
         (1944, 0, 0, 495859, 16, 165305, 0, 0)],
        "589ee561112e2e8f",
    ),
    "unfragmented": (
        [(646, 0, 0, 646, 0, 0, 0, 0), (14, 0, 0, 107, 41, 71, 0, 0),
         (6, 0, 2, 34, 20, 40, 0, 0), (12, 0, 4, 50, 26, 56, 0, 0),
         (6, 0, 4, 27, 18, 36, 0, 0), (4, 0, 8, 59, 27, 57, 0, 0),
         (4, 0, 6, 71, 33, 63, 0, 0), (2, 0, 14, 64, 28, 58, 0, 0),
         (2, 0, 6, 26, 16, 24, 0, 0)],
        "91a4d25e8e1dd655",
    ),
}


@pytest.mark.parametrize("strategy", [Strategy.INDEXED, Strategy.SAFE_SWITCH,
                                      Strategy.UNFRAGMENTED], ids=lambda s: s.value)
def test_charges_match_golden(world, strategy):
    index, queries = world
    rows, digest = _charges(index, queries, strategy)
    want_rows, want_digest = GOLDEN[strategy.value]
    assert [tuple(row[name] for name in FIELDS) for row in rows] == want_rows
    assert all(set(row) == set(FIELDS) for row in rows)  # no extra counters
    assert digest == want_digest


def test_indexed_switch_never_materialises_a_dense_head(world, monkeypatch):
    """Wrap ``BAT.head_array`` and record every call on a dense-head BAT
    longer than the answer: the indexed switch must make none."""
    index, queries = world
    fragmented = fragment_by_volume(index, volume_cut=0.95)
    executor = FragmentedExecutor(fragmented, BM25())
    fragmented.large.build_sparse_index()
    original = BAT.head_array
    materialised = []

    def recording(bat):
        if bat.is_dense_head and len(bat) > N:
            materialised.append(len(bat))
        return original(bat)

    monkeypatch.setattr(BAT, "head_array", recording)
    switched = 0
    for tids in queries:
        result = executor.query(tids, N, Strategy.INDEXED)
        switched += bool(result.stats["switched"])
    assert switched, "no query took the switch; the test would prove nothing"
    assert materialised == []
