"""E18 — one engine per row, charged per access and in whole blocks.

Paper basis (Section 2): the performance argument Blok inherits from
MonetDB is block/column-at-a-time evaluation — amortize the per-tuple
interpretation overhead over whole array slabs.  TA, NRA and CA read
sorted ranks a slab at a time; in Fagin, Lotem and Naor's middleware
model cost is counted per access whatever batching the engine does, so
a storage block is a charging unit, not another algorithm.  This
experiment sweeps the block size of that unit over E15-style
multi-feature workloads (independent objects x 3 uniform grade
matrices, top-10): every engine runs over per-access storage
(:class:`~repro.mm.sources.ArraySource`, one charge per rank, its
sorted order built before the clock starts) and over prebuilt
:class:`~repro.mm.sources.BlockedSource` storage at block size B
(whole blocks, skipping the blocks a run never reaches).

Both columns run one engine, so the wall-clock columns show what
whole-block charging costs, not a speedup.  The assertions are on what
must hold exactly: every block-storage ranking is bit-identical (ids
and scores, canonical tie order) to the per-access one, and its
sorted-access charge is the per-access ranks of each source rounded up
to whole blocks (the last block of a list may be short).
"""

import math
import time

import numpy as np

from repro.mm.sources import ArraySource, BlockedSource
from repro.storage import CostCounter
from repro.topn import combined_topn, nra_topn, threshold_topn

from conftest import BENCH_SCALE, record_table

N = 10
M = 3
QUERIES = 3
BLOCK_SIZES = (16, 128, 1024)

#: engine -> (function, settings)
ENGINES = {
    "ta": (threshold_topn, {}),
    "nra": (nra_topn, {"check_every": 16}),
    "ca": (combined_topn, {"h": 4, "check_every": 8}),
}


def run_all(engine, storages, kwargs):
    """Run ``engine`` once per query; returns the results, wall seconds
    and charged sorted accesses."""
    with CostCounter.activate() as cost:
        started = time.perf_counter()
        results = [engine(sources, N, **kwargs) for sources in storages]
        seconds = time.perf_counter() - started
    return results, seconds, cost.sorted_accesses


def block_rounded(results, storages, block_size) -> int:
    """Each source's per-access ranks rounded up to whole blocks."""
    total = 0
    for result, sources in zip(results, storages):
        for source in sources:
            length = source.n_objects
            ranks = min(result.stats["depth"], length)
            total += min(math.ceil(ranks / block_size) * block_size, length)
    return total


def array_storage(matrix) -> list:
    """Per-access storage of ``matrix``'s columns, sorted up front so
    neither column times building its sorted order."""
    sources = [ArraySource(matrix[:, j], name=f"s{j}") for j in range(M)]
    for source in sources:
        source.sorted_slab(0, source.n_objects)
    return sources


def run_e18() -> list:
    """One table row per (engine, block size); see the module docstring."""
    n_objects = max(int(20_000 * max(BENCH_SCALE, 0.05)), 2000)
    rng = np.random.default_rng(7)
    matrices = [rng.random((n_objects, M)) for _ in range(QUERIES)]
    per_access = [array_storage(matrix) for matrix in matrices]
    rows = []
    for block_size in BLOCK_SIZES:
        storages = [
            [BlockedSource.from_array(matrix[:, j], block_size, name=f"s{j}")
             for j in range(M)]
            for matrix in matrices
        ]
        for name, (engine, kwargs) in ENGINES.items():
            references, access_s, access_sorted = run_all(engine, per_access, kwargs)
            results, block_s, block_sorted = run_all(engine, storages, kwargs)
            mismatches = sum(ref.doc_ids != got.doc_ids or ref.scores != got.scores
                             for ref, got in zip(references, results))
            rows.append([name, block_size, len(matrices),
                         round(access_s, 4), round(block_s, 4),
                         access_sorted, block_sorted,
                         block_rounded(references, per_access, block_size),
                         sum(r.stats["blocks_read"] for r in results),
                         sum(r.stats["blocks_skipped"] for r in results),
                         mismatches])
    return rows


def test_e18_block_size_sweep(benchmark):
    rows = benchmark.pedantic(run_e18, rounds=1, iterations=1)
    record_table(
        "E18: per-access vs block storage — one engine, by block size",
        ["engine", "block", "queries", "per-access s", "block s",
         "sorted per access", "sorted in blocks", "rounded", "blocks read",
         "blocks skipped", "mismatches"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows), (
        "a block-storage ranking diverged from the per-access run")
    assert all(row[6] == row[7] for row in rows), (
        "a block-storage sorted charge is not the per-access ranks rounded up "
        "to whole blocks")
