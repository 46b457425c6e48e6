"""E18 — block-at-a-time engines vs the slab engines.

Paper basis (Section 2): the performance argument Blok inherits from
MonetDB is block/column-at-a-time evaluation — amortize the per-tuple
interpretation overhead over whole array slabs.  TA, NRA and CA read
sorted ranks a slab at a time and charge per access; the blocked
variants (:mod:`repro.topn.blocked`) run over block storage and charge
whole blocks, skipping the blocks a run never reaches (blocked NRA and
CA share the slab engines' bound core).  This experiment times both
over E15-style multi-feature workloads (independent objects x 3
uniform grade matrices, top-10): each slab engine runs over
:class:`~repro.mm.sources.ArraySource` once per matrix, each blocked
variant over :class:`~repro.mm.sources.BlockedSource` per block size.
Every blocked ranking must be bit-identical (ids and scores, canonical
tie order) to the slab engine's answer, so the speedup column is not
an accuracy trade.  Timings cover the engine call; blocking is
excluded, while the slab engines' sources build their sorted prefixes
lazily inside the engine call they serve.  The acceptance bar is a
>=2x win for at least one engine at bench scale.
"""

import time

import numpy as np

from repro.mm.sources import ArraySource, BlockedSource
from repro.topn import (
    blocked_combined_topn,
    blocked_nra_topn,
    blocked_threshold_topn,
    combined_topn,
    nra_topn,
    threshold_topn,
)

from conftest import BENCH_SCALE, record_table

N = 10
M = 3
QUERIES = 3
BLOCK_SIZES = (16, 128, 1024)

#: engine -> (slab engine, blocked variant), with identical settings
ENGINES = {
    "ta": (threshold_topn, blocked_threshold_topn, {}),
    "nra": (nra_topn, blocked_nra_topn, {"check_every": 16}),
    "ca": (combined_topn, blocked_combined_topn, {"h": 4, "check_every": 8}),
}


def timed(run):
    started = time.perf_counter()
    result = run()
    return result, time.perf_counter() - started


def run_e18() -> tuple[list, float]:
    """One table row per (engine, block size), and the best speedup;
    see the module docstring."""
    n_objects = max(int(20_000 * max(BENCH_SCALE, 0.05)), 2000)
    rng = np.random.default_rng(7)
    matrices = [rng.random((n_objects, M)) for _ in range(QUERIES)]

    # slab reference: once per engine, shared across block sizes
    slab = {
        engine: timed(lambda: [
            oracle([ArraySource(matrix[:, j], name=f"s{j}") for j in range(M)],
                   N, **kwargs)
            for matrix in matrices])
        for engine, (oracle, _blocked, kwargs) in ENGINES.items()
    }
    rows = []
    best = 0.0
    for block_size in BLOCK_SIZES:
        blocked_sources = [
            [BlockedSource.from_array(matrix[:, j], block_size, name=f"s{j}")
             for j in range(M)]
            for matrix in matrices
        ]
        for engine, (_oracle, blocked, kwargs) in ENGINES.items():
            references, slab_s = slab[engine]
            results, blocked_s = timed(lambda: [
                blocked(sources, N, **kwargs) for sources in blocked_sources])
            mismatches = sum(ref.doc_ids != got.doc_ids or ref.scores != got.scores
                             for ref, got in zip(references, results))
            speedup = float("inf") if blocked_s == 0 else slab_s / blocked_s
            best = max(best, speedup)
            rows.append([engine, block_size, len(matrices),
                         round(slab_s, 4), round(blocked_s, 4), round(speedup, 2),
                         sum(r.stats.get("blocks_read", 0) for r in results),
                         sum(r.stats.get("blocks_skipped", 0) for r in results),
                         mismatches])
    return rows, best


def test_e18_blocked_vs_slab(benchmark):
    rows, best = benchmark.pedantic(run_e18, rounds=1, iterations=1)
    record_table(
        "E18: blocked vs slab top-N engines — wall clock by block size",
        ["engine", "block", "queries", "slab s", "blocked s", "speedup",
         "blocks read", "blocks skipped", "mismatches"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows), (
        "a blocked ranking diverged from its slab engine")
    # the tentpole claim: a multi-x win for at least one engine
    assert best >= 2.0, f"best blocked speedup {best:.2f}x is below the 2x bar"
