"""E18 — block-at-a-time vectorized engines vs their scalar oracles.

Paper basis (Section 2): the performance argument Blok inherits from
MonetDB is block/column-at-a-time evaluation — amortize the per-tuple
interpretation overhead over whole array slabs.  Our scalar TA/NRA/CA
walk one posting per Python iteration; the blocked variants
(:mod:`repro.topn.blocked`) consume scored blocks with per-block score
upper bounds and do numpy batch work between threshold checks,
skipping blocks the bounds prune.  This experiment measures that
wall-clock win over E15-style multi-feature workloads (independent
objects x 3 uniform grade matrices, top-10): each scalar engine runs
over :class:`~repro.mm.sources.ArraySource` once per matrix, each
blocked variant over :class:`~repro.mm.sources.BlockedSource` per
block size.  Every blocked ranking must be bit-identical (ids and
scores, canonical tie order) to the scalar answer, so the speedup
column is pure interpretation overhead, not an accuracy trade.
Timings cover the engine call; blocking is excluded, while the scalar
sources build their sorted prefixes lazily inside the engine call they
serve.  The acceptance bar is a >=2x win for at least one engine at
bench scale.
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

#: engine -> (scalar oracle, blocked variant), with identical settings
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

    # scalar reference: once per engine, shared across block sizes
    scalar = {
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
            references, scalar_s = scalar[engine]
            results, blocked_s = timed(lambda: [
                blocked(sources, N, **kwargs) for sources in blocked_sources])
            mismatches = sum(ref.doc_ids != got.doc_ids or ref.scores != got.scores
                             for ref, got in zip(references, results))
            speedup = float("inf") if blocked_s == 0 else scalar_s / blocked_s
            best = max(best, speedup)
            rows.append([engine, block_size, len(matrices),
                         round(scalar_s, 4), round(blocked_s, 4), round(speedup, 2),
                         sum(r.stats.get("blocks_read", 0) for r in results),
                         sum(r.stats.get("blocks_skipped", 0) for r in results),
                         mismatches])
    return rows, best


def test_e18_blocked_vs_scalar(benchmark):
    rows, best = benchmark.pedantic(run_e18, rounds=1, iterations=1)
    record_table(
        "E18: blocked vs scalar top-N engines — wall clock by block size",
        ["engine", "block", "queries", "scalar s", "blocked s", "speedup",
         "blocks read", "blocks skipped", "mismatches"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows), (
        "a blocked ranking diverged from its scalar oracle")
    # the tentpole claim: a multi-x win for at least one engine
    assert best >= 2.0, f"best blocked speedup {best:.2f}x is below the 2x bar"
