"""The ``repro bench-blocks`` harness.

Measures the tentpole claim of the blocked access path: the
block-at-a-time engines (:mod:`repro.topn.blocked`) return the exact
scalar answer while replacing the per-posting Python loop with numpy
batch work — so the wall-clock win is the interpretation overhead the
paper's block-at-a-time argument is about, not an accuracy trade.

Every timed pair is verified (a blocked answer that differs from the
scalar oracle is a defect, never a statistic): ids *and* scores must be
bit-identical, canonical tie order included.  Timings cover the engine
call; blocking is excluded, while the scalar sources build their sorted
prefixes lazily inside the engine call they serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: engines exercised: scalar reference -> blocked variant
BLOCK_ENGINES = ("ta", "nra", "ca")


@dataclass
class BlockBenchRow:
    """Scalar-vs-blocked measurements for one (engine, block size)."""

    engine: str
    block_size: int
    queries: int
    seconds_scalar: float
    seconds_blocked: float
    #: answers that differed from the scalar oracle (must stay 0)
    mismatches: int = 0
    blocks_read: int = 0
    blocks_skipped: int = 0

    @property
    def speedup(self) -> float:
        if self.seconds_blocked == 0:
            return float("inf")
        return self.seconds_scalar / self.seconds_blocked

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["speedup"] = (None if self.seconds_blocked == 0
                          else round(self.speedup, 3))
        return out


@dataclass
class BenchBlocksReport:
    """Everything ``repro bench-blocks`` prints."""

    n_objects: int
    m_sources: int
    n: int
    block_sizes: tuple
    rows: list[BlockBenchRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every blocked answer matched the scalar oracle exactly."""
        return all(row.mismatches == 0 for row in self.rows)

    @property
    def best_speedup(self) -> float:
        """The best blocked-vs-scalar wall-clock factor of any row."""
        return max((row.speedup for row in self.rows), default=0.0)

    def best_for(self, engine: str) -> float:
        return max((row.speedup for row in self.rows
                    if row.engine == engine), default=0.0)

    def to_dict(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "m_sources": self.m_sources,
            "n": self.n,
            "block_sizes": list(self.block_sizes),
            "ok": self.ok,
            "best_speedup": (None if not self.rows else round(self.best_speedup, 3)),
            "rows": [row.to_dict() for row in self.rows],
        }


def _run_scalar(engine: str, sources, n: int):
    from .ca import combined_topn
    from .nra import nra_topn
    from .ta import threshold_topn

    if engine == "ta":
        return threshold_topn(sources, n)
    if engine == "nra":
        return nra_topn(sources, n, check_every=16)
    return combined_topn(sources, n, h=4, check_every=8)


def _run_blocked(engine: str, sources, n: int):
    from .blocked import blocked_combined_topn, blocked_nra_topn, blocked_threshold_topn

    if engine == "ta":
        return blocked_threshold_topn(sources, n)
    if engine == "nra":
        return blocked_nra_topn(sources, n, check_every=16)
    return blocked_combined_topn(sources, n, h=4, check_every=8)


def bench_blocks(
    scale: float = 0.15,
    seed: int = 7,
    queries: int = 3,
    n: int = 10,
    m: int = 3,
    block_sizes: tuple = (16, 128, 1024),
) -> BenchBlocksReport:
    """Run the scalar-vs-blocked comparison; see the module docstring.

    The corpus is the E15-style multi-feature workload: ``queries``
    independent (objects x ``m``) uniform grade matrices, each answered
    at top-``n`` by every engine pair, per block size.
    """
    from ..mm.sources import ArraySource, BlockedSource

    n_objects = max(int(20_000 * scale), 2000)
    rng = np.random.default_rng(seed)
    matrices = [rng.random((n_objects, m)) for _ in range(max(1, queries))]

    report = BenchBlocksReport(n_objects=n_objects, m_sources=m, n=n,
                               block_sizes=tuple(int(b) for b in block_sizes))
    # scalar reference: once per engine, shared across block sizes
    scalar_refs: dict[str, list] = {}
    scalar_secs: dict[str, float] = {}
    for engine in BLOCK_ENGINES:
        refs = []
        started = time.perf_counter()
        for matrix in matrices:
            sources = [ArraySource(matrix[:, j], name=f"s{j}") for j in range(m)]
            refs.append(_run_scalar(engine, sources, n))
        scalar_secs[engine] = time.perf_counter() - started
        scalar_refs[engine] = refs

    for block_size in report.block_sizes:
        blocked_sources = [
            [BlockedSource.from_array(matrix[:, j], block_size, name=f"s{j}")
             for j in range(m)]
            for matrix in matrices
        ]
        for engine in BLOCK_ENGINES:
            row = BlockBenchRow(engine=engine, block_size=block_size,
                                queries=len(matrices),
                                seconds_scalar=scalar_secs[engine],
                                seconds_blocked=0.0)
            started = time.perf_counter()
            results = [_run_blocked(engine, sources, n)
                       for sources in blocked_sources]
            row.seconds_blocked = time.perf_counter() - started
            for reference, candidate in zip(scalar_refs[engine], results):
                if (reference.doc_ids != candidate.doc_ids
                        or reference.scores != candidate.scores):
                    row.mismatches += 1
                row.blocks_read += candidate.stats.get("blocks_read", 0)
                row.blocks_skipped += candidate.stats.get("blocks_skipped", 0)
            report.rows.append(row)
    return report


def render_report(report: BenchBlocksReport) -> str:
    """Fixed-width text table (the CLI's default output)."""
    lines = [
        f"bench-blocks: {report.n_objects} objects x {report.m_sources} "
        f"sources, top-{report.n}",
        f"{'engine':8} {'block':>6} {'scalar s':>9} {'blocked s':>10} "
        f"{'speedup':>8} {'skipped':>8} {'ok':>3}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.engine:8} {row.block_size:>6} {row.seconds_scalar:>9.3f} "
            f"{row.seconds_blocked:>10.3f} {row.speedup:>8.2f} "
            f"{row.blocks_skipped:>8} {'no' if row.mismatches else 'yes':>3}"
        )
    lines.append(f"best speedup: {report.best_speedup:.2f}x "
                 f"({'all answers exact' if report.ok else 'MISMATCHES'})")
    return "\n".join(lines)
