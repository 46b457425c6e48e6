#!/usr/bin/env python3
"""Layered benchmark of the multimedia retrieval database.

Usage (from the repository root)::

    python3 perfbench/run.py --workload text_step1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see NOTES.md for why each exists):

* ``text_step1`` — the paper's Step 1: unique text queries through the
  indexed safe switch after ``fragment()``, cache off;
* ``mm_fagin`` — Fagin-family multi-source queries through the library
  (feature TA, text+color TA, text+texture CA);
* ``serve_hot`` — Zipf-popular feature and text requests through the
  query server and one client connection, cache on, with writes.

The load is a closed loop: one caller, one connection, no think time,
in one process pinned with all its threads to one CPU (see
``pin_to_one_cpu``).
The program only ever receives the generated inputs: the op list is a
pure function of workload and seed, and its digest is printed.  Every
answer is checked against an oracle computed before timing on a
separate database instance.

With ``--trace 0`` the command prints the end-to-end metrics: the
median of ``SETUP_REPS`` set-ups, then latency and throughput over
whole passes of the op list until ``--seconds`` have elapsed (at least
``MIN_PASSES``).  Times are scaled to a reference host speed by
host-speed probes run between operations, and each op's latency is its
best over the passes (see ``probe`` and ``Replay.best_of_passes``).
With ``--trace 1`` it replays the op list once untraced and once traced
and prints the per-layer metrics; counts in them repeat exactly for a
seed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an answer of an exact workload differs from its
oracle or an operation fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3
#: the timed phase replays whole passes of the op list until
#: ``--seconds`` have elapsed, and at least this many
MIN_PASSES = 2
#: operations between two host-speed probes
PROBE_EVERY = 10
#: probe time that defines the reference host speed: every reported
#: time is scaled to a host on which one probe takes this long
REFERENCE_S = 0.6e-3
WORKLOAD_NAMES = ("text_step1", "mm_fagin", "serve_hot")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "first_chunk_p50_ms": "ms",
    "recall_at_n": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    "storage.index_lookup_ms_per_op": "ms",
    "storage.topn_tail_ms_per_op": "ms",
    "storage.page_reads_per_op": "count",
    "storage.tuples_read_per_op": "count",
    "storage.buffer_hit_rate": "ratio",
    "ir.postings_ms_per_op": "ms",
    "ir.partial_scores_ms_per_op": "ms",
    "ir.index_build_s": "s",
    "fragmentation.build_s": "s",
    "fragmentation.query_self_ms_per_op": "ms",
    "fragmentation.quality_check_ms_per_op": "ms",
    "fragmentation.switch_fetch_ms_per_op": "ms",
    "fragmentation.switch_rate": "ratio",
    "mm.source_build_ms_per_op": "ms",
    "topn.engine_ms_per_op": "ms",
    "topn.sorted_accesses_per_op": "count",
    "topn.random_accesses_per_op": "count",
    "topn.depth_per_op": "count",
    "cache.hit_rate": "ratio",
    "cache.lookup_us_per_op": "us",
    "cache.store_us_per_op": "us",
    "cache.invalidations_per_write": "count",
    "cache.repeat_share": "ratio",
    "parallel.coordinator_ms_per_op": "ms",
    "serve.step_ms_per_op": "ms",
    "serve.overhead_ms_per_op": "ms",
    "serve.codec_us_per_op": "us",
    "serve.chunks_per_op": "count",
    "serve.bytes_per_op": "B",
    "serve.server_start_s": "s",
    "core.self_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
}


def pin_to_one_cpu() -> int | None:
    """Move every thread of this process, and every thread it starts
    later, onto the lowest CPU it may run on; returns that CPU, or None
    where affinity cannot be set.

    The served path hands each request between the client, the event
    loop and pool threads.  On a shared host, a hand-off to a thread on
    a core a neighbour keeps busy waits for that core, and no probe sees
    it: under two busy loops ``serve_hot``'s p99 went from 7 to 13 ms
    with the probe unchanged.  On one core the hand-offs do not wait
    for another core (NOTES.md, steadiness study)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except (OSError, ValueError):
            pass  # a thread that ended meanwhile
    return cpu


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: fixed pseudo-random floats for the reference work
_PROBE_FLOATS = (np.arange(4096) * 2654435761 % 4096) / 4096.0


def _interpreted(iterations: int) -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        total += (i * 3) % 7
    return total


def _python_work() -> int:
    """Interpreted Python only."""
    return _interpreted(4500)


def _mixed_work() -> int:
    """Interpreted Python, a memory-bound array fill and small NumPy
    calls."""
    total = _interpreted(1500)
    filled = np.arange(400_000, dtype=np.int64)
    total += int(filled[::4096].sum())
    for _ in range(10):
        total += int(np.argsort(_PROBE_FLOATS[:512])[0])
        total += len(np.nonzero(_PROBE_FLOATS[:256] > 0.5)[0])
    return total


#: reference work per probe kind: fixed code, independent of the
#: program under test.  A workload names the kind whose slowdown under
#: host contention tracks its own (NOTES.md has the evidence).
PROBES = {"python": _python_work, "mixed": _mixed_work}


def probe(kind: str) -> float:
    """Seconds one run of the ``kind`` reference work takes now.

    The shared host this benchmark runs on changes speed by up to 2x
    within seconds, and CPU time tracks wall time, so the drift is
    contention, not waiting.  Each measured time is divided by the
    median probe time around it and multiplied by ``REFERENCE_S``: the
    program's own cost stays, the host's drift cancels.  Probes run
    between operations, outside every measured interval."""
    work = PROBES[kind]
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def scale_factor(probes: list[float]) -> float:
    return REFERENCE_S / statistics.median(probes)


class Replay:
    """Outcome of replaying an op list: one ``(index, op, answer,
    seconds, block)`` record per op run (``answer`` is None when it
    failed) and one host-speed probe per block of ``PROBE_EVERY``
    records."""

    def __init__(self, probe_kind: str) -> None:
        self.probe_kind = probe_kind
        self.records: list[tuple] = []
        self.probes: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def answers(self) -> list[tuple]:
        return [(op, answer, seconds) for _i, op, answer, seconds, _block in self.records
                if answer is not None]

    def scaled(self) -> list[tuple[int, float, float | None]]:
        """``(index, latency, first)`` per record at the reference host
        speed, each scaled by the median of the five probes around it;
        ``first`` is the time to the first chunk, or to the whole answer
        for unstreamed operations, and None for writes and failures."""
        out = []
        for i, _op, answer, seconds, block in self.records:
            factor = scale_factor(self.probes[max(0, block - 2):block + 3])
            first = None
            if answer is not None and answer.items is not None:
                first = factor * (answer.first_s if answer.first_s is not None else seconds)
            out.append((i, seconds * factor, first))
        return out

    def best_of_passes(self) -> tuple[list[float], list[float]]:
        """Each op's best scaled latency and time to first chunk over
        the passes replayed, sorted.  Scaling removes the host's drift
        over seconds; the best of several passes removes the stalls
        shorter than a probe interval, which would otherwise set p99."""
        best: dict[int, float] = {}
        first: dict[int, float] = {}
        for i, latency, reached in self.scaled():
            best[i] = min(best.get(i, latency), latency)
            if reached is not None:
                first[i] = min(first.get(i, reached), reached)
        return sorted(best.values()), sorted(first.values())

    def run(self, system, ops, on_op=None) -> float:
        """Replay ``ops`` once; returns the wall time of the pass."""
        started = time.perf_counter()
        for i, op in enumerate(ops):
            if len(self.records) % PROBE_EVERY == 0:
                self.probes.append(probe(self.probe_kind))
            if on_op is not None:
                on_op(i)
            t0 = time.perf_counter()
            try:
                answer = system.run(op)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                answer = None
                self.failed += 1
                self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            self.records.append((i, op, answer, time.perf_counter() - t0,
                                 len(self.probes) - 1))
        return time.perf_counter() - started


def check(workload, expected, replay: Replay) -> tuple[int, float]:
    """Compare every answer with the oracle: ``(mismatches, recall)``.

    Recall is the mean overlap of returned ids with the exact top-N.
    For an exact workload any difference in ids, scores or order is a
    mismatch; ``text_step1`` reports its quality through recall only,
    because the safe switch may by design accept a bounded risk."""
    mismatches = 0
    overlaps = []
    for op, answer, _latency in replay.answers:
        if answer.items is None:
            continue
        want = expected[(op["kind"], op["t"])]
        want_ids = {obj for obj, _ in want}
        got_ids = {obj for obj, _ in answer.items}
        overlaps.append(len(want_ids & got_ids) / len(want_ids) if want_ids
                        else float(not got_ids))
        if workload.exact and not workload.matches(op, answer.items, want):
            mismatches += 1
            if mismatches <= 3:
                print(f"# mismatch {op}: got {answer.items[:3]} want {want[:3]}",
                      file=sys.stderr)
    return mismatches, (statistics.fmean(overlaps) if overlaps else 1.0)


def oracle(workload, system) -> dict:
    """The oracle answers, on a separate database instance that shares
    only the first set-up's immutable inverted index."""
    started = time.perf_counter()
    expected = workload.oracle(system.db.index)
    print(f"# oracle: {len(expected)} distinct answers in "
          f"{time.perf_counter() - started:.2f} s")
    return expected


def timed_setup(workload):
    """One set-up: ``(system, seconds scaled by the probes around it)``."""
    gc.collect()
    before = [probe(workload.probe) for _ in range(3)]
    started = time.perf_counter()
    system = workload.setup()
    elapsed = time.perf_counter() - started
    return system, elapsed * scale_factor(before + [probe(workload.probe) for _ in range(3)])


def timed_run(workload, seconds: float) -> tuple[dict, Replay, dict]:
    """The first set-up serves the timed phase and peak RSS is read
    right after it; the other set-ups follow, only to be timed, so
    memory the allocator keeps from a closed database does not inflate
    the peak."""
    system, first_setup = timed_setup(workload)
    setups = [first_setup]
    try:
        expected = oracle(workload, system)
        Replay(workload.probe).run(system, workload.warmup_ops)
        gc.collect()
        replay = Replay(workload.probe)
        passes = []
        while len(passes) < MIN_PASSES or sum(passes) < seconds:
            passes.append(replay.run(system, workload.ops))
    finally:
        system.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPS - 1):
        system, elapsed = timed_setup(workload)
        setups.append(elapsed)
        system.close()
    print(f"# {len(passes)} passes of {len(workload.ops)} ops: "
          f"{[round(p, 3) for p in passes]} s; set-ups {[round(s, 3) for s in setups]} s")
    from repro.serve.tenants import percentile

    latencies, first = replay.best_of_passes()
    raw = sorted(record[3] for record in replay.records)
    print(f"# unscaled latency p50 {statistics.median(raw) * 1e3:.4g} ms; "
          f"host probe median {statistics.median(replay.probes) * 1e3:.4g} ms "
          f"(reference {REFERENCE_S * 1e3:.4g} ms)")
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "first_chunk_p50_ms": statistics.median(first) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, replay, expected


def traced_run(workload, out_path: Path) -> tuple[dict, Replay, dict]:
    from repro.storage.buffer import get_buffer_manager
    from repro.storage.stats import CostCounter
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    setup_probes = [probe(workload.probe) for _ in range(3)]
    tracer.recording = True
    system = workload.setup()
    tracer.recording = False
    setup_probes += [probe(workload.probe) for _ in range(3)]
    tracer.uninstall()
    ops = workload.ops
    try:
        expected = oracle(workload, system)
        Replay(workload.probe).run(system, workload.warmup_ops)
        gc.collect()
        untraced = Replay(workload.probe)
        untraced.run(system, ops)

        buffer = get_buffer_manager()
        buffer_before = (buffer.requests, buffer.hits)
        cache_before = system.cache_counters()
        system.count_bytes = True
        replay = Replay(workload.probe)
        tracer.install()
        tracer.recording = True
        gc.collect()
        with CostCounter.activate() as cost:
            replay.run(system, ops, on_op=lambda i: setattr(tracer, "op", i))
        tracer.recording = False
        tracer.uninstall()
        cache_after = system.cache_counters()
        requests = buffer.requests - buffer_before[0]
        hits = buffer.hits - buffer_before[1]
    finally:
        system.close()
    tracer.write(out_path)

    count = len(ops)
    cost.add(tracer.cost)
    spans = tracer.totals(lambda op: isinstance(op, int))
    setup = tracer.totals(lambda op: op == "setup")

    # span times are scaled to the reference host speed like the
    # end-to-end times, by the probes of the traced pass and of set-up
    pass_factor = scale_factor(replay.probes)

    def per_op(name, kind="inclusive", scale=1e3):
        return spans.get(name, {}).get(kind, 0.0) * scale * pass_factor / count

    def setup_s(name):
        return setup.get(name, {}).get("inclusive", 0.0) * scale_factor(setup_probes)

    traced = sum(latency for _i, latency, _first in replay.scaled())
    untraced = sum(latency for _i, latency, _first in untraced.scaled())

    answers = [answer for _op, answer, _latency in replay.answers]
    served = [latency * pass_factor for _op, answer, latency in replay.answers
              if answer.chunks]
    writes = sum(op["kind"] == "write" for op in ops)
    cache = {key: cache_after[key] - cache_before[key]
             for key in cache_after} if cache_after else {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    step_s = spans.get("serve.step", {}).get("inclusive", 0.0)
    metrics = {
        "storage.index_lookup_ms_per_op": per_op("storage.index_lookup"),
        "storage.topn_tail_ms_per_op": per_op("storage.topn_tail"),
        "storage.page_reads_per_op": cost.page_reads / count,
        "storage.tuples_read_per_op": cost.tuples_read / count,
        "storage.buffer_hit_rate": hits / requests if requests else 0.0,
        "ir.postings_ms_per_op": per_op("ir.postings"),
        "ir.partial_scores_ms_per_op": per_op("ir.partial_scores"),
        "ir.index_build_s": setup_s("ir.index_build"),
        "fragmentation.build_s": setup_s("fragmentation.build"),
        "fragmentation.query_self_ms_per_op": per_op("fragmentation.query", "self"),
        "fragmentation.quality_check_ms_per_op": per_op("fragmentation.quality_check"),
        "fragmentation.switch_fetch_ms_per_op": per_op("fragmentation.switch_fetch"),
        "fragmentation.switch_rate": sum(a.switched for a in answers) / count,
        "mm.source_build_ms_per_op": per_op("mm.source_build"),
        "topn.engine_ms_per_op": per_op("topn.engine"),
        "topn.sorted_accesses_per_op": cost.sorted_accesses / count,
        "topn.random_accesses_per_op": cost.random_accesses / count,
        "topn.depth_per_op": sum(a.depth for a in answers) / count,
        "cache.hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        "cache.lookup_us_per_op": per_op("cache.lookup", scale=1e6),
        "cache.store_us_per_op": per_op("cache.store", scale=1e6),
        "cache.invalidations_per_write":
            cache.get("invalidations", 0) / writes if writes else 0.0,
        "cache.repeat_share": workload.repeat_share(),
        "parallel.coordinator_ms_per_op": per_op("parallel.coordinator"),
        "serve.step_ms_per_op": per_op("serve.step"),
        "serve.overhead_ms_per_op":
            (sum(served) - step_s * pass_factor) * 1e3 / count if served else 0.0,
        "serve.codec_us_per_op": per_op("serve.codec", scale=1e6),
        "serve.chunks_per_op": sum(a.chunks for a in answers) / count,
        "serve.bytes_per_op": sum(a.frame_bytes for a in answers) / count,
        "serve.server_start_s": setup_s("serve.server_start"),
        "core.self_ms_per_op": sum(row["self"] for name, row in spans.items()
                                   if name.startswith("core.")) * 1e3 / count,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    print(f"# traced pass {traced:.3f} s, untraced pass {untraced:.3f} s (scaled), "
          f"{len(tracer.spans)} spans -> {out_path.relative_to(HERE.parent)}")
    return metrics, replay, expected


def run_one(args) -> int:
    from workloads import WORKLOADS, Corpus

    workload = WORKLOADS[args.workload](Corpus(), args.seed)
    print(f"# workload {args.workload} seed {args.seed}: op list digest {workload.digest()}")
    if args.trace:
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, replay, expected = traced_run(workload, out)
        units = PER_LAYER
    else:
        metrics, replay, expected = timed_run(workload, args.seconds)
        units = END_TO_END
    mismatches, recall = check(workload, expected, replay)
    if not args.trace:
        metrics["recall_at_n"] = recall
    for error in replay.errors[:3]:
        print(f"# failed {error}", file=sys.stderr)
    attempted = len(replay.records)
    failed = replay.failed + mismatches
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted}; {mismatches} oracle mismatches)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    print(f"# pinned to CPU {pin_to_one_cpu()}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
