"""Benchmark-local checks: same-seed traced runs repeat their counts.

Not part of the repository's test suite (``testpaths`` is ``tests``);
run it from the repository root with::

    python3 -m pytest -q perfbench/test_repeat.py

Each workload runs twice in traced mode with one seed, each run in a
fresh process.  The op list digest and every count metric — accesses,
depth, page reads, tuples, switch rate, cache hits, invalidations,
chunks and bytes — must be identical; timings are not compared.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

COUNT_METRICS = (
    "storage.page_reads_per_op",
    "storage.tuples_read_per_op",
    "storage.buffer_hit_rate",
    "fragmentation.switch_rate",
    "topn.sorted_accesses_per_op",
    "topn.random_accesses_per_op",
    "topn.depth_per_op",
    "cache.hit_rate",
    "cache.invalidations_per_write",
    "cache.repeat_share",
    "serve.chunks_per_op",
    "serve.bytes_per_op",
)


def _traced(workload: str, seed: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if "op list digest" in line).split()[-1]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return digest, {name: metric["value"] for name, metric in result["metrics"].items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_repeats_counts(workload):
    first_digest, first = _traced(workload, seed=11)
    second_digest, second = _traced(workload, seed=11)
    assert first_digest == second_digest
    for name in COUNT_METRICS:
        assert first[name] == second[name], name
