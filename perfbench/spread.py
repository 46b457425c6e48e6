#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on one workload, each in a fresh process,
and prints for every metric the median of the runs and the distance
between their first and third quartiles as a share of that median —
the steadiness figure each metric's bound in ``BENCHMARK.json`` is set
against.  Run from the repository root::

    python3 perfbench/spread.py --workload text_step1 --seeds 1 2 3 4 5 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for line in lines:
            if line.startswith("# unscaled"):
                print(f"  {line}", flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload} {name}: median {median:.6g} "
              f"iqr/median {(q3 - q1) / median if median else 0.0:.4f} "
              f"min {min(series):.6g} max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
