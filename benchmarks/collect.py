"""Merge the per-experiment JSON tables into one ``BENCH_RESULTS.json``.

Every ``benchmarks/bench_e*.py`` run writes its table(s) to
``benchmarks/results/<slug>.json`` (see ``record_table`` in
``conftest.py``).  This script collects them, sorted by slug, into a
single machine-readable file at the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ -q
    python benchmarks/collect.py            # -> BENCH_RESULTS.json

Run it from anywhere; paths are anchored to this file's location.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
OUTPUT = BENCH_DIR.parent / "BENCH_RESULTS.json"


#: keys every recorded table must carry (see conftest.record_table)
REQUIRED_KEYS = ("slug", "title", "headers", "rows")


def _has_script(slug: str, bench_dir: Path) -> bool:
    """Whether the experiment a slug belongs to (``e17`` and ``e10a``
    name experiments 17 and 10) still has its ``bench_e<N>_*.py``."""
    match = re.match(r"e(\d+)", slug)
    return match is None or any(bench_dir.glob(f"bench_e{match[1]}_*.py"))


def collect(results_dir: Path = RESULTS_DIR, output: Path = OUTPUT,
            bench_dir: Path = BENCH_DIR) -> dict:
    """Merge every ``results/*.json`` table; returns the payload.

    A missing, truncated or hand-damaged per-experiment file (an
    interrupted bench run leaves those behind) is *skipped with a
    warning* rather than aborting the merge — the other experiments'
    tables still make it into ``BENCH_RESULTS.json``.

    Tables already in ``BENCH_RESULTS.json`` whose per-experiment file
    is gone (a partial bench run only regenerates some results) are
    kept: a fresh run of one experiment updates its table without
    erasing the others.  Tables of an experiment whose
    ``bench_e<N>_*.py`` script no longer exists in ``bench_dir`` are
    dropped, whether they come from the previous output or from a
    leftover per-experiment file."""
    existing: dict[str, dict] = {}
    if output.is_file():
        try:
            with open(output) as fh:
                previous = json.load(fh)
            for table in previous.get("tables", []):
                if isinstance(table, dict) and "slug" in table:
                    existing[table["slug"]] = table
        except (OSError, json.JSONDecodeError) as exc:
            print(f"collect: ignoring unreadable {output.name}: {exc}",
                  file=sys.stderr)
    skipped = 0
    for path in sorted(results_dir.glob("*.json")):
        try:
            with open(path) as fh:
                table = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"collect: skipping {path.name}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        missing = [key for key in REQUIRED_KEYS
                   if not isinstance(table, dict) or key not in table]
        if missing:
            print(f"collect: skipping {path.name}: not a recorded table "
                  f"(missing {', '.join(missing)})", file=sys.stderr)
            skipped += 1
            continue
        existing[table["slug"]] = table
    payload = {
        "source": "benchmarks/results",
        "skipped": skipped,
        "tables": [existing[slug] for slug in sorted(existing)
                   if _has_script(slug, bench_dir)],
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def main() -> int:
    if not RESULTS_DIR.is_dir() or not any(RESULTS_DIR.glob("*.json")):
        print("no JSON tables under benchmarks/results/ — run the "
              "benchmarks first: PYTHONPATH=src python -m pytest benchmarks/ -q",
              file=sys.stderr)
        return 1
    payload = collect()
    note = (f" ({payload['skipped']} unreadable file(s) skipped)"
            if payload["skipped"] else "")
    print(f"merged {len(payload['tables'])} table(s) into {OUTPUT}{note}")
    if not payload["tables"]:
        print("collect: no readable tables — nothing merged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
