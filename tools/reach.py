#!/usr/bin/env python3
"""Reach probe: which ``src/repro`` functions does any entry point call?

Usage (from the repository root)::

    python tools/reach.py                  # run every entry point, print the counts
    python tools/reach.py --write map.json # also dump function -> entry points
    python tools/reach.py --check          # compare the unreached set with REACH.json

Every entry point (:func:`entry_points`) runs in its own subprocess: the
perfbench workloads (untraced and traced), the ``examples/`` scripts,
each ``python -m repro`` subcommand but ``serve`` with its flag
branches, and the experiment tables (``pytest benchmarks/`` at
``REPRO_BENCH_SCALE=0.02`` with ``--benchmark-disable``, because
pytest-benchmark pauses profilers while it times).  A generated
``sitecustomize`` on ``PYTHONPATH`` installs ``sys.setprofile`` and
``threading.setprofile`` in every Python process an entry point
starts, and at exit dumps ``(file, co_firstlineno, name)`` for every
code object under ``src/repro`` that was called.

A code object is matched to the function whose ``def`` line or first
decorator line equals its ``co_firstlineno`` (a decorated function's
code starts at its decorator) and whose name equals ``co_name``.
Functions are named ``path::qualname`` as Python spells the qualname
(``Class.method``, ``outer.<locals>.inner``); a qualname defined twice
in one module gets ``[2]``, ``[3]`` ... from its second definition on.
A function's lines run from its ``def`` to its last line.

The ledger (``REACH.json``: ``{"path::qualname": {"label", "why"}}``)
gives every unreached function one of ``LABELS``: *delete*;
*protocol* (an abstract method, or a data-model hook such as
``__repr__`` that Python calls implicitly); *error path* (an error
path, or a test's reference, with the test named); *earns a caller*
(the open ROADMAP item that decides it, named as ``item N``).
``--check`` exits 1 when a function that no entry point reaches has no
ledger entry, or when an entry point other than the experiment tables
exits with a code other than its expected one.  It prints, without
failing, ledger entries that are now reached or that name no function.
The experiment tables' exit code is printed but not judged: at scale
0.02 two of their claims do not hold.

The working tree is left as it was found: ``benchmarks/results/`` and
``perfbench/out/``, which the entry points rewrite, are restored.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "REACH.json"
#: what a ledger entry may say about an unreached function
LABELS = ("delete", "protocol", "error path", "earns a caller")
#: directories the entry points rewrite; restored after the run
RESTORED = (ROOT / "benchmarks" / "results", ROOT / "perfbench" / "out")
TIMEOUT_S = 900

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_ROOT = os.environ["REACH_PACKAGE"] + os.sep
_codes = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                   for c in list(_codes.values())
                   if c.co_filename.startswith(_ROOT)})
    path = os.path.join(os.environ["REACH_OUT"], "%d.json" % os.getpid())
    with open(path, "w") as f:
        json.dump(rows, f)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

_PLANS = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "examples" / "plans").glob("*.moa"))
_TERMS = ["ba", "bo", "besefa"]


def _cli(*args: str) -> list[str]:
    return ["-m", "repro", "--scale", "0.02", *args]


def entry_points(scratch: Path) -> list[tuple[str, list[str], dict, int | None]]:
    """``(name, python arguments, extra environment, expected exit code)``.

    An expected code of ``None`` is printed but not judged.
    """
    perfbench = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1"]
    points = [
        ("perfbench --trace 0", perfbench + ["--trace", "0"], {}, 0),
        ("perfbench --trace 1", perfbench + ["--trace", "1"], {}, 0),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{example.name}", [f"examples/{example.name}"], {}, 0))
    cli = [
        ("stats",), ("zipf",), ("example1",),
        ("search", *_TERMS), ("search", *_TERMS, "--strategy", "unfragmented"),
        ("search", *_TERMS, "--shards", "2"),
        ("experiment", "e3", "--queries", "5"),
        *(("lint", plan) for plan in _PLANS),
        ("lint", "--json", *_PLANS), ("lint", "--demo-unsafe"),
        ("lint", "--demo-widening"), ("lint", "--verify-rules"),
        *(("bounds", plan) for plan in _PLANS),
        ("bounds", "--no-flow", *_PLANS), ("bounds", "--json", *_PLANS),
        ("check",), ("check", "--effects"), ("check", "--json"),
        ("profile", "search", "--terms", *_TERMS, "--events", "3"),
        ("profile", "search", "--terms", *_TERMS, "--shards", "2"),
        *(("profile", "topn", "--algo", algo) for algo in ("ta", "nra", "ca")),
        ("profile", "example1", "--json", "--export", str(scratch / "trace.jsonl")),
    ]
    expected_one = {("lint", "--demo-unsafe"), ("lint", "--demo-widening")}
    for args in cli:
        points.append((" ".join(("repro",) + args), _cli(*args), {},
                       1 if args in expected_one else 0))
    points.append(("pytest benchmarks/",
                   ["-m", "pytest", "benchmarks/", "-p", "no:cacheprovider",
                    "--benchmark-disable", "-q"],
                   {"REPRO_BENCH_SCALE": "0.02"}, None))
    return points


# -- the functions of the package ------------------------------------------

class Function(NamedTuple):
    key: str
    name: str
    def_line: int
    #: the first decorator's line, or the ``def`` line without decorators
    first_line: int
    lines: int


def module_functions(source: str, path: str) -> list[Function]:
    """Every function and method defined in one module, nested ones too."""
    found: list[Function] = []
    seen: Counter = Counter()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                seen[qualname] += 1
                key = f"{path}::{qualname}"
                if seen[qualname] > 1:
                    key += f"[{seen[qualname]}]"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append(Function(key, child.name, child.lineno, first,
                                      child.end_lineno - child.lineno + 1))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def package_functions() -> dict[Path, list[Function]]:
    return {path: module_functions(path.read_text(), str(path.relative_to(ROOT)))
            for path in sorted(PACKAGE.rglob("*.py"))}


def match_codes(functions: list[Function], codes) -> set[str]:
    """Keys of the functions that the ``(co_firstlineno, co_name)`` pairs name.

    A code object starts at its first decorator line when it has one,
    else at its ``def`` line; both are tried.
    """
    by_line: dict[tuple[int, str], str] = {}
    for fn in functions:
        by_line[(fn.def_line, fn.name)] = fn.key
        by_line[(fn.first_line, fn.name)] = fn.key
    return {by_line[code] for code in codes if code in by_line}


# -- running the entry points ----------------------------------------------

def _snapshot() -> dict[Path, dict[Path, bytes] | None]:
    return {d: {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}
            if d.exists() else None for d in RESTORED}


def _restore(saved) -> None:
    for directory, files in saved.items():
        if files is None:
            shutil.rmtree(directory, ignore_errors=True)
            continue
        for p in directory.rglob("*"):
            if p.is_file() and p not in files:
                p.unlink()
        for p, data in files.items():
            if not p.exists() or p.read_bytes() != data:
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_bytes(data)


def run_entry_points(scratch: Path):
    """Run every entry point; return ``{name: codes}`` and the exit codes."""
    site = scratch / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    reached: dict[str, set[tuple[str, int, str]]] = {}
    exits: dict[str, tuple[int, int | None]] = {}
    saved = _snapshot()
    try:
        for name, args, extra, expected in entry_points(scratch):
            out = scratch / f"out-{len(exits)}"
            out.mkdir()
            env = dict(os.environ, **extra,
                       PYTHONPATH=os.pathsep.join([str(site), str(SRC)]),
                       REACH_PACKAGE=str(PACKAGE), REACH_OUT=str(out))
            started = time.perf_counter()
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S, check=False)
            exits[name] = (proc.returncode, expected)
            codes = set()
            for dump in out.glob("*.json"):
                codes.update(tuple(row) for row in json.loads(dump.read_text()))
            reached[name] = codes
            print(f"  {name}: exit {proc.returncode}, {len(codes)} code objects, "
                  f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    finally:
        _restore(saved)
    return reached, exits


def reach_map(functions: dict[Path, list[Function]], reached) -> dict[str, list[str]]:
    """``{function key: [entry point names]}``, every function included."""
    result = {fn.key: [] for fns in functions.values() for fn in fns}
    for name, codes in reached.items():
        per_file: dict[str, list] = {}
        for filename, line, co_name in codes:
            per_file.setdefault(filename, []).append((line, co_name))
        for path, fns in functions.items():
            for key in match_codes(fns, per_file.get(str(path), ())):
                result[key].append(name)
    return result


# -- the report and the gate -------------------------------------------------

def check(unreached: set[str], reachmap, ledger: dict, exits) -> int:
    status = 0
    for name, (code, expected) in exits.items():
        if expected is not None and code != expected:
            print(f"reach: entry point {name!r} exited {code}, expected {expected}")
            status = 1
    for key in sorted(unreached - set(ledger)):
        print(f"reach: unreached and not in the ledger: {key}")
        status = 1
    for key in sorted(set(ledger) - unreached):
        if key in reachmap:
            print(f"reach: note: labelled {ledger[key]['label']!r} but now reached: {key}")
        else:
            print(f"reach: note: ledger names no function: {key}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="PATH",
                        help="write the map from function to entry points as JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail on an unreached function the ledger does not list")
    args = parser.parse_args(argv)

    functions = package_functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reached, exits = run_entry_points(Path(tmp))
    reachmap = reach_map(functions, reached)
    lines = {fn.key: fn.lines for fns in functions.values() for fn in fns}
    unreached = {key for key, names in reachmap.items() if not names}
    perfbench = {key for key, names in reachmap.items()
                 if any(n.startswith("perfbench") for n in names)}

    total_lines = sum(lines.values())
    dead_lines = sum(lines[k] for k in unreached)
    print(f"reach: {len(lines):,} functions, {total_lines:,} lines")
    print(f"reach: unreached {len(unreached):,} functions, {dead_lines:,} lines "
          f"({dead_lines / total_lines:.1%})")
    print(f"reach: perfbench alone reaches {len(perfbench):,} functions, "
          f"{sum(lines[k] for k in perfbench):,} lines")
    for name, (code, expected) in exits.items():
        if expected is None:
            print(f"reach: {name} exited {code} (not judged)")
    if args.write:
        Path(args.write).write_text(json.dumps(reachmap, indent=1, sort_keys=True) + "\n")
    if args.check:
        return check(unreached, reachmap, json.loads(LEDGER.read_text()), exits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
