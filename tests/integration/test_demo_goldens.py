"""Golden outputs of the demo commands: byte for byte.

The plan layer serves ``repro example1``, ``repro bounds``, ``repro
lint`` and ``examples/optimizer_playground.py``; no query path builds a
plan.  These tests pin the exact stdout of each, so a change to the
optimizer, the analyzers or the bound interpreter that moves any
printed byte fails here, not only one that drops a checked substring.
``examples/image_search.py`` is pinned the same way: its FA line is a
direct engine call, its TA and NRA lines go through the database.

The goldens live in ``goldens/``.  To re-record one after an intended
change, run the command from the repository root and redirect its
stdout into the file.
"""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDENS = Path(__file__).resolve().parent / "goldens"
PLANS = sorted(str(p.relative_to(REPO_ROOT))
               for p in (REPO_ROOT / "examples" / "plans").glob("*.moa"))

CASES = {
    "example1.txt": (["example1"], 0),
    "bounds.txt": (["bounds", *PLANS], 0),
    "bounds_json.txt": (["bounds", "--json", *PLANS], 0),
    "lint.txt": (["lint", *PLANS], 0),
    "demo_unsafe.txt": (["lint", "--demo-unsafe"], 1),
    "demo_widening.txt": (["lint", "--demo-widening"], 1),
    "verify_rules.txt": (["lint", "--verify-rules"], 0),
}


def golden(name):
    return (GOLDENS / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_prints_the_golden_bytes(name, monkeypatch):
    argv, expected_code = CASES[name]
    # plan paths are printed as given: run from the root, as CI does
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == expected_code
    assert out.getvalue() == golden(name)


def example_stdout(script):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True, text=True, timeout=240, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_optimizer_playground_prints_the_golden_bytes():
    assert example_stdout("optimizer_playground.py") == golden("optimizer_playground.txt")


def test_image_search_prints_the_golden_bytes():
    assert example_stdout("image_search.py") == golden("image_search.txt")
