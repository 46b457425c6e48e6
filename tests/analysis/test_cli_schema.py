"""The three diagnostics subcommands share one ``--json`` contract.

``repro lint``, ``repro bounds`` and ``repro check`` must all emit
through the same helper (``_emit_diagnostics_json`` →
``cli_payload``), so a CI step can consume any of them without
knowing which command produced the payload: same top-level keys, same
report shape, same annotation records.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = str(Path(__file__).resolve().parent / "fixtures" / "lifecycle")

SHARED_KEYS = ["command", "reports", "annotations", "max_severity",
               "exit_code"]


def run_json(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def payloads():
    return {
        "lint": run_json("lint", "--json", "--expr", "topn([3, 1, 2], 2)"),
        "bounds": run_json("bounds", "--json", "--expr", "topn([3, 1, 2], 2)"),
        "check": run_json("check", "--json"),
    }


class TestSharedSchema:
    def test_shared_toplevel_keys_lead_every_payload(self, payloads):
        """All three commands open with the same five keys in the same
        order; command-specific extras (``bounds`` adds
        ``certificates``) may only follow them."""
        key_lists = {name: list(payload)
                     for name, (_code, payload) in payloads.items()}
        for name, keys in key_lists.items():
            assert keys[:len(SHARED_KEYS)] == SHARED_KEYS, name
        assert key_lists["lint"] == SHARED_KEYS
        assert key_lists["check"] == SHARED_KEYS
        assert key_lists["bounds"] == SHARED_KEYS + ["certificates"]

    def test_command_field_names_the_subcommand(self, payloads):
        for name, (_code, payload) in payloads.items():
            assert payload["command"] == name

    def test_exit_code_field_matches_process_exit(self, payloads):
        for _name, (code, payload) in payloads.items():
            assert payload["exit_code"] == code

    def test_report_records_share_shape(self, payloads):
        shapes = set()
        for _name, (_code, payload) in payloads.items():
            for report in payload["reports"]:
                shapes.add(tuple(sorted(report)))
        assert len(shapes) == 1

    def test_annotation_records_are_ci_ready(self):
        code, payload = run_json("check", "--json", FIXTURES)
        assert code == 1
        assert payload["max_severity"] == "error"
        titles = {a["title"] for a in payload["annotations"]}
        assert "MOA1101" in titles and "MOA1103" in titles
        for annotation in payload["annotations"]:
            assert {"level", "title", "message", "location"} <= set(annotation)
            if "file" in annotation:
                assert isinstance(annotation["line"], int)


class TestCheckCommand:
    def test_clean_tree_passes_in_text_mode(self):
        out = io.StringIO()
        code = main(["check"], out=out)
        assert code == 0
        assert "clean" in out.getvalue()

    def test_seeded_fixtures_fail_with_lifecycle_codes(self):
        out = io.StringIO()
        code = main(["check", FIXTURES], out=out)
        text = out.getvalue()
        assert code == 1
        for expected in ("MOA1101", "MOA1102", "MOA1103", "MOA1104",
                         "MOA1105"):
            assert expected in text
