"""``repro check`` and the shared lint/check CLI diagnostics contract."""

import io
import json
from pathlib import Path

from repro.cli import main

FIXTURES = str(Path(__file__).parent / "fixtures.py")

#: the shared --json payload keys of the CLI diagnostics contract
CONTRACT_KEYS = {"command", "reports", "max_severity", "exit_code"}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheckCommand:
    def test_package_is_clean(self):
        code, output = run_cli("check")
        assert code == 0
        assert "clean" in output
        assert output.startswith("check ")

    def test_fixtures_exit_nonzero_with_codes(self):
        code, output = run_cli("check", FIXTURES)
        assert code == 1
        for expected in ("MOA701", "MOA702", "MOA703", "MOA704"):
            assert expected in output
        assert "fixtures.py:" in output

    def test_json_payload_follows_the_contract(self):
        code, output = run_cli("check", "--json", FIXTURES)
        assert code == 1
        payload = json.loads(output)
        assert CONTRACT_KEYS <= set(payload)
        assert payload["command"] == "check"
        assert payload["exit_code"] == 1
        assert payload["max_severity"] == "error"
        diagnostics = payload["reports"][0]["diagnostics"]
        assert all("site" in d and d["location"] == d["site"] for d in diagnostics)

    def test_json_clean_package_payload(self):
        code, output = run_cli("check", "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload["exit_code"] == 0
        assert payload["command"] == "check"

    def test_effects_summary_included_on_request(self):
        code, output = run_cli("check", "--json", "--effects", FIXTURES)
        assert code == 1
        payload = json.loads(output)
        summary = payload["effects"]["fixtures"]
        assert "UnguardedCounter" in summary["classes"]
        assert summary["classes"]["UnguardedCounter"]["declared"] is True

    def test_unreadable_path_is_usage_error(self):
        code, output = run_cli("check", "/nonexistent/module.py")
        assert code == 2
        assert "cannot read" in output
        assert "Traceback" not in output

    def test_unparseable_source_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        code, output = run_cli("check", str(bad))
        assert code == 2
        assert "cannot parse" in output


class TestSharedContract:
    def test_lint_json_payload_follows_the_same_contract(self):
        code, output = run_cli("lint", "--json", "--expr", "topn([3, 1, 2], 2)")
        assert code == 0
        payload = json.loads(output)
        assert CONTRACT_KEYS <= set(payload)
        assert payload["command"] == "lint"
        assert payload["exit_code"] == 0
        assert payload["reports"][0]["summary"] == "clean"

    def test_lint_and_check_report_schemas_match(self):
        _, lint_out = run_cli("lint", "--json", "--expr",
                              "slice(projecttobag([1, 2]), 0, 1)")
        _, check_out = run_cli("check", "--json", FIXTURES)
        lint_payload = json.loads(lint_out)
        check_payload = json.loads(check_out)
        lint_report = lint_payload["reports"][0]
        check_report = check_payload["reports"][0]
        assert set(lint_report) == set(check_report)
        lint_diag = lint_report["diagnostics"][0]
        check_diag = check_report["diagnostics"][0]
        # the shared core of every diagnostic dict
        for key in ("code", "severity", "message", "location", "expr"):
            assert key in lint_diag
            assert key in check_diag

    def test_both_commands_report_usage_as_2(self):
        lint_code, _ = run_cli("lint")
        check_code, _ = run_cli("check", "/nonexistent/module.py")
        assert lint_code == check_code == 2
