"""The static race analyzer: exact MOA7xx codes on the seeded fixtures
and a clean bill of health for the package itself."""

from pathlib import Path

import pytest

from repro.analysis.concurrency import check_package, check_paths

FIXTURES = Path(__file__).parent / "fixtures.py"


@pytest.fixture(scope="module")
def fixture_report():
    return check_paths([FIXTURES])


def findings(report, code):
    return [d for d in report if d.code == code]


class TestSeededFixtures:
    def test_unguarded_counter_flagged_moa701(self, fixture_report):
        hits = findings(fixture_report, "MOA701")
        assert any("UnguardedCounter" in d.message and "count" in d.message
                   for d in hits)

    def test_lock_order_inversion_flagged_moa703(self, fixture_report):
        hits = findings(fixture_report, "MOA703")
        assert len(hits) == 1
        assert "_lock_a" in hits[0].message and "_lock_b" in hits[0].message

    def test_undeclared_shared_flagged_moa702(self, fixture_report):
        hits = findings(fixture_report, "MOA702")
        assert any("UndeclaredShared" in d.message for d in hits)

    def test_bad_declaration_flagged_moa704(self, fixture_report):
        hits = findings(fixture_report, "MOA704")
        assert any("_missing_lock" in d.message for d in hits)

    def test_clean_counter_produces_no_findings(self, fixture_report):
        assert not any("CleanCounter" in d.message for d in fixture_report)

    def test_sites_point_into_the_fixture_file(self, fixture_report):
        for diagnostic in fixture_report:
            assert diagnostic.site is not None
            path, _, line = diagnostic.site.rpartition(":")
            assert path.endswith("fixtures.py")
            assert int(line) > 0
        assert fixture_report.has_errors


class TestPackageDiscipline:
    def test_package_is_clean_of_error_severity_findings(self):
        report = check_package()
        errors = [d for d in report if d.severity == "error"]
        assert errors == [], "\n".join(d.render() for d in errors)

    def test_report_renders_and_serializes(self):
        report = check_package()
        assert "check" in report.render_text(label="check")
        payload = report.to_dict()
        assert payload["source"].startswith("package")
