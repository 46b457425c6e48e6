"""Tests for profiled runs and the ``repro profile`` CLI.

The acceptance invariant lives here: the span tree's exclusive
("self") cost deltas must sum to the run's CostCounter totals —
instrumentation never loses or double-counts simulated work.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.mm import ArraySource
from repro.obs import run_profiled, tracer
from repro.obs.tracer import TRACE_SCHEMA_VERSION
from repro.topn import (
    combined_topn,
    fagin_topn,
    naive_topn_sources,
    nra_topn,
    threshold_topn,
)


def make_sources(seed=0, n_objects=300, m=3):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_objects, m))
    return [ArraySource(matrix[:, j], name=f"s{j}") for j in range(m)]


ENGINES = [naive_topn_sources, fagin_topn, threshold_topn, nra_topn, combined_topn]


class TestSchemaVersionExport:
    def test_span_to_dict_carries_schema_version(self):
        with tracer.trace_session() as session:
            with tracer.span("topn.ta", n=5, m=2, objects=10):
                pass
            records = [record.to_dict() for record in session.spans()]
        assert records
        assert all(r["schema_version"] == TRACE_SCHEMA_VERSION for r in records)
        assert next(iter(records[0])) == "schema_version"

    def test_profile_export_jsonl_carries_schema_version(self, tmp_path):
        sources = [ArraySource(np.linspace(0.1, 1.0, 50)) for _ in range(2)]
        report = run_profiled(lambda: threshold_topn(sources, 3))
        path = tmp_path / "trace.jsonl"
        report.export_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["schema_version"] == TRACE_SCHEMA_VERSION


class TestCostReconciliation:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_self_costs_sum_to_totals(self, engine):
        """The acceptance criterion: per-span exclusive cost deltas sum
        to the CostCounter totals for every engine."""
        report = run_profiled(lambda: engine(make_sources(), 10))
        self_totals = report.self_cost_totals()
        for key, value in report.totals.items():
            assert self_totals.get(key, 0) == value, key
        # the untraced remainder is exactly zero for fully-spanned engines
        assert all(v == 0 for v in report.untraced().values())

    def test_untraced_work_is_reported_not_lost(self):
        from repro.storage import stats

        def partly_traced():
            stats.charge_tuples_read(7)  # outside every span
            return threshold_topn(make_sources(), 5)

        report = run_profiled(partly_traced)
        assert report.untraced()["tuples_read"] == 7
        self_totals = report.self_cost_totals()
        assert report.totals["tuples_read"] == self_totals["tuples_read"] + 7


class TestProfileReport:
    def test_result_and_metrics_captured(self):
        report = run_profiled(lambda: threshold_topn(make_sources(), 5))
        assert len(report.result) == 5
        assert report.result.strategy == "fagin-ta"
        assert set(report.metrics) == {"counters", "gauges", "histograms"}

    def test_render_text_has_tree_and_total(self):
        report = run_profiled(lambda: threshold_topn(make_sources(), 5))
        text = report.render_text()
        assert "topn.ta" in text
        assert "TOTAL (CostCounter)" in text
        assert "sort_acc" in text

    def test_render_text_event_limit(self):
        report = run_profiled(lambda: threshold_topn(make_sources(), 5))
        shown = report.render_text(max_events=2)
        assert "* ta.round" in shown
        assert "more events" in shown
        hidden = report.render_text(max_events=0)
        assert "* ta.round" not in hidden

    def test_to_dict_shape(self):
        report = run_profiled(lambda: fagin_topn(make_sources(), 5))
        payload = report.to_dict()
        assert payload["totals"] == report.totals
        names = [s["name"] for s in payload["spans"]]
        assert "topn.fa" in names
        assert "fa.sorted_phase" in names
        json.dumps(payload)  # JSON-able throughout

    def test_export_jsonl(self, tmp_path):
        report = run_profiled(lambda: nra_topn(make_sources(), 5))
        path = tmp_path / "trace.jsonl"
        count = report.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(list(report.spans()))
        assert json.loads(lines[0])["name"] == "topn.nra"

    def test_metrics_state_restored(self):
        from repro.obs import metrics

        assert not metrics.enabled()
        run_profiled(lambda: threshold_topn(make_sources(), 3))
        assert not metrics.enabled()


class TestProfileCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_topn_scenario_text(self):
        code, text = self.run_cli("profile", "topn", "--algo", "ta",
                                  "--n", "5", "--objects", "400")
        assert code == 0
        assert "topn.ta" in text
        assert "TOTAL (CostCounter)" in text

    def test_topn_scenario_json_reconciles(self):
        code, text = self.run_cli("profile", "topn", "--algo", "fa",
                                  "--n", "5", "--objects", "400", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["totals"] == payload["self_cost_totals"]
        assert all(v == 0 for v in payload["untraced"].values())

    def test_example1_scenario(self):
        code, text = self.run_cli("profile", "example1")
        assert code == 0
        assert "optimizer.optimize" in text
        assert "algebra.evaluate" in text

    def test_search_scenario(self):
        code, text = self.run_cli("--scale", "0.01", "profile", "search",
                                  "--terms", "data")
        assert code == 0
        assert "frag.query" in text

    def test_export(self, tmp_path):
        path = tmp_path / "out.jsonl"
        code, _ = self.run_cli("profile", "topn", "--algo", "nra",
                               "--objects", "300", "--export", str(path))
        assert code == 0
        assert path.exists()
        assert json.loads(path.read_text().splitlines()[0])["name"] == "topn.nra"
