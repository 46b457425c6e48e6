"""Tests for the analyzer suite, property inference and diagnostics."""

import json

from repro.algebra import make_list, parse
from repro.analysis import (
    AnalysisContext,
    Diagnostic,
    DiagnosticReport,
    FragmentDeclaration,
    analyze_expr,
    check_rewrite_step,
    classify_cutoffs,
    format_path,
    lint_expr,
    lint_text,
    make_diagnostic,
    properties_of,
    subexpr_at,
)


def codes_of(diagnostics):
    return sorted(d.code for d in diagnostics)


def ctx(env=None, fragments=None):
    env_types = {name: value.stype for name, value in (env or {}).items()}
    return AnalysisContext(env_types=env_types, fragments=fragments or {})


class TestDiagnostics:
    def test_severity_defaults_from_registry(self):
        assert make_diagnostic("MOA001", "x").severity == "error"
        assert make_diagnostic("MOA203", "x").severity == "info"
        assert make_diagnostic("MOA203", "x", severity="error").severity == "error"

    def test_path_rendering(self):
        assert format_path(()) == "$"
        assert format_path((0, 1)) == "$.0.1"

    def test_subexpr_at(self):
        expr = parse("select(sort(xs, 1), 2, 4)")
        assert str(subexpr_at(expr, (0,))) == "sort(xs, 1)"
        assert subexpr_at(expr, ()) is expr

    def test_report_render_and_json(self):
        report = DiagnosticReport(source="demo")
        report.add(make_diagnostic("MOA101", "broken", (0,), "slice(b, 0, 1)"))
        text = report.render_text()
        assert "MOA101" in text and "$.0" in text
        payload = json.loads(report.render_json())
        assert payload["source"] == "demo"
        assert payload["diagnostics"][0]["code"] == "MOA101"
        assert report.has_errors
        assert report.codes() == ["MOA101"]

    def test_invalid_code_or_severity_rejected(self):
        import pytest

        with pytest.raises(KeyError):
            make_diagnostic("MOA999", "x")
        with pytest.raises(ValueError):
            Diagnostic(code="MOA001", severity="fatal", message="x")


class TestPropertyInference:
    def test_sort_establishes_ordering(self):
        props = properties_of(parse("sort(xs, 1)"),
                              {"xs": make_list([3, 1, 2]).stype})
        assert props.ordered_by == (None, True)

    def test_projecttobag_drops_ordering(self):
        props = properties_of(parse("projecttobag(sort(xs, 0))"),
                              {"xs": make_list([3, 1, 2]).stype})
        assert props.ordered_by is None
        assert not props.stype.ordered

    def test_topn_bounds_cardinality(self):
        props = properties_of(parse("topn(xs, 5)"),
                              {"xs": make_list(range(100)).stype})
        assert props.max_rows == 5

    def test_projecttoset_is_distinct(self):
        props = properties_of(parse("projecttoset([1, 1, 2])"), {})
        assert props.distinct


class TestTypeSoundness:
    def test_clean_plan_no_diagnostics(self):
        env = {"xs": make_list([1, 2, 3])}
        assert analyze_expr(parse("topn(sort(xs, 1), 2, 1)"), ctx(env)) == []

    def test_unbound_variable_moa002(self):
        diagnostics = analyze_expr(parse("sort(nope, 1)"), ctx())
        assert codes_of(diagnostics) == ["MOA002"]

    def test_unknown_operator_moa003(self):
        diagnostics = analyze_expr(parse("slice(projecttobag([1, 2]), 1, 1)"), ctx())
        assert "MOA003" in codes_of(diagnostics)

    def test_only_deepest_failure_reports(self):
        diagnostics = analyze_expr(parse("sort(sort(nope, 1), 1)"), ctx())
        assert codes_of(diagnostics) == ["MOA002"]


class TestOrderingAndCutoffs:
    def test_prefix_slice_over_bag_flags_moa101_and_moa201(self):
        diagnostics = analyze_expr(parse("slice(projecttobag([3, 1, 2]), 0, 2)"), ctx())
        codes = codes_of(diagnostics)
        assert "MOA101" in codes and "MOA201" in codes

    def test_slice_of_sort_is_safe(self):
        diagnostics = analyze_expr(parse("slice(sort([3, 1, 2], 1), 0, 2)"), ctx())
        assert diagnostics == []

    def test_classify_cutoffs_reasons(self):
        classes = classify_cutoffs(parse("slice(sort([3, 1, 2], 1), 0, 2)"), ctx())
        assert [c.safe for c in classes] == [True]
        assert "ordered" in classes[0].reason

        classes = classify_cutoffs(parse("slice([3, 1, 2], 0, 2)"), ctx())
        assert [c.safe for c in classes] == [True]  # LIST prefix is positional

        classes = classify_cutoffs(parse("topn(projecttobag([3, 1, 2]), 2)"), ctx())
        assert [c.safe for c in classes] == [True]  # topn orders itself

    def test_mid_stream_slice_is_not_a_cutoff(self):
        assert classify_cutoffs(parse("slice([3, 1, 2], 1, 2)"), ctx()) == []


class TestCardinality:
    def test_noop_cutoff_flags_moa203(self):
        diagnostics = analyze_expr(parse("topn(topn([3, 1, 2], 2, 1), 5, 1)"), ctx())
        assert "MOA203" in codes_of(diagnostics)

    def test_effective_cutoff_is_quiet(self):
        expr = parse("topn(topn([3, 1, 2, 4, 5], 3, 1), 2, 1)")
        assert analyze_expr(expr, ctx()) == []


class TestFragmentCoverage:
    def make_fragments(self):
        stype = make_list([1]).stype
        env_types = {"f0": stype, "f1": stype, "f2": stype}
        fragments = {
            name: FragmentDeclaration(parent="docs", index=i, total=3)
            for i, name in enumerate(["f0", "f1", "f2"])
        }
        return env_types, fragments

    def test_partial_coverage_flags_moa401(self):
        env_types, fragments = self.make_fragments()
        context = AnalysisContext(env_types=env_types, fragments=fragments)
        diagnostics = analyze_expr(parse("sort(concat(f0, f1), 1)"), context)
        assert codes_of(diagnostics) == ["MOA401"]
        assert "2 of 3" in diagnostics[0].message

    def test_full_coverage_is_quiet(self):
        env_types, fragments = self.make_fragments()
        context = AnalysisContext(env_types=env_types, fragments=fragments)
        diagnostics = analyze_expr(parse("concat(concat(f0, f1), f2)"), context)
        assert diagnostics == []


class TestRewriteStepChecks:
    def test_dropped_ordering_flags_moa102(self):
        env = {"xs": make_list([3, 1, 2])}
        diagnostics = check_rewrite_step(parse("sort(xs, 1)"), parse("xs"), ctx(env))
        assert "MOA102" in codes_of(diagnostics)

    def test_lost_distinctness_flags_moa103(self):
        diagnostics = check_rewrite_step(parse("projecttoset([1, 1])"),
                                         parse("projecttobag([1, 1])"), ctx())
        codes = codes_of(diagnostics)
        assert "MOA103" in codes  # and the type change itself
        assert "MOA001" in codes

    def test_grown_cardinality_flags_moa301(self):
        env = {"xs": make_list(range(10))}
        diagnostics = check_rewrite_step(parse("topn(xs, 2)"), parse("topn(xs, 5)"),
                                         ctx(env))
        assert "MOA301" in codes_of(diagnostics)

    def test_unsafe_rule_label_flags_moa202(self):
        class Fake:
            name = "fake"
            safety = "unsafe"

        env = {"xs": make_list(range(10))}
        diagnostics = check_rewrite_step(parse("topn(xs, 2)"), parse("topn(xs, 2, 1)"),
                                         ctx(env), rule=Fake())
        assert "MOA202" in codes_of(diagnostics)
        assert diagnostics[-1].rule == "fake"

    def test_equivalent_rewrite_is_quiet(self):
        env = {"xs": make_list(range(10))}
        diagnostics = check_rewrite_step(parse("slice(sort(xs, 0), 0, 3)"),
                                         parse("topn(xs, 3, 0)"), ctx(env))
        assert diagnostics == []


class TestLintEntryPoints:
    def test_lint_expr_and_text_agree(self):
        text = "slice(projecttobag([1, 2]), 0, 1)"
        by_text = lint_text(text)
        by_expr = lint_expr(parse(text))
        assert by_text.codes() == by_expr.codes()
        assert by_text.has_errors

    def test_lint_file(self, tmp_path):
        plan = tmp_path / "plans.moa"
        plan.write_text("# comment\n\ntopn([3, 1, 2], 2)\nslice(projecttobag([1]), 0, 1)\n")
        reports = __import__("repro.analysis", fromlist=["lint_file"]).lint_file(plan)
        assert len(reports) == 2
        assert not reports[0].has_errors
        assert reports[1].has_errors
        assert reports[1].source.endswith(":4")
