"""Tests for the rewrite framework and the three rule layers."""

import pytest

from repro.algebra import evaluate, make_bag, make_list, parse
from repro.errors import RewriteError
from repro.optimizer import (
    DEFAULT_INTER_OBJECT_RULES,
    DEFAULT_LOGICAL_RULES,
    RewriteRule,
    RuleContext,
    intra_rules_for,
    rewrite_fixpoint,
)
from repro.storage import CostCounter


def ctx_for(env=None):
    env_types = {name: value.stype for name, value in (env or {}).items()}
    return RuleContext(env_types=env_types)


def rewrite(text, rules, env=None):
    expr, trace = rewrite_fixpoint(parse(text), rules, ctx_for(env))
    return str(expr), trace


ALL_RULES = DEFAULT_LOGICAL_RULES + DEFAULT_INTER_OBJECT_RULES + intra_rules_for()


class TestLogicalRules:
    def test_merge_selects(self):
        out, trace = rewrite("select(select(xs, 1, 10), 5, 20)", DEFAULT_LOGICAL_RULES,
                             {"xs": make_list([1, 2, 3])})
        assert out == "select(xs, 5, 10)"
        assert [t.rule for t in trace] == ["merge-selects"]

    def test_merge_selects_triple(self):
        out, _ = rewrite("select(select(select(xs, 0, 100), 10, 90), 20, 80)",
                         DEFAULT_LOGICAL_RULES, {"xs": make_list([1])})
        assert out == "select(xs, 20, 80)"

    def test_merge_selects_field_mismatch_not_merged(self):
        from repro.algebra import CollectionValue, FLOAT, INT, ListType, TupleType

        docs = CollectionValue.from_rows(
            ListType(TupleType.of(a=INT, b=FLOAT)), [{"a": 1, "b": 0.5}]
        )
        out, trace = rewrite("select(select(docs, 'a', 1, 10), 'b', 0.1, 0.9)",
                             DEFAULT_LOGICAL_RULES, {"docs": docs})
        assert trace == []

    def test_merge_slices(self):
        out, _ = rewrite("slice(slice(xs, 10, 50), 5, 10)", DEFAULT_LOGICAL_RULES,
                         {"xs": make_list(list(range(100)))})
        assert out == "slice(xs, 15, 10)"

    def test_merge_slices_clamps(self):
        out, _ = rewrite("slice(slice(xs, 0, 3), 2, 10)", DEFAULT_LOGICAL_RULES,
                         {"xs": make_list(list(range(100)))})
        assert out == "slice(xs, 2, 1)"

    def test_sort_idempotent(self):
        out, _ = rewrite("sort(sort(xs, 1), 1)", DEFAULT_LOGICAL_RULES,
                         {"xs": make_list([3, 1])})
        assert out == "sort(xs, 1)"

    def test_sort_different_directions_kept(self):
        out, trace = rewrite("sort(sort(xs, 1), 0)", DEFAULT_LOGICAL_RULES,
                             {"xs": make_list([3, 1])})
        assert trace == []


class TestInterObjectRules:
    def test_paper_example_1(self):
        """The flagship rewrite from the paper's Example 1."""
        out, trace = rewrite(
            "select(projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)",
            DEFAULT_INTER_OBJECT_RULES,
        )
        assert out.startswith("projecttobag(select(")
        assert trace[0].rule == "push-select-through-conversion"

    def test_select_through_projecttoset(self):
        out, _ = rewrite("select(projecttoset(xs), 2, 4)", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_list([1, 2, 2, 5])})
        assert out == "projecttoset(select(xs, 2, 4))"

    def test_topn_through_bag_conversion(self):
        out, _ = rewrite("topn(projecttobag(xs), 3)", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_list([5, 1, 9])})
        assert out == "topn(xs, 3)"

    def test_topn_not_pushed_through_set_conversion(self):
        out, trace = rewrite("topn(projecttoset(xs), 3)", DEFAULT_INTER_OBJECT_RULES,
                             {"xs": make_list([5, 1, 9])})
        assert trace == []  # dedup changes the multiset: unsafe to push

    def test_sort_through_bag_conversion(self):
        out, _ = rewrite("sort(projecttobag(xs))", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_list([3, 1])})
        assert out == "sort(xs)"

    def test_count_through_bag_conversion(self):
        out, _ = rewrite("count(projecttobag(xs))", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_list([1, 1])})
        assert out == "count(xs)"

    def test_count_not_through_set_conversion(self):
        out, trace = rewrite("count(projecttoset(xs))", DEFAULT_INTER_OBJECT_RULES,
                             {"xs": make_list([1, 1])})
        assert trace == []

    def test_max_through_set_conversion(self):
        out, _ = rewrite("max(projecttoset(xs))", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_list([1, 5, 5])})
        assert out == "max(xs)"

    def test_slice_of_sort_is_topn(self):
        out, trace = rewrite("slice(sort(xs, 1), 0, 10)", DEFAULT_INTER_OBJECT_RULES,
                             {"xs": make_list([3, 1, 2])})
        assert out == "topn(xs, 10, 1)"
        assert trace[0].rule == "slice-of-sort-is-topn"

    def test_slice_with_offset_not_topn(self):
        out, trace = rewrite("slice(sort(xs, 1), 5, 10)", DEFAULT_INTER_OBJECT_RULES,
                             {"xs": make_list([3, 1, 2])})
        assert trace == []

    def test_slice_of_bag_sort_is_topn(self):
        """The cross-extension case: BAG sort produces the LIST."""
        out, _ = rewrite("slice(sort(xs, 1), 0, 2)", DEFAULT_INTER_OBJECT_RULES,
                         {"xs": make_bag([3, 1, 2])})
        assert out == "topn(xs, 2, 1)"


class TestIntraObjectRules:
    def test_topn_of_sort(self):
        out, _ = rewrite("topn(sort(xs, 1), 5)", intra_rules_for(),
                         {"xs": make_list([3, 1])})
        assert out == "topn(xs, 5)"

    def test_sort_of_topn_same_direction(self):
        out, _ = rewrite("sort(topn(xs, 5), 1)", intra_rules_for(),
                         {"xs": make_list([3, 1])})
        assert out == "topn(xs, 5)"

    def test_sort_of_topn_other_direction_kept(self):
        out, trace = rewrite("sort(topn(xs, 5), 0)", intra_rules_for(),
                             {"xs": make_list([3, 1])})
        assert trace == []

    def test_topn_of_topn(self):
        out, _ = rewrite("topn(topn(xs, 20), 5)", intra_rules_for(),
                         {"xs": make_list([3, 1])})
        assert out == "topn(xs, 5, 1)"

    def test_topn_of_topn_growing_not_merged(self):
        out, trace = rewrite("topn(topn(xs, 5), 20)", intra_rules_for(),
                             {"xs": make_list([3, 1])})
        assert trace == []


class TestRewriteFramework:
    def test_semantics_preserved_by_full_rule_set(self):
        cases = [
            ("select(projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)", {}),
            ("slice(sort(xs, 1), 0, 3)", {"xs": make_list([5, 2, 9, 1])}),
            ("count(projecttobag(select(xs, 2, 8)))", {"xs": make_list([1, 5, 9])}),
            ("topn(sort(select(xs, 0, 50), 1), 2)", {"xs": make_list([30, 60, 10, 40])}),
            ("max(projecttoset(xs))", {"xs": make_bag([4, 4, 7])}),
        ]
        for text, env in cases:
            expr = parse(text)
            rewritten, _ = rewrite_fixpoint(expr, ALL_RULES, ctx_for(env))
            before = evaluate(expr, env)
            after = evaluate(rewritten, env)
            assert before.equals(after), f"{text}: {before} != {after}"

    def test_type_change_raises(self):
        from repro.algebra import Apply

        class BadRule(RewriteRule):
            name = "bad"
            layer = "logical"

            def apply(self, expr, context):
                if expr.op == "projecttobag":
                    return expr.args[0]  # changes BAG -> LIST
                return None

        with pytest.raises(RewriteError):
            rewrite_fixpoint(parse("projecttobag([1, 2])"), [BadRule()], ctx_for())

    def test_cycle_detection(self):
        from repro.algebra import Apply

        class Spin(RewriteRule):
            name = "spin"
            layer = "logical"

            def apply(self, expr, context):
                if expr.op == "select":
                    # rebuild an equivalent select endlessly
                    return Apply("select", *expr.args)
                return None

        with pytest.raises(RewriteError):
            rewrite_fixpoint(parse("select([1], 0, 2)"), [Spin()], ctx_for(),
                             max_applications=10)

    def test_trace_records_layers(self):
        _, trace = rewrite("select(projecttobag(select(xs, 0, 9)), 2, 4)",
                           ALL_RULES, {"xs": make_list([1, 2, 3])})
        layers = {t.layer for t in trace}
        assert "inter-object" in layers
        assert "logical" in layers  # merged selects after pushdown


class TestEndToEndRewriteWins:
    def test_example1_rewrite_is_cheaper(self):
        """The rewritten Example 1 plan must actually cost less on a
        sorted LIST (binary-search select + smaller conversion)."""
        xs = make_list(list(range(100_000)))
        env = {"xs": xs}
        bad = parse("select(projecttobag(xs), 100, 200)")
        good, _ = rewrite_fixpoint(bad, DEFAULT_INTER_OBJECT_RULES, ctx_for(env))
        with CostCounter.activate() as bad_cost:
            bad_result = evaluate(bad, env)
        with CostCounter.activate() as good_cost:
            good_result = evaluate(good, env)
        assert bad_result.equals(good_result)
        assert good_cost.tuples_read < bad_cost.tuples_read / 100

    def test_slice_sort_to_topn_is_cheaper(self):
        import numpy as np

        xs = make_list(np.random.default_rng(0).random(50_000).tolist())
        env = {"xs": xs}
        bad = parse("slice(sort(xs, 1), 0, 10)")
        good, _ = rewrite_fixpoint(bad, DEFAULT_INTER_OBJECT_RULES, ctx_for(env))
        with CostCounter.activate() as bad_cost:
            bad_result = evaluate(bad, env)
        with CostCounter.activate() as good_cost:
            good_result = evaluate(good, env)
        assert bad_result.equals(good_result)
        assert good_cost.comparisons < bad_cost.comparisons / 3
