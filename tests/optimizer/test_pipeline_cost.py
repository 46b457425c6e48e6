"""Tests for the cost model and the full optimizer pipeline."""

import numpy as np
import pytest

from repro.algebra import evaluate, make_bag, make_list, parse
from repro.optimizer import CostModel, Optimizer
from repro.storage import CostCounter


@pytest.fixture
def optimizer():
    return Optimizer()


class TestCostModel:
    def test_source_uses_actual_cardinality(self):
        model = CostModel()
        env = {"xs": make_list(list(range(500)))}
        estimate = model.estimate_expr(parse("xs"), env)
        assert estimate.rows == 500
        assert estimate.sorted_asc

    def test_unbound_defaults(self):
        model = CostModel(default_rows=250)
        estimate = model.estimate_expr(parse("count(xs)"),
                                       {"xs": make_bag([1] * 10)})
        assert estimate.rows == 1

    def test_select_on_sorted_cheaper(self):
        model = CostModel()
        sorted_env = {"xs": make_list(list(range(10_000)))}
        shuffled = list(range(10_000))
        shuffled[0], shuffled[-1] = shuffled[-1], shuffled[0]
        unsorted_env = {"xs": make_list(shuffled)}
        expr = parse("select(xs, 5, 10)")
        assert (model.estimate_expr(expr, sorted_env).cost
                < model.estimate_expr(expr, unsorted_env).cost / 10)

    def test_topn_cheaper_than_sort(self):
        model = CostModel()
        env = {"xs": make_bag(np.random.default_rng(0).random(10_000).tolist())}
        topn = model.estimate_expr(parse("topn(xs, 10)"), env)
        sort_slice = model.estimate_expr(parse("slice(sort(xs, 1), 0, 10)"), env)
        assert topn.cost < sort_slice.cost

    def test_topn_on_sorted_is_near_free(self):
        model = CostModel()
        env = {"xs": make_list(sorted(range(10_000), reverse=True))}
        estimate = model.estimate_expr(parse("topn(xs, 10)"), env)
        assert estimate.cost < 100

    def test_conversion_drops_order_in_estimate(self):
        model = CostModel()
        env = {"xs": make_list(list(range(1000)))}
        direct = model.estimate_expr(parse("select(xs, 1, 2)"), env)
        through_bag = model.estimate_expr(parse("select(projecttobag(xs), 1, 2)"), env)
        assert direct.cost < through_bag.cost

    def test_rows_and_value_bounds_propagate(self):
        """Zone-map selectivity: nested selects narrow both cardinality
        and the propagated value bounds."""
        model = CostModel()
        values = (np.arange(1000) / 1000).tolist()
        env = {"xs": make_bag(values)}
        estimate = model.estimate_expr(parse("select(select(xs, 0.0, 0.5), 0.0, 0.25)"), env)
        assert estimate.rows == pytest.approx(250, rel=0.05)
        assert estimate.max_value == pytest.approx(0.25)

    def test_estimates_monotone_in_input_size(self):
        model = CostModel()
        rng = np.random.default_rng(0)
        small = model.estimate_expr(parse("sort(xs)"), {"xs": make_bag(rng.random(100).tolist())})
        large = model.estimate_expr(parse("sort(xs)"), {"xs": make_bag(rng.random(10_000).tolist())})
        assert large.cost > small.cost


# -- the E10 equivalent-plan pairs, inlined at test scale (tests cannot
# import from ``benchmarks/``): the model must pick the measured winner

PAIR_ROWS = 5_000

EQUIVALENT_PAIRS = [
    ("select(projecttobag(sorted_xs), 100, 200)",
     "projecttobag(select(sorted_xs, 100, 200))"),
    ("slice(sort(bag, 1), 0, 10)", "topn(bag, 10)"),
    ("select(select(random_xs, 1000, 40000), 2000, 3000)",
     "select(random_xs, 2000, 3000)"),
]


@pytest.fixture(scope="module")
def pair_env():
    rng = np.random.default_rng(101)
    return {
        "sorted_xs": make_list(list(range(PAIR_ROWS))),
        "random_xs": make_list(rng.permutation(PAIR_ROWS).tolist()),
        "bag": make_bag(rng.random(PAIR_ROWS).tolist()),
    }


def measure(expr_text, env):
    with CostCounter.activate() as cost:
        evaluate(parse(expr_text), env)
    return cost.tuples_read + cost.comparisons


def _orders_pairs(model, env):
    """True when the model picks the measured winner of every pair."""
    for left_text, right_text in EQUIVALENT_PAIRS:
        est_left = model.estimate_expr(parse(left_text), env).cost
        est_right = model.estimate_expr(parse(right_text), env).cost
        predicted = left_text if est_left < est_right else right_text
        actual = (left_text if measure(left_text, env) < measure(right_text, env)
                  else right_text)
        if predicted != actual:
            return False
    return True


class TestE10PairConformance:
    def test_default_model_orders_every_pair(self, pair_env):
        assert _orders_pairs(CostModel(), pair_env)

    def test_extreme_but_positive_constants_keep_the_ordering(self, pair_env):
        # the orderings are driven by cardinalities, so any positive
        # per-unit comparison constant must preserve them
        for comparison in (0.01, 0.25, 5.0):
            assert _orders_pairs(CostModel(comparison=comparison), pair_env), comparison


class TestPipeline:
    def test_example1_end_to_end(self, optimizer):
        env = {"xs": make_list(list(range(50_000)))}
        expr = parse("select(projecttobag(xs), 100, 150)")
        value, report = optimizer.execute(expr, env)
        assert str(report.optimized) == "projecttobag(select(xs, 100, 150))"
        assert value.equals(evaluate(expr, env))
        assert report.estimated_speedup > 10
        assert "push-select-through-conversion" in report.rules_fired()

    def test_cost_based_choice_picks_cheapest(self, optimizer):
        env = {"xs": make_bag(np.random.default_rng(1).random(5000).tolist())}
        report = optimizer.optimize(parse("slice(sort(xs, 1), 0, 10)"), env)
        assert str(report.optimized) == "topn(xs, 10, 1)"
        costs = {str(expr): est.cost for expr, est in report.candidates}
        assert costs[str(report.optimized)] == min(costs.values())

    def test_noop_when_nothing_applies(self, optimizer):
        env = {"xs": make_list([3, 1, 2])}
        report = optimizer.optimize(parse("sort(xs)"), env)
        assert report.optimized == report.original
        assert report.trace == []
        assert report.estimated_speedup == pytest.approx(1.0)

    def test_layers_compose(self, optimizer):
        """A query needing all three layers: select merge (logical),
        pushdown (inter-object), topn-of-sort (intra-object)."""
        env = {"xs": make_list(list(range(10_000)))}
        expr = parse("topn(sort(select(select(projecttobag(xs), 0, 5000), 100, 9000), 1), 5)")
        value, report = optimizer.optimize(expr, env), None
        report = optimizer.optimize(expr, env)
        layers_fired = {t.layer for t in report.trace}
        assert {"logical", "inter-object", "intra-object"} <= layers_fired
        optimized_value, _ = optimizer.execute(expr, env)
        assert optimized_value.equals(evaluate(expr, env))

    def test_execute_matches_unoptimized_semantics(self, optimizer):
        cases = [
            ("select(projecttobag(xs), 2, 8)", {"xs": make_list([1, 5, 9, 3])}),
            ("count(projecttobag(select(xs, 2, 9)))", {"xs": make_list([1, 5, 9])}),
            ("slice(sort(xs, 1), 0, 2)", {"xs": make_bag([0.5, 0.9, 0.1])}),
            ("max(projecttoset(xs))", {"xs": make_bag([2, 2, 7])}),
            ("topn(sort(xs), 3, 0)", {"xs": make_list([4, 2, 9, 1])}),
        ]
        for text, env in cases:
            expr = parse(text)
            value, report = optimizer.execute(expr, env)
            assert value.equals(evaluate(expr, env)), text

    def test_report_describe(self, optimizer):
        env = {"xs": make_list([1, 2, 3])}
        report = optimizer.optimize(parse("select(projecttobag(xs), 1, 2)"), env)
        text = report.describe()
        assert "push-select-through-conversion" in text
        assert "optimized:" in text

    def test_non_cost_based_mode(self):
        optimizer = Optimizer(cost_based=False)
        env = {"xs": make_list([1, 2, 3])}
        report = optimizer.optimize(parse("select(projecttobag(xs), 1, 2)"), env)
        assert str(report.optimized) == "projecttobag(select(xs, 1, 2))"

    def test_estimated_speedup_tracks_measured(self, optimizer):
        """E10's property in miniature: when the optimizer predicts a
        big win, the measured cost ratio agrees in direction."""
        env = {"xs": make_list(list(range(20_000)))}
        expr = parse("select(projecttobag(xs), 10, 50)")
        report = optimizer.optimize(expr, env)
        with CostCounter.activate() as before:
            evaluate(report.original, env)
        with CostCounter.activate() as after:
            evaluate(report.optimized, env)
        measured = before.tuples_read / max(after.tuples_read, 1)
        assert report.estimated_speedup > 1
        assert measured > 1
