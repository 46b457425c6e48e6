"""Tests for the bound-flow abstract interpreter (MOA9xx).

Covers the interval domain itself, the per-operator transfer
functions, each MOA901..MOA904 trigger, the certification verdict, and
the hypothesis containment property: the derived interval always contains
every value the plan can actually produce.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Apply, Var, evaluate, make_bag, make_list, make_set, parse
from repro.analysis import (
    SEEDED_UNSOUND_RULES,
    WIDENING_DEMO_EXPRESSION,
    AnalysisContext,
    PruningDeclaration,
    SoundnessHarness,
    analyze_bound_flow,
    certify,
    check_bounds_rewrite,
    demo_widening_rewrite,
    derive_bounds,
)
from repro.intervals import TOP, ScoreInterval, join_all, sum_of
from repro.topn.aggregates import SUM, UserAggregate

from .test_lint_cli import EXAMPLE_PLANS


def flow_of(text, **context_kwargs):
    expr = parse(text)
    return expr, derive_bounds(expr, AnalysisContext(**context_kwargs))


# -- the interval domain -----------------------------------------------------


class TestScoreInterval:
    def test_rejects_inverted_and_nan(self):
        with pytest.raises(ValueError):
            ScoreInterval(2.0, 1.0)
        with pytest.raises(ValueError):
            ScoreInterval(math.nan, 1.0)

    def test_join_meet(self):
        a, b = ScoreInterval(0, 2), ScoreInterval(1, 5)
        assert a.join(b) == ScoreInterval(0, 5)
        assert a.meet(b) == ScoreInterval(1, 2)
        assert a.meet(ScoreInterval(3, 4)) is None

    def test_scale_handles_negative_and_zero_weights(self):
        interval = ScoreInterval(1, 3)
        assert interval.scale(-2) == ScoreInterval(-6, -2)
        assert interval.scale(0) == ScoreInterval.point(0.0)

    def test_dominates_is_upper_bound_check(self):
        assert ScoreInterval(0, 4).dominates(4.0)
        assert not ScoreInterval(0, 4.5).dominates(4.0)

    def test_join_all_and_sum_of(self):
        assert join_all([]) == TOP
        assert join_all([ScoreInterval(0, 1), ScoreInterval(2, 3)]) == ScoreInterval(0, 3)
        assert sum_of([ScoreInterval(1, 2), ScoreInterval(3, 4)]) == ScoreInterval(4, 6)
        assert sum_of([]) == ScoreInterval.point(0.0)


# -- transfer functions ------------------------------------------------------


class TestTransfers:
    def test_literal_collection_hull(self):
        _, flow = flow_of("projecttobag([1, 2, 3, 4, 4, 5])")
        assert flow.root() == ScoreInterval(1, 5)

    def test_select_clamps(self):
        _, flow = flow_of("select(projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)")
        assert flow.root() == ScoreInterval(2, 4)

    def test_disjoint_select_is_vacuous(self):
        _, flow = flow_of("select(projecttobag([1, 2]), 10, 20)")
        root = flow.root()
        assert root.lo == root.hi  # no element can pass: vacuous edge

    def test_cutoffs_and_reorderings_preserve(self):
        for text in ("topn(projecttobag([1, 5, 3]), 2)",
                     "sort(projecttobag([1, 5, 3]))",
                     "projecttoset(projecttobag([1, 5, 3]))"):
            _, flow = flow_of(text)
            assert flow.root() == ScoreInterval(1, 5), text

    def test_count_uses_static_cardinality(self):
        _, flow = flow_of("count(projecttobag([1, 2, 3]))")
        assert flow.root() == ScoreInterval(0, 3)

    def test_sum_scales_by_cardinality(self):
        _, flow = flow_of("sum(projecttobag([1, 2, 3]))")
        assert flow.root().contains(6.0)  # the true sum
        assert flow.root().lo <= 0.0  # empty-input convention joined in

    def test_concat_joins(self):
        _, flow = flow_of("concat([1, 2], [8, 9])")
        assert flow.root() == ScoreInterval(1, 9)

    def test_var_uses_declared_score_bounds(self):
        expr = parse("topn(xs, 5)")
        unbounded = derive_bounds(expr, AnalysisContext())
        assert unbounded.root() == TOP
        bounded = derive_bounds(expr, AnalysisContext(
            score_bounds={"xs": ScoreInterval(0, 1)}))
        assert bounded.root() == ScoreInterval(0, 1)

    def test_every_edge_gets_a_fact(self):
        expr, flow = flow_of("topn(select(projecttobag([1, 2, 3]), 2, 3), 2)")
        paths = {(), (0,), (0, 0), (0, 0, 0)}
        assert paths <= set(flow.facts)
        assert "topn" in flow.render_text(expr)


# -- the containment property ------------------------------------------------

atoms = st.integers(min_value=-50, max_value=50)


@st.composite
def environments(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    values = draw(st.lists(atoms, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["list", "bag", "set"]))
    maker = {"list": make_list, "bag": make_bag, "set": make_set}[kind]
    return {"xs": maker(values)}, values


@st.composite
def collection_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return Var("xs")
    child = draw(collection_exprs(depth=depth + 1))
    op = draw(st.sampled_from(["select", "sort", "topn", "projecttobag",
                               "projecttoset"]))
    if op == "select":
        lo, hi = draw(atoms), draw(atoms)
        return Apply("select", child, min(lo, hi), max(lo, hi))
    if op == "sort":
        return Apply("sort", child, draw(st.sampled_from([0, 1])))
    if op == "topn":
        return Apply("topn", child, draw(st.integers(min_value=0, max_value=10)),
                     draw(st.sampled_from([0, 1])))
    return Apply(op, child)


@settings(max_examples=60, deadline=None)
@given(expr=collection_exprs(), env_values=environments())
def test_derived_interval_contains_every_true_value(expr, env_values):
    """The soundness property: every element the plan actually produces
    lies inside the derived root interval."""
    env, values = env_values
    context = AnalysisContext(
        env_types={k: v.stype for k, v in env.items()},
        score_bounds={"xs": ScoreInterval.of_values(values)},
    )
    try:
        expr.infer_type(context.env_types, context.registry)
    except Exception:
        return  # ill-typed draws are the type analyzers' problem
    result = evaluate(expr, env)
    root = derive_bounds(expr, context).root()
    for element in result.iter_elements():
        assert root.contains(float(element)), (str(expr), element, root.describe())


# -- the MOA9xx family -------------------------------------------------------


class TestMOA901:
    def test_non_monotone_aggregate_under_threshold_engine(self):
        spread = UserAggregate("spread", lambda gs: max(gs) - min(gs))
        expr = parse("topn(xs, 5)")
        findings = list(analyze_bound_flow(expr, AnalysisContext(
            threshold_engine="TA", aggregate=spread)))
        assert [d.code for d in findings] == ["MOA901"]

    def test_unregistered_aggregate_name_flagged(self):
        expr = parse("topn(xs, 5)")
        findings = list(analyze_bound_flow(expr, AnalysisContext(
            threshold_engine="CA", aggregate="mystery")))
        assert [d.code for d in findings] == ["MOA901"]

    def test_monotone_builtin_is_clean(self):
        expr = parse("topn(xs, 5)")
        for aggregate in (SUM, "sum", "prob"):
            findings = list(analyze_bound_flow(expr, AnalysisContext(
                threshold_engine="TA", aggregate=aggregate)))
            assert findings == [], aggregate


class TestMOA902:
    EXPR = "projecttobag([1, 5, 3])"

    def test_dominated_bound_certifies(self):
        expr = parse(self.EXPR)
        context = AnalysisContext(pruning=(
            PruningDeclaration("ta-threshold", (), asserted_upper=5.0),))
        assert list(analyze_bound_flow(expr, context)) == []
        assert certify(expr, context).certified

    def test_undominated_bound_fires_with_computable_error(self):
        expr = parse(self.EXPR)
        context = AnalysisContext(pruning=(
            PruningDeclaration("ta-threshold", (), asserted_upper=4.0),))
        findings = list(analyze_bound_flow(expr, context))
        assert [d.code for d in findings] == ["MOA902"]
        certificate = certify(expr, context)
        assert not certificate.certified
        assert certificate.worst_case is not None
        assert certificate.worst_case.score_error == pytest.approx(1.0)
        assert certificate.worst_case.computable


class TestMOA903:
    def test_unbounded_unsafe_cutoff_has_no_certifiable_error(self):
        expr = Apply("slice", Var("xs"), 0, 2)
        context = AnalysisContext(env_types={"xs": make_bag([1, 2, 3]).stype})
        codes = [d.code for d in analyze_bound_flow(expr, context)]
        assert codes == ["MOA903"]

    def test_bounded_unsafe_cutoff_gets_worst_case_instead(self):
        expr = Apply("slice", Var("xs"), 0, 2)
        context = AnalysisContext(
            env_types={"xs": make_bag([1, 2, 3]).stype},
            score_bounds={"xs": ScoreInterval(0, 10)})
        assert list(analyze_bound_flow(expr, context)) == []  # no MOA903
        certificate = certify(expr, context)
        assert not certificate.certified  # unsafe cut-off still denies
        assert certificate.worst_case is not None
        assert certificate.worst_case.computable
        assert certificate.worst_case.score_error == pytest.approx(10.0)


class TestMOA904:
    def test_widening_rewrite_flagged(self):
        before = parse(WIDENING_DEMO_EXPRESSION)
        after = parse("select(projecttobag([1, 2, 3, 4, 4, 5]), 0, 10)")
        findings = check_bounds_rewrite(before, after, AnalysisContext())
        assert [d.code for d in findings] == ["MOA904"]

    def test_tightening_rewrite_clean(self):
        before = parse("projecttobag([1, 2, 3, 4, 4, 5])")
        after = parse(WIDENING_DEMO_EXPRESSION)
        assert check_bounds_rewrite(before, after, AnalysisContext()) == []

    def test_demo_widening_rewrite_is_rejected_both_ways(self):
        demo = demo_widening_rewrite()
        assert "MOA904" in demo.report.codes()
        assert not demo.verdict.passed  # the lying "safe" label fails


# -- certification over the shipped corpus -----------------------------------


class TestCertification:
    def test_every_example_plan_certifies_clean(self):
        assert EXAMPLE_PLANS, "examples/plans/*.moa missing"
        for path in EXAMPLE_PLANS:
            with open(path, encoding="utf-8") as handle:
                for lineno, raw in enumerate(handle, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    certificate = certify(parse(line), AnalysisContext())
                    assert certificate.certified, (
                        f"{path}:{lineno}: {certificate.describe()}")

    def test_both_seeded_unsound_rewrites_rejected_by_harness(self):
        assert len(SEEDED_UNSOUND_RULES) >= 2
        for rule_cls in SEEDED_UNSOUND_RULES:
            verdict = SoundnessHarness().verify_rule(rule_cls())
            assert not verdict.passed, rule_cls.name

    def test_certificate_serialises(self):
        import json

        certificate = certify(parse("topn(projecttobag([1, 2, 3]), 2)"),
                              AnalysisContext())
        payload = certificate.to_dict()
        json.dumps(payload)
        assert payload["certified"] is True
        assert payload["root_interval"] == {"lo": 1.0, "hi": 3.0}
