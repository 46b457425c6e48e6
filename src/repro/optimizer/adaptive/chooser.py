"""Per-query plan choice over the Fagin-family engine inventory.

Given the sources of one top-N query, :func:`enumerate_candidates`
builds a :class:`PlanCandidate` per applicable strategy — FA / TA /
NRA / CA, whole-block TA / NRA / CA, the parallel coordinator, a cached
answer (served via :meth:`~repro.cache.manager.QueryCache.peek`, so
enumeration never distorts hit statistics), and an *unsafe* budgeted-TA
plan that trades predicted overlap@N for a depth cap.  Each candidate
carries

* an **estimated cost** on the calibration's scalar charged-cost
  functional — the k-NN predictor when trace evidence exists, an
  analytic Fagin-style prior otherwise;
* a **predicted quality** (1.0 for safe plans; predicted overlap@N
  for unsafe ones);
* the **MOA verifier verdict** (``analyze_expr`` over the equivalent
  ``topn`` plan) and the **MOA9xx bound certificate**
  (:func:`~repro.analysis.bounds.certify` with the query's synopsis-
  derived score bounds) — the chooser refuses to pick a plan that is
  not verifier-clean and bound-certified.

:func:`pareto_frontier` marks the non-dominated cost/quality set and
:func:`choose` picks the cheapest candidate at or above the caller's
``quality_floor`` (1.0 = exact answers only, the default).  Query
features come from the **uncharged** source synopsis
(:meth:`~repro.mm.sources.ScoreSource.synopsis`): the threshold-decay
rate λ and the cross-source top-k agreement cost no sorted or random
accesses, so planning never eats into the budget it is optimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...topn import (
    SUM,
    combined_topn,
    fagin_topn,
    naive_topn_sources,
    nra_topn,
    threshold_topn,
)
from .calibration import Calibration, QueryFeatures

__all__ = [
    "ChooserDecision",
    "PlanCandidate",
    "choose",
    "choose_engine",
    "enumerate_candidates",
    "pareto_frontier",
    "query_features",
]

#: how many top ranks the agreement probe reads per source synopsis
_AGREEMENT_TOP = 8

#: engines enumerated for every scalar-source query, in stable order
SCALAR_ENGINES = ("fa", "ta", "nra", "ca")

_ENGINE_FUNCS = {
    "fa": fagin_topn,
    "ta": threshold_topn,
    "nra": nra_topn,
    "ca": combined_topn,
}

#: threshold-engine label the bound analyzer certifies each plan under
_THRESHOLD_LABEL = {
    "fa": "FA", "ta": "TA", "nra": "NRA", "ca": "CA",
    "blocked_ta": "TA", "blocked_nra": "NRA", "blocked_ca": "CA",
    "parallel": "coordinator", "naive": None, "cached": None,
    "ta_budget": "TA",
}


def query_features(sources, n: int, agg=SUM) -> QueryFeatures:
    """Features of a query from uncharged synopsis probes.

    λ fits an exponential through the aggregate threshold at rank 0 and
    rank ``k ≈ 4n``; agreement is the mean pairwise overlap of the
    sources' top-:data:`_AGREEMENT_TOP` object ids.  Sources without a
    synopsis yield ``None`` features (the predictors impute)."""
    m = len(sources)
    objects = max((source.n_objects for source in sources), default=0)
    feats = QueryFeatures(n=n, m=m, objects=objects)
    if objects <= 0:
        return feats
    deep = min(max(4 * n, _AGREEMENT_TOP), objects - 1)
    ranks = list(range(min(_AGREEMENT_TOP, objects))) + [deep]
    synopses = []
    for source in sources:
        synopsis = source.synopsis(ranks)
        if synopsis is None:
            return feats
        synopses.append(synopsis)
    # threshold decay: aggregate of per-source grades at rank 0 vs rank `deep`
    tau0 = agg.combine([synopsis[0][1] for synopsis in synopses])
    tau_deep = agg.combine([synopsis[-1][1] for synopsis in synopses])
    if deep > 0 and tau0 > 0:
        floor = max(tau_deep, tau0 * 1e-6)
        feats.decay = max((math.log(tau0) - math.log(floor)) / deep, 0.0)
    # agreement: mean pairwise top-k id overlap
    tops = [{obj for obj, _grade in synopsis[:_AGREEMENT_TOP] if obj >= 0}
            for synopsis in synopses]
    if m >= 2:
        pairs, total = 0, 0.0
        for i in range(m):
            for j in range(i + 1, m):
                denom = max(len(tops[i]), len(tops[j]), 1)
                total += len(tops[i] & tops[j]) / denom
                pairs += 1
        feats.agreement = total / pairs if pairs else None
    else:
        feats.agreement = 1.0
    return feats


def synopsis_upper_bound(sources, agg=SUM) -> float:
    """Certified upper bound on any object's aggregate score, from the
    rank-0 synopsis grades (each source's maximum; monotone aggregates
    are bounded by the aggregate of per-source maxima).  Falls back to
    ``len(sources)`` grades of 1.0 when a source keeps no synopsis."""
    grades = []
    for source in sources:
        synopsis = source.synopsis([0])
        if synopsis and synopsis[0][0] >= 0:
            grades.append(synopsis[0][1])
        else:
            grades.append(1.0)
    return float(agg.combine(grades)) if grades else 1.0


@dataclass
class PlanCandidate:
    """One enumerated strategy for one query."""

    name: str
    engine: str
    safe: bool
    est_cost: float
    #: predicted answer quality: 1.0 exact, else predicted overlap@N
    quality: float
    predicted_depth: float | None = None
    #: MOA9xx bound-certification verdict (None = not applicable)
    certified: bool | None = None
    #: no error-severity MOA diagnostics from the plan verifier
    verifier_clean: bool = True
    #: how the estimate was produced ("knn" / "prior" / "peek" ...)
    estimator: str = "prior"
    note: str = ""
    #: verifier + certificate Diagnostic records (not serialized by
    #: :meth:`to_dict`; ``repro explain`` folds them into its report)
    diagnostics: list = field(default_factory=list)
    #: zero-argument runner executing the plan (None for cached misses)
    runner: object = None
    on_frontier: bool = False
    chosen: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "engine": self.engine,
            "safe": self.safe,
            "est_cost": self.est_cost,
            "quality": self.quality,
            "predicted_depth": self.predicted_depth,
            "certified": self.certified,
            "verifier_clean": self.verifier_clean,
            "estimator": self.estimator,
            "note": self.note,
            "on_frontier": self.on_frontier,
            "chosen": self.chosen,
        }


@dataclass
class ChooserDecision:
    """The outcome of :func:`choose` over one candidate set."""

    candidates: list
    chosen: PlanCandidate | None
    quality_floor: float
    why: str

    def to_dict(self) -> dict:
        return {
            "quality_floor": self.quality_floor,
            "chosen": self.chosen.name if self.chosen else None,
            "why": self.why,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
        }


def _prior_depth(engine: str, n: int, m: int, objects: int) -> float:
    """Analytic stopping-depth prior when no trace evidence exists.

    FA's classic expected depth on independent lists is
    ``objects^((m-1)/m) · n^(1/m)``; TA stops no later than FA (factor
    0.6 observed across the E6 grid), NRA's sorted-only administration
    runs deeper (1.8×), CA sits between (1.3×)."""
    if objects <= 0:
        return 0.0
    m = max(m, 1)
    fa_depth = min(float(objects), objects ** ((m - 1) / m) * max(n, 1) ** (1 / m))
    factor = {"fa": 1.0, "ta": 0.6, "nra": 1.8, "ca": 1.3}.get(engine, 1.0)
    return min(float(objects), factor * fa_depth)


def _prior_cost(engine: str, depth: float, n: int, m: int, objects: int,
                weights: dict) -> float:
    """Charged-cost prior from a depth prior: sorted accesses at the
    engine's depth on every list, plus the engine's random-access
    pattern (TA completes every seen object, FA completes once at the
    end, NRA never, CA every h rounds ≈ one completion per round/h)."""
    sa = weights.get("sorted_accesses", 1.0)
    ra = weights.get("random_accesses", 1.0)
    cmp_w = weights.get("comparisons", 0.25)
    sorted_cost = depth * m * sa
    if engine == "fa":
        random_cost = min(depth * m, float(objects)) * m * ra
    elif engine == "ta":
        random_cost = depth * m * (m - 1) * ra
    elif engine == "nra":
        random_cost = 0.0
    else:  # ca: one object completed every h rounds (h = m by default)
        random_cost = depth * (m - 1) * ra
    return sorted_cost + random_cost + depth * m * cmp_w


def _verify_plan(engine: str, n: int, upper: float, agg) -> tuple[bool | None, bool, list]:
    """Run the MOA verifier + bound certification for the equivalent
    ``topn`` plan under this engine's threshold administration.

    Imports are local: ``repro.analysis`` imports the rule framework,
    so a module-level import would be circular (same posture as
    :mod:`repro.optimizer.pipeline`)."""
    from ...algebra.parser import parse
    from ...algebra.types import FLOAT, BagType
    from ...analysis import AnalysisContext, analyze_expr, certify
    from ...intervals import ScoreInterval

    expr = parse(f"topn(xs, {int(max(n, 1))})")
    context = AnalysisContext(
        env_types={"xs": BagType(FLOAT)},
        score_bounds={"xs": ScoreInterval(0.0, max(upper, 0.0))},
        aggregate=agg,
        threshold_engine=_THRESHOLD_LABEL.get(engine),
    )
    certificate = certify(expr, context)
    verifier = list(analyze_expr(expr, context))
    clean = not any(d.severity == "error" for d in verifier)
    return certificate.certified, clean, verifier + list(certificate.diagnostics)


def enumerate_candidates(sources, n: int, agg=SUM, *,
                         calibration: Calibration | None = None,
                         blocked_sources=None,
                         shards: int | None = None,
                         cache=None, fingerprint=None,
                         include_naive: bool = False,
                         include_unsafe: bool = True,
                         budget_fraction: float = 0.25,
                         features: QueryFeatures | None = None) -> list:
    """Build the candidate table for one query (see module docstring).

    ``blocked_sources`` (block-at-a-time views of the same lists, at
    one block size) enables TA, NRA and CA charging whole blocks;
    ``shards`` enables the parallel coordinator; ``cache`` +
    ``fingerprint`` enable the cached candidate.  Every candidate is
    verifier-checked and bound-certified before :func:`choose` will
    consider it.
    """
    calibration = calibration or Calibration.uncalibrated()
    feats = features if features is not None else query_features(sources, n, agg)
    upper = synopsis_upper_bound(sources, agg)
    weights = calibration.weights
    candidates: list[PlanCandidate] = []

    def estimate(engine: str) -> tuple[float, float, str]:
        cost = calibration.predict_cost(engine, feats)
        depth = calibration.predict_depth(engine, feats)
        if cost is not None:
            return cost, (depth if depth is not None else 0.0), "knn"
        depth = _prior_depth(engine, n, feats.m, feats.objects)
        return (_prior_cost(engine, depth, n, feats.m, feats.objects, weights),
                depth, "prior")

    def add(name, engine, safe, est, quality, depth, estimator, note, runner):
        certified, clean, diagnostics = _verify_plan(name, n, upper, agg)
        candidates.append(PlanCandidate(
            name=name, engine=engine, safe=safe, est_cost=est,
            quality=quality, predicted_depth=depth, certified=certified,
            verifier_clean=clean, estimator=estimator, note=note,
            diagnostics=diagnostics, runner=runner))

    for engine in SCALAR_ENGINES:
        est, depth, estimator = estimate(engine)
        func = _ENGINE_FUNCS[engine]
        add(engine, engine, True, est, 1.0, depth, estimator,
            "exact Fagin-family stop",
            (lambda f=func: f(sources, n, agg)))

    if blocked_sources:
        block = blocked_sources[0].block_size
        for base in ("ta", "nra", "ca"):
            est, depth, estimator = estimate(base)
            # block granularity overshoots the scalar stop by up to one
            # block per list on average
            est = est + 0.5 * block * feats.m * weights.get("sorted_accesses", 1.0)
            add(f"blocked_{base}", base, True, est, 1.0, depth, estimator,
                f"block-at-a-time (block={block})",
                (lambda f=_ENGINE_FUNCS[base]: f(blocked_sources, n, agg)))

    if shards:
        # the coordinator's range evaluators scan every shard fully,
        # then merge; certified exact, never cheaper than objects·m
        est = feats.objects * feats.m * weights.get("sorted_accesses", 1.0)
        add("parallel", "parallel", True, est, 1.0, float(feats.objects),
            "prior", f"{shards}-way certified merge", None)

    if include_naive:
        est = feats.objects * feats.m * weights.get("random_accesses", 1.0)
        add("naive", "naive", True, est, 1.0, float(feats.objects), "prior",
            "exhaustive random access",
            (lambda: naive_topn_sources(sources, n, agg)))

    if cache is not None and fingerprint is not None:
        served, _entry = cache.peek(fingerprint, n)
        if served is not None:
            add("cached", "cached", True, 0.0, 1.0, 0.0, "peek",
                "fingerprint hit (peek; lookup charges on serve)",
                (lambda: cache.lookup(fingerprint, n)[0]))

    if include_unsafe:
        est_ta, depth_ta, estimator = estimate("ta")
        full_depth = max(depth_ta, float(n))
        budget_depth = max(n, int(budget_fraction * full_depth))
        fraction = min(budget_depth / full_depth, 1.0) if full_depth > 0 else 1.0
        # overlap decays with the un-scanned threshold mass; sqrt keeps
        # the prediction conservative near small budgets
        quality = 1.0 if fraction >= 1.0 else round(math.sqrt(fraction), 4)
        add("ta_budget", "ta", quality >= 1.0, est_ta * fraction, quality,
            float(budget_depth), estimator,
            f"TA stopped at depth {budget_depth} (unsafe budget)",
            (lambda d=budget_depth: threshold_topn(sources, n, agg, max_depth=d)))

    pareto_frontier(candidates)
    return candidates


def pareto_frontier(candidates: list) -> list:
    """Mark and return the non-dominated (cost ↓, quality ↑) set.

    A candidate is dominated when another one is at least as good on
    both axes and strictly better on one."""
    frontier = []
    for candidate in candidates:
        candidate.on_frontier = not any(
            (other.est_cost <= candidate.est_cost
             and other.quality >= candidate.quality
             and (other.est_cost < candidate.est_cost
                  or other.quality > candidate.quality))
            for other in candidates)
        if candidate.on_frontier:
            frontier.append(candidate)
    return frontier


def choose(candidates: list, quality_floor: float = 1.0) -> ChooserDecision:
    """Pick the cheapest eligible candidate.

    Eligible = predicted quality at or above the floor, verifier-clean,
    and not bound-refused (``certified`` is True or not applicable).
    ``quality_floor=1.0`` (default) admits only exact plans; lowering
    it opens the unsafe side of the Pareto frontier."""
    eligible = [c for c in candidates
                if c.quality >= quality_floor - 1e-9
                and c.verifier_clean and c.certified is not False]
    if not eligible:
        return ChooserDecision(candidates, None, quality_floor,
                               "no candidate meets the floor with a clean "
                               "verifier verdict and bound certificate")
    winner = min(eligible, key=lambda c: c.est_cost)
    winner.chosen = True
    others = [c for c in eligible if c is not winner]
    if others:
        runner_up = min(others, key=lambda c: c.est_cost)
        margin = ((runner_up.est_cost - winner.est_cost)
                  / winner.est_cost * 100.0) if winner.est_cost > 0 else 0.0
        why = (f"{winner.name}: cheapest certified plan at estimated "
               f"{winner.est_cost:.1f} ({winner.estimator}); runner-up "
               f"{runner_up.name} at {runner_up.est_cost:.1f} (+{margin:.0f}%)")
    else:
        why = f"{winner.name}: only candidate meeting quality floor {quality_floor:g}"
    excluded = [c.name for c in candidates if c.quality < quality_floor - 1e-9]
    if excluded:
        why += f"; below floor: {', '.join(excluded)}"
    return ChooserDecision(candidates, winner, quality_floor, why)


def choose_engine(sources, n: int, agg=SUM,
                  calibration: Calibration | None = None) -> tuple[str, dict]:
    """Fast path for the E20 bench loop: predict the four scalar
    engines' charged costs and return ``(best_engine, estimates)``
    without building runners or certificates."""
    calibration = calibration or Calibration.uncalibrated()
    feats = query_features(sources, n, agg)
    estimates = {}
    for engine in SCALAR_ENGINES:
        cost = calibration.predict_cost(engine, feats)
        if cost is None:
            depth = _prior_depth(engine, n, feats.m, feats.objects)
            cost = _prior_cost(engine, depth, n, feats.m, feats.objects,
                               calibration.weights)
        estimates[engine] = cost
    best = min(SCALAR_ENGINES, key=lambda engine: estimates[engine])
    return best, estimates
