"""The adaptive optimizer: trace-calibrated costs and per-query plans.

Three cooperating pieces (see ``docs/API.md``, "Adaptive optimizer &
explain"):

* :mod:`~repro.optimizer.adaptive.calibration` — the calibration
  store: ingests tracer span exports (``repro profile --export``),
  fits cost-model constants and per-engine stopping predictors, and
  persists them to a versioned ``calibration.json``;
* :mod:`~repro.optimizer.adaptive.chooser` — per-query candidate
  enumeration over the engine inventory, costed with the calibrated
  model, exposed as a cost/quality Pareto frontier, gated by the MOA
  verifier and MOA9xx bound certification;
* :mod:`~repro.optimizer.adaptive.explain` / ``repro explain`` — the
  candidate table (estimated vs observed cost, safety, certification,
  why the winner won) on the shared CLI diagnostics contract.

Experiment E20 (adaptive choice vs. the static single-engine policies
on a mixed workload) lives in ``benchmarks/bench_e20_adaptive.py``.
"""

from .calibration import (
    CALIBRATION_VERSION,
    Calibration,
    CalibrationStore,
    EngineModel,
    EngineObservation,
    IngestStats,
    QueryFeatures,
    engine_for_span,
    train_calibration,
)
from .chooser import (
    ChooserDecision,
    PlanCandidate,
    choose,
    choose_engine,
    enumerate_candidates,
    pareto_frontier,
    query_features,
)
from .explain import ExplainReport, ExplainRow, explain_example1, explain_topn
from .workload import CORPUS_KINDS, corpus_matrix, make_sources

__all__ = [
    "CALIBRATION_VERSION",
    "CORPUS_KINDS",
    "Calibration",
    "CalibrationStore",
    "ChooserDecision",
    "EngineModel",
    "EngineObservation",
    "ExplainReport",
    "ExplainRow",
    "IngestStats",
    "PlanCandidate",
    "QueryFeatures",
    "choose",
    "choose_engine",
    "corpus_matrix",
    "engine_for_span",
    "enumerate_candidates",
    "explain_example1",
    "explain_topn",
    "make_sources",
    "pareto_frontier",
    "query_features",
    "train_calibration",
]
