"""Trace-calibrated cost constants and per-engine stopping predictors.

The feedback loop that closes the gap between the static cost model and
observed execution: ``repro profile --export`` (or any
:func:`~repro.obs.tracer.trace_session`) produces span records; a
:class:`CalibrationStore` ingests them, and :meth:`CalibrationStore.fit`
turns the evidence into a :class:`Calibration`:

* **cost-model constants** — ``tuple_read`` / ``tuple_write`` /
  ``comparison`` weights refitted by least squares of span wall time
  against span self-cost counters, plus observed ``select.range``
  selectivities and ``convert.dedup`` ratios (the events the physical
  operators emit);
* **a charged-cost functional** — one scalar
  (:meth:`Calibration.charged_cost`) over the middleware counters, used
  identically by the plan chooser's estimates, ``repro explain``'s
  observed column, and the E20 benchmark, so estimated and measured
  costs live on the same scale;
* **per-engine stopping predictors** — k-nearest-neighbour models over
  query features (``n``, ``m``, corpus size, threshold-decay rate λ,
  cross-source agreement) that predict each Fagin-family engine's
  charged cost and sorted-access stopping depth from what tracing
  observed on similar queries.  λ is read off the ``ta.round``
  threshold sequence; agreement comes from the uncharged source
  synopsis (:meth:`~repro.mm.sources.ScoreSource.synopsis`).

Everything is persisted to a versioned ``calibration.json``
(:meth:`Calibration.save` / :meth:`Calibration.load`); loading a file
with the wrong ``version`` raises
:class:`~repro.errors.CalibrationError` rather than silently mixing
schemas.  Ingest mirrors the ``benchmarks/collect.py`` hardening:
records with a missing or unknown ``schema_version`` are skipped with a
collected warning, never trusted.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ...errors import CalibrationError
from ...obs.tracer import TRACE_SCHEMA_VERSION, trace_session
from ..cost import CostModel
from .workload import CORPUS_KINDS, corpus_matrix, make_sources

__all__ = [
    "CALIBRATION_VERSION",
    "COST_KEYS",
    "DEFAULT_WEIGHTS",
    "Calibration",
    "CalibrationStore",
    "EngineModel",
    "EngineObservation",
    "IngestStats",
    "QueryFeatures",
    "engine_for_span",
    "train_calibration",
]

#: version stamped into every ``calibration.json``; bump on any change
#: to the fitted-payload schema
CALIBRATION_VERSION = 1

#: engine span names -> the chooser's candidate-plan engine labels
ENGINE_SPANS = {
    "topn.fa": "fa",
    "topn.ta": "ta",
    "topn.nra": "nra",
    "topn.ca": "ca",
    "topn.ta_blocked": "blocked_ta",
    "topn.nra_blocked": "blocked_nra",
    "topn.ca_blocked": "blocked_ca",
}

#: the charged counters the scalar cost functional is linear in
COST_KEYS = (
    "sorted_accesses",
    "random_accesses",
    "tuples_read",
    "tuples_written",
    "comparisons",
    "page_reads",
)

#: uncalibrated weights: accesses at parity (Fagin's measure), tuple /
#: comparison weights matching the static CostModel defaults
DEFAULT_WEIGHTS = {
    "sorted_accesses": 1.0,
    "random_accesses": 1.0,
    "tuples_read": 1.0,
    "tuples_written": 0.5,
    "comparisons": 0.25,
    "page_reads": 1.0,
}

_WEIGHT_FLOOR = 0.01


def engine_for_span(name: str) -> str | None:
    """The chooser's engine label for a span name, or ``None``."""
    return ENGINE_SPANS.get(name)


@dataclass
class QueryFeatures:
    """Per-query features the stopping predictors condition on.

    ``decay`` is λ, the per-rank exponential decay rate of the
    aggregate threshold (how fast τ falls as sorted access deepens);
    ``agreement`` is the mean pairwise top-k id overlap across sources
    in ``[0, 1]``.  Either may be ``None`` when the evidence did not
    carry it (e.g. NRA spans have no threshold sequence) — the models
    impute their training mean.
    """

    n: int
    m: int
    objects: int
    decay: float | None = None
    agreement: float | None = None

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "objects": self.objects,
                "decay": self.decay, "agreement": self.agreement}


@dataclass
class EngineObservation:
    """One traced engine run: features, charged counters, wall time."""

    engine: str
    features: QueryFeatures
    depth: float
    charged: dict
    wall_seconds: float


@dataclass
class IngestStats:
    """What one ingest batch contributed (and what it refused)."""

    ingested: int = 0
    skipped: int = 0
    engine_spans: int = 0
    warnings: list = field(default_factory=list)

    def merge(self, other: "IngestStats") -> "IngestStats":
        self.ingested += other.ingested
        self.skipped += other.skipped
        self.engine_spans += other.engine_spans
        self.warnings.extend(other.warnings)
        return self


def _decay_from_events(events: list) -> float | None:
    """λ from a span's ``ta.round`` threshold sequence.

    Fits ``τ(d) = τ0 · exp(-λ d)`` through the first and last positive
    thresholds; ``None`` when fewer than two rounds carried a positive
    threshold (NRA/CA spans, or degenerate runs)."""
    points = []
    for entry in events:
        if entry.get("name") != "ta.round":
            continue
        attrs = entry.get("attrs", {})
        threshold = attrs.get("threshold")
        depth = attrs.get("depth")
        if threshold is None or depth is None or threshold <= 0:
            continue
        points.append((float(depth), float(threshold)))
    if len(points) < 2:
        return None
    (d0, t0), (d1, t1) = points[0], points[-1]
    if d1 <= d0 or t0 <= 0 or t1 <= 0:
        return None
    return max((math.log(t0) - math.log(t1)) / (d1 - d0), 0.0)


class CalibrationStore:
    """Accumulates trace evidence; :meth:`fit` produces a :class:`Calibration`.

    Three ingest paths feed the same store:

    * :meth:`ingest_jsonl` — a ``repro profile --export`` file
      (``schema_version``-validated, damaged lines skipped with a
      warning);
    * :meth:`ingest_records` — already-parsed record dicts;
    * :meth:`observe_span` — one span record straight from a live
      :class:`~repro.obs.tracer.TraceSession`, optionally with
      caller-computed :class:`QueryFeatures` (the self-calibration
      harness attaches synopsis-derived agreement this way).
    """

    def __init__(self) -> None:
        self.observations: list[EngineObservation] = []
        #: (counter vector, wall seconds) rows from leaf spans, for the
        #: wall-time weight fit
        self._weight_rows: list[tuple[list[float], float]] = []
        self._selectivities: list[float] = []
        self._dedup_ratios: list[float] = []
        self.sources: list[str] = []

    # -- ingest ------------------------------------------------------------

    def ingest_jsonl(self, path) -> IngestStats:
        """Ingest a profile-export JSONL file (one span dict per line)."""
        stats = IngestStats()
        records = []
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    stats.skipped += 1
                    stats.warnings.append(f"{path}:{lineno}: damaged record ({exc.msg})")
                    continue
                records.append(record)
        stats.merge(self.ingest_records(records, source=str(path)))
        return stats

    def ingest_records(self, records, source: str = "<records>") -> IngestStats:
        """Ingest parsed span records, validating ``schema_version``.

        Records missing the field or carrying an unknown version are
        skipped and counted, with one warning per offending version —
        the same skip-and-warn posture ``benchmarks/collect.py`` takes
        toward result files it does not understand."""
        stats = IngestStats()
        bad_versions: dict = {}
        batch = []
        for record in records:
            if not isinstance(record, dict):
                stats.skipped += 1
                bad_versions.setdefault("<not a span object>", 0)
                bad_versions["<not a span object>"] += 1
                continue
            version = record.get("schema_version")
            if version != TRACE_SCHEMA_VERSION:
                stats.skipped += 1
                key = "<missing>" if version is None else repr(version)
                bad_versions[key] = bad_versions.get(key, 0) + 1
                continue
            batch.append(record)
        for key, count in sorted(bad_versions.items()):
            stats.warnings.append(
                f"{source}: skipped {count} record(s) with schema_version {key} "
                f"(expected {TRACE_SCHEMA_VERSION})")
        if batch:
            self.sources.append(source)
        # leaf spans (no record names them as parent) give clean
        # wall-vs-counters rows: their inclusive cost is their own work
        parent_ids = {record.get("parent_id") for record in batch}
        for record in batch:
            is_leaf = record.get("span_id") not in parent_ids
            self._absorb(record, features=None, leaf=is_leaf, stats=stats)
        return stats

    def ingest_report(self, report) -> IngestStats:
        """Ingest a :class:`~repro.obs.profile.ProfileReport` (or any
        object with ``spans()`` yielding span records)."""
        return self.ingest_records(
            [record.to_dict() for record in report.spans()], source="<profile>")

    def observe_span(self, record: dict, features: QueryFeatures | None = None) -> bool:
        """Ingest one live span dict; returns True when it was an
        engine span that became an :class:`EngineObservation`."""
        stats = IngestStats()
        before = len(self.observations)
        self._absorb(record, features=features, leaf=True, stats=stats)
        return len(self.observations) > before

    # -- absorption --------------------------------------------------------

    def _absorb(self, record: dict, features: QueryFeatures | None,
                leaf: bool, stats: IngestStats) -> None:
        stats.ingested += 1
        attrs = record.get("attrs") or {}
        events = record.get("events") or []
        duration = record.get("duration")
        self_cost = record.get("self_cost") or {}
        if leaf and duration and duration > 0 and any(self_cost.get(k) for k in COST_KEYS):
            vector = [float(self_cost.get(key, 0)) for key in COST_KEYS]
            self._weight_rows.append((vector, float(duration)))
        for entry in events:
            name = entry.get("name")
            eattrs = entry.get("attrs", {})
            if name == "select.range":
                rows_in = eattrs.get("rows_in") or 0
                if rows_in:
                    self._selectivities.append(eattrs.get("rows_out", 0) / rows_in)
            elif name == "convert.dedup":
                rows_in = eattrs.get("rows_in") or 0
                if rows_in:
                    self._dedup_ratios.append(eattrs.get("rows_out", 0) / rows_in)
        engine = engine_for_span(record.get("name", ""))
        if engine is None:
            return
        stats.engine_spans += 1
        cost = record.get("cost") or {}
        if features is None:
            features = QueryFeatures(
                n=int(attrs.get("n", 0)),
                m=int(attrs.get("m", 0)),
                objects=int(attrs.get("objects", 0)),
                decay=_decay_from_events(events),
                agreement=None,
            )
        depth = attrs.get("depth")
        if depth is None:
            for entry in reversed(events):
                d = entry.get("attrs", {}).get("depth")
                if d is not None:
                    depth = d
                    break
        self.observations.append(EngineObservation(
            engine=engine,
            features=features,
            depth=float(depth if depth is not None else 0.0),
            charged={key: float(cost.get(key, 0)) for key in COST_KEYS},
            wall_seconds=float(record.get("duration") or 0.0),
        ))

    # -- fitting -----------------------------------------------------------

    def _fit_weights(self) -> tuple[dict, bool]:
        rows = self._weight_rows
        if len(rows) < 2 * len(COST_KEYS):
            return dict(DEFAULT_WEIGHTS), False
        matrix = np.array([vector for vector, _ in rows], dtype=np.float64)
        wall = np.array([seconds for _, seconds in rows], dtype=np.float64)
        # drop all-zero columns from the solve; they keep their default
        active = [j for j in range(len(COST_KEYS)) if matrix[:, j].any()]
        if 0 not in active:  # no sorted accesses -> no normalization anchor
            return dict(DEFAULT_WEIGHTS), False
        try:
            solution, *_ = np.linalg.lstsq(matrix[:, active], wall, rcond=None)
        except np.linalg.LinAlgError:
            return dict(DEFAULT_WEIGHTS), False
        raw = dict(zip((COST_KEYS[j] for j in active), map(float, solution)))
        # normalize so one unit of sorted access (≈ one tuple read at
        # the middleware layer) costs 1.0; a degenerate anchor keeps
        # the defaults.  Columns never observed keep their default
        # weight untouched — they carry no evidence to rescale.
        anchor = raw["sorted_accesses"]
        if not math.isfinite(anchor) or anchor <= 0:
            return dict(DEFAULT_WEIGHTS), False
        weights = dict(DEFAULT_WEIGHTS)
        for key, value in raw.items():
            weights[key] = max(value / anchor, _WEIGHT_FLOOR)
        return weights, True

    def fit(self) -> "Calibration":
        """Fit the store into a :class:`Calibration`.

        Raises :class:`~repro.errors.CalibrationError` when the store
        is empty — an empty calibration would silently behave like the
        uncalibrated defaults while claiming to be fitted."""
        if not self.observations and not self._weight_rows \
                and not self._selectivities and not self._dedup_ratios:
            raise CalibrationError(
                "calibration store is empty: ingest profile exports or "
                "trace sessions before fitting")
        weights, weights_fitted = self._fit_weights()
        constants = {
            "tuple_read": 1.0,
            "tuple_write": weights["tuples_written"],
            "comparison": weights["comparisons"],
            "page_read": weights["page_reads"],
        }
        if self._selectivities:
            constants["select_selectivity"] = float(
                min(max(np.median(self._selectivities), 0.01), 1.0))
        if self._dedup_ratios:
            constants["dedup_ratio"] = float(
                min(max(np.median(self._dedup_ratios), 0.01), 1.0))
        engines: dict[str, EngineModel] = {}
        for obs in self.observations:
            model = engines.get(obs.engine)
            if model is None:
                model = engines[obs.engine] = EngineModel(engine=obs.engine)
            model.add(obs, weights)
        meta = {
            "observations": len(self.observations),
            "weight_rows": len(self._weight_rows),
            "weights_fitted": weights_fitted,
            "selectivity_samples": len(self._selectivities),
            "dedup_samples": len(self._dedup_ratios),
            "sources": list(self.sources),
        }
        return Calibration(version=CALIBRATION_VERSION, constants=constants,
                           weights=weights, engines=engines, meta=meta)


@dataclass
class EngineModel:
    """k-NN predictor of one engine's charged cost and stopping depth.

    Features are ``[ln(1+n), ln(1+m), ln(1+objects), decay, agreement]``
    standardized per dimension over the training set; prediction is
    inverse-distance-weighted over the ``k`` nearest training queries.
    k-NN is deliberately model-free: the E20 workload classes form
    clusters in feature space, and a nearest-neighbour average recovers
    per-class behaviour without assuming any parametric cost curve.
    """

    engine: str
    vectors: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    depths: list = field(default_factory=list)
    decay_mean: float = 0.0
    agreement_mean: float = 0.0
    _decay_sum: float = 0.0
    _decay_count: int = 0
    _agreement_sum: float = 0.0
    _agreement_count: int = 0

    def add(self, obs: EngineObservation, weights: dict) -> None:
        feats = obs.features
        if feats.decay is not None:
            self._decay_sum += feats.decay
            self._decay_count += 1
            self.decay_mean = self._decay_sum / self._decay_count
        if feats.agreement is not None:
            self._agreement_sum += feats.agreement
            self._agreement_count += 1
            self.agreement_mean = self._agreement_sum / self._agreement_count
        self.vectors.append(self._vector(feats))
        self.costs.append(sum(weights[key] * obs.charged.get(key, 0.0)
                              for key in COST_KEYS))
        self.depths.append(obs.depth)

    def _vector(self, feats: QueryFeatures) -> list:
        decay = feats.decay if feats.decay is not None else self.decay_mean
        agreement = (feats.agreement if feats.agreement is not None
                     else self.agreement_mean)
        return [math.log1p(max(feats.n, 0)), math.log1p(max(feats.m, 0)),
                math.log1p(max(feats.objects, 0)), float(decay), float(agreement)]

    def _predict(self, feats: QueryFeatures, targets: list, k: int = 5) -> float | None:
        if not self.vectors:
            return None
        query = np.asarray(self._vector(feats), dtype=np.float64)
        train = np.asarray(self.vectors, dtype=np.float64)
        scale = train.std(axis=0)
        scale[scale == 0] = 1.0
        dists = np.sqrt((((train - query) / scale) ** 2).sum(axis=1))
        order = np.argsort(dists, kind="stable")[: max(1, min(k, len(dists)))]
        values = np.asarray(targets, dtype=np.float64)[order]
        inv = 1.0 / (dists[order] + 1e-9)
        return float((values * inv).sum() / inv.sum())

    def predict_cost(self, feats: QueryFeatures) -> float | None:
        return self._predict(feats, self.costs)

    def predict_depth(self, feats: QueryFeatures) -> float | None:
        return self._predict(feats, self.depths)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "vectors": [list(map(float, v)) for v in self.vectors],
            "costs": list(map(float, self.costs)),
            "depths": list(map(float, self.depths)),
            "decay_mean": self.decay_mean,
            "agreement_mean": self.agreement_mean,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineModel":
        model = cls(engine=payload["engine"])
        model.vectors = [list(map(float, v)) for v in payload.get("vectors", [])]
        model.costs = list(map(float, payload.get("costs", [])))
        model.depths = list(map(float, payload.get("depths", [])))
        model.decay_mean = float(payload.get("decay_mean", 0.0))
        model.agreement_mean = float(payload.get("agreement_mean", 0.0))
        return model


@dataclass
class Calibration:
    """The fitted artifact: constants, cost functional, engine models."""

    version: int
    constants: dict
    weights: dict
    engines: dict
    meta: dict = field(default_factory=dict)

    @classmethod
    def uncalibrated(cls) -> "Calibration":
        """Defaults-only calibration (no trace evidence): the static
        cost model's constants and analytic engine priors."""
        return cls(version=CALIBRATION_VERSION,
                   constants={"tuple_read": 1.0, "tuple_write": 0.5,
                              "comparison": 0.25, "page_read": 1.0},
                   weights=dict(DEFAULT_WEIGHTS), engines={},
                   meta={"observations": 0, "weights_fitted": False})

    @property
    def calibrated(self) -> bool:
        return bool(self.engines) or bool(self.meta.get("observations"))

    # -- the shared scalar cost functional ---------------------------------

    def charged_cost(self, counters: dict) -> float:
        """Weighted scalar cost of a counter snapshot — the single
        measure chooser estimates, explain's observed column, and the
        E20 benchmark all use."""
        return float(sum(self.weights.get(key, 0.0) * counters.get(key, 0)
                         for key in COST_KEYS))

    # -- predictions -------------------------------------------------------

    def predict_cost(self, engine: str, feats: QueryFeatures) -> float | None:
        model = self.engines.get(engine)
        return model.predict_cost(feats) if model is not None else None

    def predict_depth(self, engine: str, feats: QueryFeatures) -> float | None:
        model = self.engines.get(engine)
        return model.predict_depth(feats) if model is not None else None

    def cost_model(self, **overrides) -> CostModel:
        """A :class:`~repro.optimizer.cost.CostModel` with the fitted
        constants (keyword overrides win)."""
        kwargs = {
            "tuple_read": self.constants.get("tuple_read", 1.0),
            "tuple_write": self.constants.get("tuple_write", 0.5),
            "comparison": self.constants.get("comparison", 0.25),
        }
        if "select_selectivity" in self.constants:
            kwargs["select_selectivity"] = self.constants["select_selectivity"]
        if "dedup_ratio" in self.constants:
            kwargs["dedup_ratio"] = self.constants["dedup_ratio"]
        kwargs.update(overrides)
        return CostModel(**kwargs)

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "constants": dict(self.constants),
            "weights": dict(self.weights),
            "engines": {name: model.to_dict()
                        for name, model in sorted(self.engines.items())},
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Calibration":
        version = payload.get("version")
        if version != CALIBRATION_VERSION:
            raise CalibrationError(
                f"calibration version {version!r} not supported "
                f"(expected {CALIBRATION_VERSION}); re-run `repro calibrate`")
        try:
            engines = {name: EngineModel.from_dict(model)
                       for name, model in payload.get("engines", {}).items()}
            return cls(version=CALIBRATION_VERSION,
                       constants=dict(payload["constants"]),
                       weights=dict(payload["weights"]),
                       engines=engines, meta=dict(payload.get("meta", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"damaged calibration payload: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "Calibration":
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"damaged calibration file {path}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise CalibrationError(f"damaged calibration file {path}: not an object")
        return cls.from_json(payload)


def train_calibration(*, seed: int = 7, objects: int = 800, sources: int = 3,
                      n: int = 10, queries_per_class: int = 4,
                      classes=CORPUS_KINDS,
                      store: CalibrationStore | None = None) -> Calibration:
    """Fit a calibration from traced engine runs over a training split.

    Every Fagin-family engine answers ``queries_per_class`` synthetic
    queries per workload class twice: once timed without the tracer and
    once under it.  The engine spans, carrying the untraced run's wall
    time and their synopsis-derived query features, feed the store.
    Pass an existing ``store`` to blend the self-profiled spans with
    already-ingested trace exports (``repro calibrate`` does)."""
    # chooser imports this module, so its helpers are imported lazily
    from .chooser import _ENGINE_FUNCS, query_features

    if store is None:
        store = CalibrationStore()
    rng = np.random.default_rng(seed)
    for kind in classes:
        for _query in range(queries_per_class):
            matrix = corpus_matrix(kind, objects, sources, rng)
            source_list = make_sources(matrix, prefix=kind)
            feats = query_features(source_list, n)
            for func in _ENGINE_FUNCS.values():
                # the weight fit reads the engine's own wall time from an
                # untraced run: the tracer's cost differs by engine (TA
                # records an event every round, NRA every check) and
                # would be fitted as a price of TA's random accesses
                started = time.perf_counter()
                func(source_list, n)
                wall = time.perf_counter() - started
                with trace_session() as session:
                    func(source_list, n)
                    roots = list(session.roots)
                for root in roots:
                    record = root.to_dict()
                    record["duration"] = wall
                    store.observe_span(record, features=feats)
    return store.fit()
