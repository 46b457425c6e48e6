"""E17 — multi-level query cache: warm repeats and top-N resume.

Paper basis (Section 3.1): Blok lists reuse of earlier work among the
top-N optimization issues — a repeated query should cost (almost)
nothing, and the user who asked for the top 10 and comes back for the
top 100 should *continue* the first run rather than redo it.  This
experiment measures both reuses through :class:`~repro.core.MMDatabase`
with the cache on, always verifying (a warm answer that differs from
cold is a defect, never a statistic):

* **cold vs warm repeat** — a query batch runs cold, then again; warm
  repeats must cut charged operations at least 5x (they serve from the
  result cache and charge nothing) and return element-for-element
  identical rankings;
* **top-10 -> top-100 resume** — each engine answers top-10, then
  top-100 by resuming (TA frontier, NRA/CA access replay,
  quit/continue accumulator); the resumed run must charge less than a
  cold top-100 on a fresh, cache-less database and return the same
  ranking.

"Charged ops" sums everything the simulated cost model bills: page
reads, buffer hits and tuple reads on the storage side, sorted and
random accesses on the Fagin-source side.
"""

import numpy as np

from repro.core import DatabaseConfig, MMDatabase
from repro.mm.features import FeatureSpace
from repro.storage.stats import CostCounter
from repro.topn.quit_continue import quit_continue_topn
from repro.workloads import SyntheticCollection, generate_queries, trec

from conftest import BENCH_SCALE, record_table

SEED = 7
QUERIES = 10
N = 10
RESUME_N = 100
DIMS = 8
#: engines exercised by the resume scenario
RESUME_ENGINES = ("ta", "nra", "ca")


def charged(run):
    """Run ``run()`` under a fresh cost counter: (its result, the
    charged ops)."""
    with CostCounter.activate() as cost:
        result = run()
    ops = (cost.page_reads + cost.buffer_hits + cost.tuples_read
           + cost.sorted_accesses + cost.random_accesses)
    return result, ops


def mismatches(references, candidates) -> int:
    """Rankings that are not tie-aware identical (ids and scores)."""
    return sum(ref.doc_ids != got.doc_ids or ref.scores != got.scores
               for ref, got in zip(references, candidates))


def run_e17() -> list:
    """Every scenario's table row; see the module docstring."""
    collection = SyntheticCollection.generate(
        trec.ft_like(scale=max(BENCH_SCALE, 0.05), seed=SEED))
    rng = np.random.default_rng(SEED + 2)
    features = [FeatureSpace(name, rng.random((collection.n_docs, DIMS)))
                for name in ("bench_a", "bench_b")]
    # two-source queries: the Fagin engines degenerate over one source
    feature_queries = [{"bench_a": rng.random(DIMS), "bench_b": rng.random(DIMS)}
                       for _ in range(QUERIES // 2)]
    batch = generate_queries(collection, n_queries=QUERIES, terms_range=(2, 6),
                             rare_bias=2.0, seed=SEED + 1)
    tid_lists = [list(query.term_ids) for query in batch]

    def build(cache: bool) -> MMDatabase:
        db = MMDatabase.from_collection(collection,
                                        DatabaseConfig(cache_enabled=cache))
        for space in features:
            db.add_feature_space(space)
        return db

    rows = []

    def record(label, cold, cold_ops, warm, warm_ops, hits=0, resumes=0):
        reduction = "inf" if warm_ops == 0 else round(cold_ops / warm_ops, 2)
        rows.append([label, len(cold), cold_ops, warm_ops, reduction, hits,
                     resumes, mismatches(cold, warm)])

    def warm_repeat(label, db, search):
        cold, cold_ops = charged(search)
        before = db.cache.counters()["hits"]
        warm, warm_ops = charged(search)
        record(label, cold, cold_ops, warm, warm_ops,
               hits=db.cache.counters()["hits"] - before)

    # -- cold vs warm repeat: the text batch, then each engine's features --
    db = build(cache=True)
    warm_repeat("text-warm-repeat", db,
                lambda: [db.search(tids, n=N).result for tids in tid_lists])
    for algorithm in RESUME_ENGINES:
        db = build(cache=True)
        warm_repeat(f"{algorithm}-warm-repeat", db, lambda: [
            db.feature_search(fq, n=N, algorithm=algorithm).result
            for fq in feature_queries])

    # -- top-N -> top-RESUME_N resume, per engine ----------------------------
    for algorithm in RESUME_ENGINES:
        cold_db = build(cache=False)
        cold, cold_ops = charged(lambda: [
            cold_db.feature_search(fq, n=RESUME_N, algorithm=algorithm).result
            for fq in feature_queries])
        db = build(cache=True)
        for fq in feature_queries:  # seed the shallow runs (uncounted)
            db.feature_search(fq, n=N, algorithm=algorithm)
        before = db.cache.counters()["resumes"]
        resumed, resumed_ops = charged(lambda: [
            db.feature_search(fq, n=RESUME_N, algorithm=algorithm).result
            for fq in feature_queries])
        record(f"{algorithm}-resume", cold, cold_ops, resumed, resumed_ops,
               resumes=db.cache.counters()["resumes"] - before)

    # -- quit/continue accumulator resume ------------------------------------
    db = build(cache=False)
    qc_lists = [tids for tids in tid_lists if tids][:QUERIES // 2]
    cold, cold_ops = charged(lambda: [
        quit_continue_topn(db.index, tids, db.model, RESUME_N, strategy="continue")
        for tids in qc_lists])
    states = [  # shallow runs capture the accumulator (uncounted)
        quit_continue_topn(db.index, tids, db.model, N, strategy="continue",
                           capture_state=True).stats["resume_state"]
        for tids in qc_lists]
    resumed, resumed_ops = charged(lambda: [
        quit_continue_topn(db.index, tids, db.model, RESUME_N,
                           strategy="continue", resume_from=state)
        for tids, state in zip(qc_lists, states)])
    record("qc-resume", cold, cold_ops, resumed, resumed_ops,
           resumes=len(qc_lists))
    return rows


def test_e17_cache_warm_and_resume(benchmark):
    rows = benchmark.pedantic(run_e17, rounds=1, iterations=1)
    record_table(
        "E17: query cache — cold vs warm charged ops (top-10 -> top-100 resume)",
        ["scenario", "queries", "cold ops", "warm ops", "reduction",
         "hits", "resumes", "mismatches"],
        rows,
    )
    for label, _queries, cold_ops, warm_ops, *_, bad in rows:
        assert bad == 0, f"{label}: a warm or resumed ranking diverged from cold"
        if label.endswith("warm-repeat"):
            assert cold_ops >= 5 * warm_ops, f"{label}: below the 5x bar"
        else:
            assert warm_ops < cold_ops, f"{label}: resume charged no less than cold"
