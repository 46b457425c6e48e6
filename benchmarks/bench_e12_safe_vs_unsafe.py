"""E12 — the safe/unsafe taxonomy, side by side.

Paper basis (Section 2): "Two types of techniques exist: unsafe
techniques that speed up the process but might lower the answer
quality (e.g. precision and/or recall) and safe techniques that do
increase speed, although often much less, but maintain answer quality
compared to the unoptimized case."

Reproduced table: every top-N technique in the library on the same
text workload — cost reduction vs naive, top-20 overlap with the exact
answer, and its safety class.  Expected shape: the unsafe family is
fastest but lossy; the safe family is exact with smaller speedups.
"""

import pytest

from repro.mm import PostingsSource
from repro.quality import mean_over_queries, overlap_at
from repro.storage import CostCounter
from repro.topn import SUM, naive_topn, quit_continue_topn, threshold_topn

from conftest import record_table

N = 20


def test_e12_summary_table(benchmark, ft_database, ft_queries):
    index = ft_database.index
    model = ft_database.model

    def run():
        rows = []
        naive_cost_total = 0
        naive_rankings = {}
        for query in ft_queries:
            with CostCounter.activate() as cost:
                naive_rankings[query.query_id] = naive_topn(
                    index, list(query.term_ids), model, N
                ).doc_ids
            naive_cost_total += cost.tuples_read

        def measure(label, func, safe):
            total = 0
            overlaps = []
            for query in ft_queries:
                with CostCounter.activate() as cost:
                    result = func(list(query.term_ids))
                total += cost.tuples_read
                overlaps.append(overlap_at(result.doc_ids,
                                           naive_rankings[query.query_id], N))
            reduction = 1.0 - total / naive_cost_total
            rows.append([label, "safe" if safe else "UNSAFE",
                         f"{reduction:+.1%}", mean_over_queries(overlaps)])

        measure("naive (baseline)", lambda t: naive_topn(index, t, model, N), True)
        measure("TA over posting sources",
                lambda t: threshold_topn(
                    [PostingsSource(index, tid, model) for tid in t], N, SUM),
                True)
        measure("fragmentation: safe-switch",
                lambda t: ft_database.search(t, n=N, strategy="safe-switch").result, True)
        measure("fragmentation: indexed",
                lambda t: ft_database.search(t, n=N, strategy="indexed").result, True)
        measure("fragmentation: unsafe-small",
                lambda t: ft_database.search(t, n=N, strategy="unsafe-small").result, False)
        measure("brown quit (30% budget)",
                lambda t: quit_continue_topn(index, t, model, N,
                                             budget_fraction=0.3, strategy="quit"),
                False)
        measure("brown continue (30% budget)",
                lambda t: quit_continue_topn(index, t, model, N,
                                             budget_fraction=0.3, strategy="continue"),
                False)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "E12: safe vs unsafe techniques on one workload "
        "(cost reduction vs naive; overlap@20 with exact)",
        ["technique", "class", "cost vs naive", "overlap@20"],
        rows,
    )
    by_label = {row[0]: row for row in rows}
    # safe techniques: exact answers
    assert by_label["TA over posting sources"][3] == pytest.approx(1.0)
    assert by_label["fragmentation: safe-switch"][3] == pytest.approx(1.0)
    # unsafe techniques: measurably lossy
    assert by_label["fragmentation: unsafe-small"][3] < 1.0
    assert by_label["brown quit (30% budget)"][3] < 1.0
    # unsafe-small is cheaper than the safe switching variant
    unsafe_reduction = float(by_label["fragmentation: unsafe-small"][2].rstrip("%"))
    switch_reduction = float(by_label["fragmentation: safe-switch"][2].rstrip("%"))
    assert unsafe_reduction > switch_reduction
