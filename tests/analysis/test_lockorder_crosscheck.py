"""The MOA1105 static lock-order graph against the runtime oracle.

``repro.sync.lock_order_edges()`` records the acquisition-order graph
the sanitizer observes at runtime.  A deliberate A→B / B→A nesting is
the oracle: the runtime records both edges (and a ``lock-order``
violation), and the static analyzer must reach the same verdict —
report a cycle — from the source alone.  On disciplined code the
check is consistency: every runtime edge between statically-known
locks must already be in the static graph
(``crosscheck_lock_order`` returns the ones that are not).
"""

import ast
import time
from pathlib import Path

import pytest

from repro import sync
from repro.analysis.lifecycle import (
    build_lock_graph,
    crosscheck_lock_order,
    lifecycle_root,
    lock_order_cycles,
    static_lock_order_edges,
)

FIXTURE = (Path(__file__).resolve().parent / "fixtures" / "lifecycle"
           / "deadlock_order.py")


@pytest.fixture()
def sanitizer():
    sync.install_sanitizer()
    sync.reset_violations()
    try:
        yield
    finally:
        sync.uninstall_sanitizer()


def parse_src_trees():
    root = lifecycle_root()
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(root.rglob("*.py"))]


class TestRuntimeOracle:
    def test_reversed_nesting_records_both_edges(self, sanitizer):
        a = sync.make_lock("oracle.a")
        b = sync.make_lock("oracle.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        edges = sync.lock_order_edges()
        assert ("oracle.a", "oracle.b") in edges
        assert ("oracle.b", "oracle.a") in edges
        kinds = [v.kind for v in sync.violations()]
        assert "lock-order" in kinds

    def test_static_analyzer_agrees_with_runtime_on_the_same_shape(
            self, sanitizer):
        """The deadlock fixture is the source-level twin of the
        runtime A→B/B→A oracle: same locks, same verdict."""
        tree = ast.parse(FIXTURE.read_text(), filename=str(FIXTURE))
        graph = build_lock_graph([(FIXTURE, tree)])
        assert ("fixture.accounts", "fixture.audit") in graph.edges
        assert ("fixture.audit", "fixture.accounts") in graph.edges
        cycles = lock_order_cycles(graph.edges)
        assert any({"fixture.accounts", "fixture.audit"} <= set(c)
                   for c in cycles)

        # replaying the fixture's shape at runtime yields exactly the
        # edge pair the static graph predicted
        accounts = sync.make_lock("fixture.accounts")
        audit = sync.make_lock("fixture.audit")
        with accounts:
            with audit:
                pass
        with audit:
            with accounts:
                pass
        runtime = {e for e in sync.lock_order_edges()
                   if e[0].startswith("fixture.")}
        assert runtime == {("fixture.accounts", "fixture.audit"),
                           ("fixture.audit", "fixture.accounts")}
        assert crosscheck_lock_order(graph, sync.lock_order_edges()) == []


class TestShippedGraphConsistency:
    def test_static_graph_of_shipped_tree_is_acyclic(self):
        graph = build_lock_graph(parse_src_trees())
        assert lock_order_cycles(graph.edges) == []

    def test_runtime_workload_edges_are_a_subset_of_static(self, sanitizer):
        """Serve a cache-on parallel text query under the sanitizer, then
        one the saturated pool rejects: every nesting the runtime
        observes must be predicted by the static graph."""
        from repro.core import DatabaseConfig, MMDatabase
        from repro.errors import QuotaExceededError
        from repro.obs import metrics
        from repro.serve import ServeClient, ServerConfig, ServerThread, collect
        from repro.workloads import SyntheticCollection, trec

        collection = SyntheticCollection.generate(trec.tiny(seed=13))
        db = MMDatabase.from_collection(
            collection, config=DatabaseConfig(cache_enabled=True))
        query = " ".join(collection.term_strings[:4])
        server = ServerThread(db, ServerConfig(max_concurrent=1))
        handle = server.start()
        metrics.enable()
        try:
            with ServeClient(handle.host, handle.port) as client:
                served = collect(client.query(kind="text", query=query, n=10,
                                              strategy="parallel"))
                assert served.complete
                # the done frame is sent inside the admission: give the
                # server a beat to release the pool slot
                pool = server.server.pool
                deadline = time.monotonic() + 5.0
                while pool.in_flight and time.monotonic() < deadline:
                    time.sleep(0.01)
                with pool.admit():
                    with pytest.raises(QuotaExceededError, match="max_queries=1"):
                        collect(client.query(kind="text", query=query, n=10,
                                             strategy="parallel"))
        finally:
            metrics.disable()
            server.stop()
        assert sync.lock_order_edges(), "workload recorded no nesting"
        graph = build_lock_graph(parse_src_trees())
        assert crosscheck_lock_order(graph, sync.lock_order_edges()) == []

    def test_crosscheck_reports_unpredicted_edges(self):
        """An observed nesting between known locks that the static
        graph does not predict must surface, not vanish."""
        graph = build_lock_graph(parse_src_trees())
        known = sorted(graph.lock_names)
        assert len(known) >= 2
        fabricated = {(known[0], known[1]): "test-thread",
                      (known[1], known[0]): "test-thread"}
        missing = crosscheck_lock_order(graph, fabricated)
        assert set(missing) == {e for e in fabricated
                                if e not in graph.edges}
        assert missing  # at least one direction is not in the graph

    def test_static_edges_helper_matches_graph(self):
        trees = parse_src_trees()
        graph = build_lock_graph(trees)
        assert set(static_lock_order_edges(trees)) == set(graph.edges)
