"""E19 — query service under multi-tenant load: qps, latency, isolation.

Paper basis (Section 4): Blok's optimization issues live inside a
*database service* — queries arrive concurrently, users disconnect and
come back, and the anytime behaviour of the Fagin-family engines is
exactly what a service should surface (stream the certified top-k so
far instead of blocking until the stop condition).  This experiment
starts a :class:`~repro.serve.ServerThread` over a database with two
planted feature spaces and drives it with closed-loop
:class:`~repro.serve.ServeClient` threads in two phases: a steady
tenant alone (solo), then the same tenant next to a noisy one whose
token bucket admits ~5 requests/second (mixed).  The bucket rejects
most of the noisy load at the first admission gate — cheaply, before
any engine work — so the steady tenant's latency should survive.

Recorded per tenant and phase: request counts, completed qps, p50/p99
latency, streamed chunk counts.  The run verifies that every streamed
final was bit-identical to the direct library call, that at least one
pre-final (anytime) chunk was streamed, that the noisy tenant was
actually throttled, and that the steady tenant's p99 stayed within 2x
of its solo baseline (the **isolation ratio**, with a 2 ms floor on
the solo p99: sub-millisecond baselines are below timer resolution).
"""

import threading
import time
from collections import Counter

import numpy as np

from repro.core import MMDatabase
from repro.errors import QuotaExceededError, ReproError
from repro.mm.features import FeatureSpace
from repro.serve import ServeClient, ServerConfig, ServerThread, TenantConfig, collect
from repro.serve.tenants import percentile
from repro.workloads import SyntheticCollection, trec

from conftest import BENCH_SCALE, record_table

SEED = 7
DURATION = 1.5  # seconds per phase
N = 10
ALGORITHM = "ta"
CLIENTS = 3  # closed-loop clients per tenant
CHUNK_DEPTH = 8
DIMS = 8
QUERY_POOL = 8
#: denominator floor (ms) for the isolation ratio
P99_FLOOR_MS = 2.0


def client_loop(handle, tenant, queries, expected, stop_at, tally, latencies):
    """One closed-loop client: request, drain, repeat until the clock.
    Counts into its own ``tally`` / ``latencies``, so no locking."""
    client = ServeClient(handle.host, handle.port)
    index = 0
    try:
        while time.monotonic() < stop_at:
            fq, want = queries[index % len(queries)], expected[index % len(expected)]
            index += 1
            tally["requests"] += 1
            started = time.perf_counter()
            try:
                result = collect(client.query(
                    tenant=tenant, kind="feature", n=N, algorithm=ALGORITHM,
                    queries=fq, chunk_depth=CHUNK_DEPTH))
            except QuotaExceededError as exc:
                # honor the server's retry_after hint (capped): a
                # throttled closed-loop client backs off instead of
                # burning the event loop with doomed requests
                tally["rejected"] += 1
                time.sleep(min(exc.retry_after or 0.02, 0.1))
                continue
            except (ReproError, OSError):
                tally["errors"] += 1
                client.close()
                try:
                    client = ServeClient(handle.host, handle.port)
                except OSError:
                    return
                continue
            latencies.append((time.perf_counter() - started) * 1000.0)
            tally["completed"] += 1
            tally["chunks"] += len(result.chunks)
            tally["prefinal"] += sum(not chunk["final"] for chunk in result.chunks)
            if not result.complete or result.items != want:
                tally["mismatches"] += 1
    finally:
        client.close()


def run_phase(handle, tenants, queries, expected) -> dict:
    """Drive ``CLIENTS`` clients per tenant for ``DURATION`` seconds;
    returns tenant -> (merged tally, sorted latencies in ms)."""
    stop_at = time.monotonic() + DURATION
    merged = {tenant: (Counter(), []) for tenant in tenants}
    threads = []
    for tenant in tenants:
        for _ in range(CLIENTS):
            tally, latencies = Counter(), []
            threads.append((threading.Thread(
                target=client_loop, daemon=True,
                args=(handle, tenant, queries, expected, stop_at, tally, latencies)),
                tenant, tally, latencies))
    for thread, *_ in threads:
        thread.start()
    for thread, tenant, tally, latencies in threads:
        thread.join()
        merged[tenant][0].update(tally)
        merged[tenant][1].extend(latencies)
    return {tenant: (tally, sorted(latencies))
            for tenant, (tally, latencies) in merged.items()}


def run_e19() -> dict:
    """(phase, tenant) -> (tally, sorted latencies); see the module docstring."""
    collection = SyntheticCollection.generate(
        trec.ft_like(scale=max(BENCH_SCALE, 0.05), seed=SEED))
    rng = np.random.default_rng(SEED + 2)
    db = MMDatabase.from_collection(collection)
    for name in ("bench_a", "bench_b"):
        db.add_feature_space(FeatureSpace(name, rng.random((collection.n_docs, DIMS))))
    queries = [{"bench_a": rng.random(DIMS), "bench_b": rng.random(DIMS)}
               for _ in range(QUERY_POOL)]
    # ground truth straight from the library call the server wraps
    expected = [
        [[int(item.obj_id), float(item.score)] for item in
         db.feature_search(fq, n=N, algorithm=ALGORITHM).result.items]
        for fq in queries]
    config = ServerConfig(
        tenants=(
            TenantConfig("steady", rate=20_000.0, burst=5_000.0,
                         max_concurrent=CLIENTS),
            TenantConfig("noisy", rate=5.0, burst=2.0, max_concurrent=1),
        ),
        workers=4,
        max_concurrent=4 * CLIENTS + 2,
        chunk_depth=CHUNK_DEPTH,
    )
    server = ServerThread(db, config)
    handle = server.start()
    try:
        outcome = {}
        for phase, tenants in (("solo", ["steady"]), ("mixed", ["steady", "noisy"])):
            for tenant, result in run_phase(handle, tenants, queries, expected).items():
                outcome[phase, tenant] = result
    finally:
        server.stop()
        db.close()
    return outcome


def rounded(value):
    return None if value is None else round(value, 2)


def test_e19_serve_load_and_isolation(benchmark):
    outcome = benchmark.pedantic(run_e19, rounds=1, iterations=1)
    rows = []
    for (phase, tenant), (tally, latencies) in outcome.items():
        rows.append([
            phase, tenant, tally["requests"], tally["completed"],
            tally["rejected"], round(tally["completed"] / DURATION, 1),
            rounded(percentile(latencies, 0.50)),
            rounded(percentile(latencies, 0.99)),
            tally["chunks"], tally["prefinal"],
            tally["mismatches"] + tally["errors"],
        ])
    solo_p99 = percentile(outcome["solo", "steady"][1], 0.99)
    mixed_p99 = percentile(outcome["mixed", "steady"][1], 0.99)
    ratio = (None if solo_p99 is None or mixed_p99 is None
             else mixed_p99 / max(solo_p99, P99_FLOOR_MS))
    rows.append(["isolation", "steady", None, None, None, None, None,
                 rounded(ratio), None, None, None])
    record_table(
        "E19: query service — per-tenant qps/latency and quota isolation",
        ["phase", "tenant", "requests", "completed", "rejected", "qps",
         "p50 ms", "p99 ms", "chunks", "prefinal", "bad"],
        rows,
    )
    for (phase, tenant), (tally, _latencies) in outcome.items():
        assert tally["mismatches"] == tally["errors"] == 0, (
            f"{phase}/{tenant}: a streamed final diverged or a request failed")
    steady = outcome["solo", "steady"][0]
    assert steady["completed"] > 0
    assert steady["prefinal"] >= 1, "never streamed an anytime prefix"
    assert outcome["mixed", "noisy"][0]["rejected"] >= 1, "quota never engaged"
    assert ratio is not None and ratio <= 2.0, (
        f"steady p99 degraded beyond 2x (isolation ratio {ratio})")
