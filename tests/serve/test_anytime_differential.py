"""Served TA, NRA and CA streams against their oracles.

:class:`~repro.serve.session.AnytimeRunner` runs TA once per stream,
slab by slab, and cuts its chunks from that one frontier; the oracle
(:mod:`tests.serve.anytime_reference`) re-enters ``threshold_topn``
once per chunk.  NRA and CA streams make one engine call per chunk,
each resuming the previous chunk's state; their oracle is a cold run
capped at each chunk depth.  Over random mixes of 1-4 array, postings
and blocked sources — short posting lists that run out, heavy ties,
``n`` past the number of objects, every built-in aggregate plus
``WeightedSum`` and a declared-monotone user aggregate, and chunk
depths 1 to 300 — runner and oracle must encode the same frames, chunk
for chunk.  TA must charge the chain's totals over the stream; NRA and
CA must charge, chunk by chunk, the difference between successive cold
runs, reading each sorted rank once.  Through a live server, a stream
of any of the three stopped after any chunk (by disconnect or
deadline) must resume to exactly the frames the uninterrupted stream
sends.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResumeTokenError
from repro.mm import ArraySource, BlockedSource
from repro.obs import run_profiled
from repro.parallel.executor import CancelToken
from repro.serve import ServeClient, ServerConfig, ServerThread, collect, session
from repro.serve.protocol import encode_frame
from repro.serve.server import QueryServer
from repro.serve.tenants import TenantConfig
from repro.serve.session import AnytimeRunner
from repro.storage import CostCounter
from repro.topn import AVG, MAX, MIN, PROD, SUM, WeightedSum

from tests.serve.anytime_reference import CappedColdRunner, ChainedTARunner
from tests.serve.conftest import DIMS, build_db
from tests.topn.test_ta_differential import MAX_PLUS, build_sources

TOKEN = "sv1.x.0"
CHUNK_DEPTHS = (1, 3, 32, 100, 300)


def drain_frames(runner, limit=64):
    """Every chunk's encoded frame and the stream's summed charges."""
    frames = []
    with CostCounter.activate() as cost:
        while not runner.finished:
            frames.append(encode_frame(runner.step().to_frame(TOKEN)))
            assert len(frames) <= limit, "stream never reached a final chunk"
    return frames, cost.snapshot()


def drain_chunks(runner, limit=64):
    """Every chunk's encoded frame and the charges of each step."""
    frames, costs = [], []
    while not runner.finished:
        with CostCounter.activate() as cost:
            frames.append(encode_frame(runner.step().to_frame(TOKEN)))
        costs.append(cost.snapshot())
        assert len(frames) <= limit, "stream never reached a final chunk"
    return frames, costs


@st.composite
def streams(draw):
    n_objects = draw(st.integers(min_value=1, max_value=700))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = []
    for _ in range(m):
        grades = rng.random(n_objects)
        ties = draw(st.sampled_from([None, 2, 3, 5]))
        if ties is not None:
            grades = np.ceil(grades * ties) / ties
        # sparse columns make short posting lists that run out
        density = draw(st.sampled_from([1.0, 0.5, 0.1, 0.02]))
        grades[rng.random(n_objects) >= density] = 0.0
        columns.append(grades)
    kinds = draw(st.lists(st.sampled_from(
        ["array", "postings", "blocked_array", "blocked_postings"]),
        min_size=m, max_size=m))
    agg = draw(st.sampled_from(["sum", "avg", "min", "max", "prod", "wsum", "user"]))
    agg = {"sum": SUM, "avg": AVG, "min": MIN, "max": MAX, "prod": PROD,
           "user": MAX_PLUS}.get(agg) or WeightedSum(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m)))
    n = draw(st.integers(min_value=1, max_value=n_objects + 5))
    chunk_depth = draw(st.sampled_from(CHUNK_DEPTHS))
    block_size = draw(st.integers(min_value=1, max_value=70))
    return columns, kinds, agg, n, chunk_depth, block_size


def assert_same_stream(columns, kinds, agg, n, chunk_depth, block_size):
    chain = ChainedTARunner(build_sources(columns, kinds, block_size), n, agg,
                            epoch=2, chunk_depth=chunk_depth)
    runner = AnytimeRunner(build_sources(columns, kinds, block_size), n, "ta", agg,
                           epoch=2, chunk_depth=chunk_depth)
    expected_frames, expected_cost = drain_frames(chain)
    frames, cost = drain_frames(runner)
    assert frames == expected_frames
    assert cost == expected_cost


class TestMatchesChain:
    @settings(max_examples=200, deadline=None)
    @given(stream=streams())
    def test_frames_and_charges_equal_the_chain(self, stream):
        assert_same_stream(*stream)

    @pytest.mark.parametrize("chunk_depth", CHUNK_DEPTHS)
    @pytest.mark.parametrize("n_objects", [127, 128, 129, 300, 2000])
    def test_deep_streams_cross_slabs(self, n_objects, chunk_depth):
        """Lists that end on, just before and just past a slab end, and
        streams whose chunks run several slabs deep."""
        rng = np.random.default_rng(n_objects)
        columns = [np.where(rng.random(n_objects) < 0.4, rng.random(n_objects), 0.0),
                   rng.random(n_objects)]
        for n in (1, 40, n_objects + 3):
            assert_same_stream(columns, ["postings", "array"], MIN, n, chunk_depth, 16)


def recorded_reads(sources):
    """Record, per source, the sorted-rank ranges its charges cover."""
    reads = []
    for source in sources:
        log = []
        charge = source.charge_sorted

        def recording(lo, hi, charge=charge, log=log):
            log.append((lo, hi))
            return charge(lo, hi)

        source.charge_sorted = recording
        reads.append(log)
    return reads


def assert_same_bound_stream(algorithm, columns, kinds, agg, n, chunk_depth, block_size):
    oracle = CappedColdRunner(build_sources(columns, kinds, block_size), n, algorithm,
                              agg, epoch=2, chunk_depth=chunk_depth)
    sources = build_sources(columns, kinds, block_size)
    reads = recorded_reads(sources)
    runner = AnytimeRunner(sources, n, algorithm, agg, epoch=2, chunk_depth=chunk_depth)
    expected_frames, cold_costs = drain_chunks(oracle)
    frames, costs = drain_chunks(runner)
    assert frames == expected_frames
    # each chunk charges what its cold run charges beyond the previous one's
    previous = dict.fromkeys(cold_costs[0], 0)
    for cost, cold in zip(costs, cold_costs):
        assert cost == {key: value - previous[key] for key, value in cold.items()}
        previous = cold
    # and reads each sorted rank once, up to the final depth
    depth = runner.step().depth
    for source, log in zip(sources, reads):
        ends = [0] + [hi for _, hi in log]
        assert [lo for lo, _ in log] == ends[:-1]
        assert ends[-1] == min(depth, len(source.sorted_slab(0, source.n_objects)[0]))


class TestBoundStreamsMatchColdRuns:
    @settings(max_examples=150, deadline=None)
    @given(algorithm=st.sampled_from(["nra", "ca"]), stream=streams())
    def test_frames_and_charges_equal_capped_cold_runs(self, algorithm, stream):
        assert_same_bound_stream(algorithm, *stream)

    @pytest.mark.parametrize("algorithm", ["nra", "ca"])
    @pytest.mark.parametrize("n_objects", [129, 2000])
    def test_deep_streams_cross_slabs(self, algorithm, n_objects):
        rng = np.random.default_rng(n_objects)
        columns = [np.where(rng.random(n_objects) < 0.4, rng.random(n_objects), 0.0),
                   rng.random(n_objects)]
        for n in (1, 40, n_objects + 3):
            assert_same_bound_stream(algorithm, columns, ["postings", "array"], MIN, n,
                                     3, 16)

    @pytest.mark.parametrize("algorithm", ["nra", "ca"])
    def test_one_call_per_chunk_from_the_last_depth(self, algorithm, monkeypatch):
        """Every chunk is one engine call resumed at the previous
        chunk's depth and capped at its own."""
        name = "nra_topn" if algorithm == "nra" else "combined_topn"
        engine = getattr(session, name)
        calls = []

        def counting(*args, resume_from=None, **kwargs):
            calls.append((resume_from.depth if resume_from is not None else 0,
                          kwargs["max_depth"]))
            return engine(*args, resume_from=resume_from, **kwargs)

        monkeypatch.setattr(session, name, counting)
        rng = np.random.default_rng(8)
        sources = [ArraySource(rng.random(3000)) for _ in range(2)]
        runner = AnytimeRunner(sources, 20, algorithm, chunk_depth=4)
        depths = []
        while not runner.finished:
            depths.append(runner.step().depth)
        assert len(calls) == len(depths) > 2
        assert [start for start, _ in calls] == [0] + depths[:-1]
        assert [cap for _, cap in calls][:-1] == depths[:-1]


class TestBlockStorage:
    @pytest.mark.parametrize("algorithm", ["nra", "ca"])
    def test_served_bound_stream_reports_blocks(self, algorithm):
        """A served NRA or CA stream over block storage reports its
        block counts and runs under the blocked span, as served TA does."""
        grades = np.random.default_rng(3).random((3000, 3))
        sources = [BlockedSource.from_array(grades[:, j], 64) for j in range(3)]
        runner = AnytimeRunner(sources, 10, algorithm)

        def drain():
            chunks = []
            while not runner.finished:
                chunks.append(runner.step())
            return chunks

        report = run_profiled(drain, with_metrics=False)
        chunks = report.result
        assert {root.name for root in report.roots} == {f"topn.{algorithm}_blocked"}
        final = chunks[-1].stats
        assert final["block_size"] == 64
        blocks = sum(chunk.stats["blocks_read"] for chunk in chunks)
        assert blocks * 64 == report.totals["sorted_accesses"]
        assert final["blocks_skipped"] == 3 * sources[0].n_blocks - final["blocks_read"]


def counted_calls(monkeypatch):
    calls = []
    engine = session.threshold_topn

    def counting(*args, **kwargs):
        calls.append(kwargs.get("max_depth"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(session, "threshold_topn", counting)
    return calls


def test_one_run_reads_two_slabs(monkeypatch):
    """A 20k-object, two-source stream that stops between depths 128 and
    256 makes two engine calls, where the chain makes four."""
    rng = np.random.default_rng(0)
    base = rng.random(20_000)
    columns = [0.7 * base + 0.3 * rng.random(20_000) for _ in range(2)]
    chain = ChainedTARunner([ArraySource(c) for c in columns], 50)
    expected, _ = drain_frames(chain)
    calls = counted_calls(monkeypatch)
    frames, _ = drain_frames(AnytimeRunner([ArraySource(c) for c in columns], 50, "ta"))
    assert frames == expected
    assert 128 < chain._last.depth <= 256
    assert chain.calls == 4
    assert calls == [128, 256]


# -- through a live server ---------------------------------------------------------


def stripped(frames):
    """Frames without their session-specific resume token."""
    return [{k: v for k, v in frame.items() if k != "resume_token"} for frame in frames]


class _CancelAfter(CancelToken):
    """A deadline that passes after ``checks`` chunk steps."""

    def __init__(self, checks: int) -> None:
        super().__init__()
        self.left = checks

    def cancelled(self) -> bool:
        if self.left <= 0:
            return True
        self.left -= 1
        return False


@pytest.fixture(scope="module")
def live():
    db = build_db(seed=31)
    # the stop-and-resume loops send requests back to back: no rate limit
    unlimited = TenantConfig("default", rate=1e9, burst=1e9)
    thread = ServerThread(db, ServerConfig(chunk_depth=1, tenants=(unlimited,)))
    handle = thread.start()
    yield db, handle
    thread.stop()
    db.close()


@pytest.fixture(scope="module")
def stream_query():
    rng = np.random.default_rng(37)
    return {"color": rng.random(DIMS), "texture": rng.random(DIMS)}


def served_frames(live, stream_query, algorithm, oracle):
    """The whole served stream, checked against ``oracle``."""
    db, handle = live
    with ServeClient(handle.host, handle.port) as client:
        result = collect(client.query(queries=stream_query, n=10, chunk_depth=1,
                                      algorithm=algorithm))
    expected = []
    while not oracle.finished:
        expected.append(oracle.step().to_frame(None))
    assert result.complete
    assert stripped(result.chunks) == expected
    return expected


@pytest.fixture(scope="module")
def uninterrupted(live, stream_query):
    """The whole served TA stream, checked against the chain."""
    db, _ = live
    expected = served_frames(live, stream_query, "ta", ChainedTARunner(
        db.feature_sources(stream_query), 10, epoch=db.epoch, chunk_depth=1))
    # chunks 1, 2, 4, ... are cut from TA's first slab
    assert len(expected) >= 5
    return expected


@pytest.fixture(scope="module", params=["nra", "ca"])
def bound_stream(request, live, stream_query):
    """A whole served NRA or CA stream, checked against capped cold runs."""
    db, _ = live
    algorithm = request.param
    expected = served_frames(live, stream_query, algorithm, CappedColdRunner(
        db.feature_sources(stream_query), 10, algorithm, epoch=db.epoch, chunk_depth=1))
    assert len(expected) >= 4
    return algorithm, expected


def resume_with_retry(handle, token, attempts=100):
    for _ in range(attempts):
        try:
            with ServeClient(handle.host, handle.port) as client:
                return collect(client.resume(token))
        except ResumeTokenError as exc:
            if exc.code != "resume_busy":
                raise
            time.sleep(0.05)
    raise AssertionError("session never released after disconnect")


def stop_by_deadline_after_every_chunk(handle, stream_query, algorithm, uninterrupted,
                                       monkeypatch):
    deadline_token = QueryServer._deadline_token

    def stepped_deadline(server, request):
        if request.get("deadline_ms") is not None:
            return _CancelAfter(int(request["deadline_ms"]))
        return deadline_token(server, request)

    monkeypatch.setattr(QueryServer, "_deadline_token", stepped_deadline)
    for k in range(len(uninterrupted)):
        with ServeClient(handle.host, handle.port) as client:
            paused = collect(client.query(queries=stream_query, n=10, chunk_depth=1,
                                          algorithm=algorithm, deadline_ms=k))
        assert paused.done["status"] == "deadline"
        assert stripped(paused.chunks) == uninterrupted[:k]
        resumed = resume_with_retry(handle, paused.resume_token)
        assert resumed.complete
        assert resumed.done["chunks"] == len(uninterrupted)
        assert stripped(resumed.chunks) == uninterrupted[k:]


def stop_by_disconnect_after_every_chunk(handle, stream_query, algorithm, uninterrupted,
                                         monkeypatch):
    step = AnytimeRunner.step
    disconnected = threading.Event()
    held_from = [0]

    def held_step(runner):
        if runner._seq >= held_from[0]:
            disconnected.wait(timeout=10)
        return step(runner)

    monkeypatch.setattr(AnytimeRunner, "step", held_step)
    for k in range(len(uninterrupted) - 1):
        disconnected.clear()
        held_from[0] = k + 1
        client = ServeClient(handle.host, handle.port)
        stream = client.query(queries=stream_query, n=10, chunk_depth=1,
                              algorithm=algorithm)
        received = [next(stream) for _ in range(k + 1)]
        token = received[-1]["resume_token"]
        # abort the connection (RST, not FIN): the server sees the
        # disconnect on a write after the held step
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        client.close()
        disconnected.set()
        resumed = resume_with_retry(handle, token)
        assert stripped(received) == uninterrupted[:k + 1]
        assert resumed.complete
        first = resumed.chunks[0]["seq"]
        assert first > k
        assert stripped(resumed.chunks) == uninterrupted[first:]


class TestStopAndResume:
    def test_deadline_after_every_chunk(self, live, stream_query, uninterrupted,
                                        monkeypatch):
        stop_by_deadline_after_every_chunk(live[1], stream_query, "ta", uninterrupted,
                                           monkeypatch)

    def test_disconnect_after_every_chunk(self, live, stream_query, uninterrupted,
                                          monkeypatch):
        stop_by_disconnect_after_every_chunk(live[1], stream_query, "ta", uninterrupted,
                                             monkeypatch)

    def test_bound_stream_deadline_after_every_chunk(self, live, stream_query,
                                                     bound_stream, monkeypatch):
        stop_by_deadline_after_every_chunk(live[1], stream_query, *bound_stream,
                                           monkeypatch)

    def test_bound_stream_disconnect_after_every_chunk(self, live, stream_query,
                                                       bound_stream, monkeypatch):
        stop_by_disconnect_after_every_chunk(live[1], stream_query, *bound_stream,
                                             monkeypatch)
