"""Acceptance conformance: streamed answers are bit-identical to the
library calls they wrap — across algorithms, shard states, disconnects
and resumes."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import ResumeTokenError
from repro.serve import ServeClient, ServerConfig, ServerThread, collect
from repro.serve.session import AnytimeRunner

from tests.serve.conftest import DIMS, build_db

ALGORITHMS = ("ta", "nra", "ca")
SHARD_STATES = (1, 4)


def expected_items(db, fq, n, algorithm):
    result = db.feature_search(fq, n=n, algorithm=algorithm).result
    return [[int(item.obj_id), float(item.score)] for item in result.items]


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(41)
    return [{"color": rng.random(DIMS), "texture": rng.random(DIMS)}
            for _ in range(3)]


class TestFinalChunkConformance:
    """The streamed final chunk equals the direct library call, for
    every algorithm, with the database unsharded and sharded."""

    @pytest.fixture(scope="class", params=SHARD_STATES,
                    ids=[f"shards{s}" for s in SHARD_STATES])
    def sharded_setup(self, request):
        db = build_db(seed=17)
        db.shard(request.param)
        thread = ServerThread(db, ServerConfig(chunk_depth=2))
        handle = thread.start()
        yield db, handle
        thread.stop()
        db.close()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_feature_stream_matches_library_call(self, sharded_setup,
                                                 queries, algorithm):
        db, handle = sharded_setup
        for fq in queries:
            want = expected_items(db, fq, 10, algorithm)
            with ServeClient(handle.host, handle.port) as client:
                result = collect(client.query(queries=fq, n=10,
                                              algorithm=algorithm,
                                              chunk_depth=2))
            assert result.complete
            assert result.final["items"] == want
            assert result.final["epoch"] == db.epoch
            # canonical tie order: score desc, id asc
            keys = [(-score, obj) for obj, score in result.final["items"]]
            assert keys == sorted(keys)

    def test_text_parallel_strategy_single_final_chunk(self, sharded_setup):
        db, handle = sharded_setup
        from repro.workloads import generate_queries

        generated = generate_queries(db.collection, n_queries=1,
                                     terms_range=(3, 5), seed=7)
        terms = " ".join(db.collection.term_strings[t]
                         for t in generated.queries[0].term_ids)
        want = db.search(terms, n=10, strategy="parallel").result
        with ServeClient(handle.host, handle.port) as client:
            result = collect(client.query(kind="text", query=terms, n=10,
                                          strategy="parallel"))
        assert result.complete and len(result.chunks) == 1
        final = result.final
        assert final["algorithm"] == "text:parallel"
        assert final["items"] == [[int(item.obj_id), float(item.score)]
                                  for item in want.items]
        assert final["stats"] == {}  # the answer, not the coordinator's bookkeeping


class TestDisconnectResume:
    @pytest.fixture(scope="class")
    def setup(self):
        db = build_db(seed=19)
        thread = ServerThread(db, ServerConfig(chunk_depth=1))
        handle = thread.start()
        yield db, handle, thread.server
        thread.stop()
        db.close()

    def resume_with_retry(self, handle, token, attempts=100):
        """Redeem, retrying while the server has not yet noticed the
        disconnect (the busy flag is released on its write failure)."""
        for _ in range(attempts):
            try:
                with ServeClient(handle.host, handle.port) as client:
                    return collect(client.resume(token))
            except ResumeTokenError as exc:
                if exc.code != "resume_busy":
                    raise
                time.sleep(0.05)
        raise AssertionError("session never released after disconnect")

    def test_abrupt_disconnect_mid_stream_then_resume(self, setup, queries,
                                                       monkeypatch):
        db, handle, server = setup
        fq = queries[0]
        want = expected_items(db, fq, 10, "nra")
        # hold every step after the first until the client is gone, so
        # the disconnect lands mid-stream: unheld, the server can finish
        # the whole stream before the client thread gets to close
        disconnected = threading.Event()
        step = AnytimeRunner.step

        def held_step(runner):
            if runner._seq >= 1:
                disconnected.wait(timeout=10)
            return step(runner)

        monkeypatch.setattr(AnytimeRunner, "step", held_step)
        client = ServeClient(handle.host, handle.port)
        stream = client.query(queries=fq, n=10, algorithm="nra",
                              chunk_depth=1)
        first = next(stream)
        assert first["type"] == "chunk" and not first["final"]
        token = first["resume_token"]
        # abort the connection (RST, not FIN: the server must see the
        # disconnect on its next write, mid-stream)
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        client.close()
        disconnected.set()
        resumed = self.resume_with_retry(handle, token)
        assert resumed.complete
        assert resumed.final["items"] == want
        # the resumed stream continued the original chunk sequence
        assert resumed.chunks[0]["seq"] >= 1
        assert server.sessions.snapshot()["resumed"] >= 1

    def test_resume_token_is_single_reader(self, setup, queries):
        db, handle, _ = setup
        with ServeClient(handle.host, handle.port) as client:
            paused = collect(client.query(queries=queries[1], n=5,
                                          deadline_ms=0.0))
        token = paused.resume_token
        resumed = self.resume_with_retry(handle, token)
        assert resumed.complete
        # the stream completed, so the token is gone
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ResumeTokenError) as exc_info:
                collect(client.resume(token))
        assert exc_info.value.code == "resume_unknown"


class TestEpochInvalidation:
    def test_resume_across_corpus_epoch_is_refused_with_moa1002(self, queries):
        db = build_db(seed=29)
        thread = ServerThread(db, ServerConfig(chunk_depth=1))
        handle = thread.start()
        try:
            with ServeClient(handle.host, handle.port) as client:
                paused = collect(client.query(queries=queries[0], n=5,
                                              deadline_ms=0.0))
            token = paused.resume_token
            issue_epoch = db.epoch
            db.set_attribute("stamp", np.arange(db.collection.n_docs))
            assert db.epoch == issue_epoch + 1
            with ServeClient(handle.host, handle.port) as client:
                frames = list(client.resume(token))
            assert len(frames) == 1
            error = frames[0]
            assert error["type"] == "error"
            assert error["code"] == "resume_epoch_mismatch"
            assert error["moa"] == "MOA1002"
            assert error["retryable"] is False
            assert "epoch" in error["message"]
        finally:
            thread.stop()
            db.close()
