"""Socket-level server behavior: ops, admission, deadlines, HTTP shim."""

import http.client
import json
import time

import numpy as np
import pytest

from repro.errors import ProtocolError, QuotaExceededError, ServeError
from repro.serve import ServeClient, ServerConfig, ServerThread, TenantConfig, collect

from tests.serve.conftest import DIMS, build_db


class TestControlOps:
    def test_ping(self, server):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            assert client.ping()["type"] == "pong"

    def test_stats_snapshot_shape(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            collect(client.query(queries=feature_query, n=5))
            stats = client.stats()
        assert stats["server"]["requests"] >= 2
        assert "epoch" in stats["server"]
        assert "default" in stats["tenants"]
        assert set(stats["sessions"]) == {"active", "issued", "resumed",
                                          "epoch_mismatches"}

    def test_unknown_op_is_a_bad_request(self, server):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            from repro.serve.protocol import read_frame_sync, write_frame_sync
            write_frame_sync(client._sock, {"op": "flush"})
            frame = read_frame_sync(client._sock)
        assert frame["type"] == "error" and frame["code"] == "bad_request"

    def test_connection_survives_a_bad_request(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError):
                collect(client.query(queries={"no_such_space": [0.0] * DIMS}))
            result = collect(client.query(queries=feature_query, n=3))
        assert result.complete


class TestQueryValidation:
    @pytest.mark.parametrize("request_patch, match", (
        ({"n": 0}, "n must be"),
        ({"n": 100_000}, "n must be"),
        ({"algorithm": "fuzzy"}, "unknown algorithm"),
        ({"agg": "harmonic"}, "unknown aggregate"),
        ({"kind": "graph"}, "unknown query kind"),
        ({"queries": {}}, "feature query needs"),
    ))
    def test_invalid_queries_answer_error_frames(self, server, feature_query,
                                                 request_patch, match):
        handle, _ = server
        request = {"queries": feature_query, "n": 5}
        request.update(request_patch)
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match=match):
                collect(client.query(**request))

    def test_nan_feature_vector_is_a_bad_request(self, server, feature_query):
        # the codec's json.loads accepts NaN; the graded source must
        # refuse the NaN grades it produces
        handle, query_server = server
        vector = feature_query["color"].copy()
        vector[1] = np.nan
        sessions_before = query_server.sessions.size()
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="^bad_request: .*finite"):
                collect(client.query(queries={"color": vector}, n=5))
        assert query_server.sessions.size() == sessions_before
        # the error frame is sent inside the admission context: give
        # the server a beat to leave it and release the slot
        deadline = time.monotonic() + 5.0
        while (query_server.quotas.tenant("default").in_flight
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert query_server.quotas.tenant("default").in_flight == 0

    def test_fa_is_refused_and_holds_nothing(self, server, feature_query):
        """FA is a direct engine call only: a served FA request gets the
        unknown-algorithm error frame and keeps no quota slot, pool slot
        or session."""
        handle, query_server = server
        sessions_before = query_server.sessions.size()
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError,
                               match="^bad_request: unknown algorithm 'fa'"):
                collect(client.query(queries=feature_query, n=5, algorithm="fa"))
            # the error frame is sent inside the admission context: give
            # the server a beat to leave it and release the slot
            deadline = time.monotonic() + 5.0
            while (query_server.quotas.tenant("default").in_flight
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert query_server.quotas.tenant("default").in_flight == 0
            assert query_server.pool.in_flight == 0
            assert query_server.sessions.size() == sessions_before
            assert collect(client.query(queries=feature_query, n=3)).complete


class TestStreaming:
    def test_streams_prefinal_chunks_then_completes(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            result = collect(client.query(queries=feature_query, n=10,
                                          algorithm="ta", chunk_depth=1))
        assert result.complete
        assert result.done["chunks"] == len(result.chunks)
        assert sum(1 for c in result.chunks if not c["final"]) >= 1
        assert result.final is result.chunks[-1]
        for chunk in result.chunks:
            assert chunk["resume_token"].startswith("sv1.")

    def test_completed_session_is_dropped(self, server, feature_query):
        handle, query_server = server
        with ServeClient(handle.host, handle.port) as client:
            result = collect(client.query(queries=feature_query, n=5))
            token = result.chunks[-1]["resume_token"]
            with pytest.raises(Exception) as exc_info:
                collect(client.resume(token))
        assert getattr(exc_info.value, "code", None) == "resume_unknown"
        assert query_server.sessions.size() == 0

    def test_zero_deadline_stops_before_any_chunk(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            result = collect(client.query(queries=feature_query, n=5,
                                          deadline_ms=0.0))
        assert result.done["status"] == "deadline"
        assert result.chunks == []
        assert result.resume_token.startswith("sv1.")

    def test_deadline_stopped_stream_resumes_to_completion(self, server,
                                                           feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            paused = collect(client.query(queries=feature_query, n=5,
                                          algorithm="nra", deadline_ms=0.0))
        with ServeClient(handle.host, handle.port) as client:
            resumed = collect(client.resume(paused.resume_token))
        assert resumed.complete
        assert resumed.final is not None


class TestDeadlineValidation:
    def test_malformed_deadline_is_a_bad_request(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="deadline_ms"):
                collect(client.query(queries=feature_query, n=3,
                                     deadline_ms="soon"))

    def test_malformed_deadlines_leak_no_concurrency_slots(self, server,
                                                           feature_query):
        # regression: deadline_ms was parsed between quota admit and the
        # admission context, so each bad value leaked one in_flight slot
        # until the tenant was permanently capped out
        handle, query_server = server
        cap = TenantConfig("default").max_concurrent
        with ServeClient(handle.host, handle.port) as client:
            for _ in range(cap + 2):
                with pytest.raises(ServeError, match="deadline_ms"):
                    collect(client.query(queries=feature_query, n=3,
                                         deadline_ms=[100.0]))
            assert query_server.quotas.tenant("default").in_flight == 0
            assert collect(client.query(queries=feature_query, n=3)).complete

    def test_malformed_deadline_on_resume_leaves_session_resumable(
            self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            paused = collect(client.query(queries=feature_query, n=5,
                                          algorithm="nra", deadline_ms=0.0))
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="deadline_ms"):
                collect(client.resume(paused.resume_token,
                                      deadline_ms="later"))
        with ServeClient(handle.host, handle.port) as client:
            assert collect(client.resume(paused.resume_token)).complete

    def test_nonfinite_deadline_is_a_bad_request(self, server, feature_query):
        handle, _ = server
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="deadline_ms"):
                collect(client.query(queries=feature_query, n=3,
                                     deadline_ms=float("nan")))


class TestEngineFailureMidStream:
    def test_engine_error_sends_error_frame_and_frees_the_session(
            self, server, feature_query, monkeypatch):
        # regression: a step() exception used to escape _stream, closing
        # the connection with no error frame and pinning the session
        # busy in the registry forever
        from repro.serve.session import AnytimeRunner

        def boom(self):
            raise RuntimeError("engine exploded")

        handle, query_server = server
        sessions_before = query_server.sessions.size()
        monkeypatch.setattr(AnytimeRunner, "step", boom)
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="engine exploded"):
                collect(client.query(queries=feature_query, n=5))
        monkeypatch.undo()
        assert query_server.sessions.size() == sessions_before
        # the error frame is sent from inside the admission context, so
        # give the server a beat to exit it and release the slot
        deadline = time.monotonic() + 5.0
        while (query_server.quotas.tenant("default").in_flight
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert query_server.quotas.tenant("default").in_flight == 0
        with ServeClient(handle.host, handle.port) as client:
            assert collect(client.query(queries=feature_query, n=3)).complete


class TestQuotaEnforcement:
    @pytest.fixture()
    def throttled_server(self):
        db = build_db(seed=31)
        config = ServerConfig(tenants=(
            TenantConfig("capped", rate=0.001, burst=2.0, max_concurrent=4),),
            allow_unknown=True)
        with ServerThread(db, config) as handle:
            yield handle
        db.close()

    def test_bucket_exhaustion_is_a_retryable_quota_error(self, throttled_server):
        rng = np.random.default_rng(3)
        fq = {"color": rng.random(DIMS), "texture": rng.random(DIMS)}
        with ServeClient(throttled_server.host, throttled_server.port) as client:
            assert collect(client.query(tenant="capped", queries=fq,
                                        n=3)).complete
            assert collect(client.query(tenant="capped", queries=fq,
                                        n=3)).complete
            with pytest.raises(QuotaExceededError) as exc_info:
                collect(client.query(tenant="capped", queries=fq, n=3))
        assert exc_info.value.retry_after is not None
        assert exc_info.value.retry_after > 0
        # rejection is an error frame, not a dropped connection: the
        # same client keeps working under another tenant
        with ServeClient(throttled_server.host, throttled_server.port) as client:
            assert collect(client.query(tenant="other", queries=fq,
                                        n=3)).complete


class TestHttpShim:
    def http(self, handle):
        return http.client.HTTPConnection(handle.host, handle.port, timeout=30)

    def test_healthz(self, server):
        handle, _ = server
        conn = self.http(handle)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read()) == {"status": "ok"}
        conn.close()

    def test_stats_document(self, server):
        handle, _ = server
        conn = self.http(handle)
        conn.request("GET", "/stats")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert set(payload) == {"server", "tenants", "sessions"}
        conn.close()

    def test_unknown_route_is_404(self, server):
        handle, _ = server
        conn = self.http(handle)
        conn.request("GET", "/admin")
        assert conn.getresponse().status == 404
        conn.close()

    def test_post_query_streams_ndjson(self, server, feature_query):
        handle, _ = server
        body = json.dumps({
            "queries": {name: list(map(float, vec))
                        for name, vec in feature_query.items()},
            "n": 5, "algorithm": "ta", "chunk_depth": 1,
        })
        conn = self.http(handle)
        conn.request("POST", "/query", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        frames = [json.loads(line) for line in response.read().splitlines()]
        conn.close()
        assert frames[-1] == {"type": "done", "status": "complete",
                              "chunks": len(frames) - 1}
        assert all(frame["type"] == "chunk" for frame in frames[:-1])
        assert frames[-2]["final"] is True

    def test_post_query_rejects_garbage_body(self, server):
        handle, _ = server
        conn = self.http(handle)
        conn.request("POST", "/query", body="{not json",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()


class TestProtocolEdges:
    def test_oversized_native_frame_gets_an_error_frame(self, server):
        import socket
        import struct

        from repro.serve.protocol import MAX_FRAME_BYTES, read_frame_sync

        handle, _ = server
        sock = socket.create_connection((handle.host, handle.port), timeout=30)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            frame = read_frame_sync(sock)
        finally:
            sock.close()
        assert frame["type"] == "error" and frame["code"] == "bad_request"

    def test_half_frame_then_eof_closes_quietly(self, server):
        import socket
        import struct

        handle, _ = server
        sock = socket.create_connection((handle.host, handle.port), timeout=30)
        sock.sendall(struct.pack(">I", 100) + b'{"op"')
        sock.close()  # server must not crash; next probe still answers
        with ServeClient(handle.host, handle.port) as client:
            assert client.ping()["type"] == "pong"

    def test_client_raises_on_midstream_server_silence(self):
        # ProtocolError surface: a socket that closes before `done`
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        from repro.serve.protocol import read_frame_sync as read_one

        def accept_and_close():
            conn, _ = listener.accept()
            # read the whole request frame so close() sends a clean FIN
            # (unread bytes would turn the close into an RST)
            read_one(conn)
            conn.close()

        thread = threading.Thread(target=accept_and_close, daemon=True)
        thread.start()
        client = ServeClient("127.0.0.1", port)
        try:
            with pytest.raises(ProtocolError, match="mid-stream"):
                for _ in client.query(queries={"color": [0.0]}):
                    pass
        finally:
            client.close()
            thread.join()
            listener.close()
