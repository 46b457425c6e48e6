"""The asyncio query server: tenant-aware streaming anytime top-N.

One :class:`QueryServer` wraps one :class:`~repro.core.MMDatabase`.
Connections are handled on an asyncio event loop; engine work runs on
the server's :class:`~repro.parallel.executor.ExecutorPool` threads via
``run_in_executor``.  Streaming is **lock-step**: the handler awaits
one engine step, writes one ``chunk`` frame, drains the socket, and
only then runs the next step — a slow client therefore backpressures
its own query instead of growing an unbounded buffer, and a disconnect
leaves the runner at an exact chunk boundary for resume.

Admission is two gates in order (see :mod:`repro.serve.tenants`): the
tenant's token bucket / concurrency cap, then the pool-wide
:meth:`~repro.parallel.executor.ExecutorPool.admit` bound.  Both map
to retryable ``error`` frames.  Deadlines propagate as a
:class:`~repro.parallel.executor.CancelToken` with an absolute
deadline, checked between steps; a deadline stop answers ``done`` with
``status="deadline"`` and the resume token, so the client keeps the
certified prefix and can continue later.

A feature request's runner starts where
:meth:`~repro.core.MMDatabase.feature_stream` says: with the cache on,
a TA stream whose run at the request's ``n`` is cached is cut from it
and builds no source; any other stream builds its sources, and a TA
stream stores its final run for the next.  The cache discipline stays
in the database.

The MOA10xx rules in :mod:`repro.analysis.serve` check this module's
discipline statically: every ``run_in_executor`` call site must sit in
a function that references the admission it runs under (MOA1003) and
its cancel token (MOA1004).
"""

from __future__ import annotations

import asyncio
import math
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import (
    AdmissionRejectedError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    ResumeTokenError,
)
from ..obs import metrics
from ..parallel.executor import CancelToken, ExecutorPool
from ..sync import declares_shared_state, make_lock
from ..topn.aggregates import BUILTIN_AGGREGATES
from .protocol import MAX_FRAME_BYTES, encode_frame, error_frame, read_frame
from .session import ALGORITHMS, AnytimeRunner, SessionRegistry
from .tenants import QuotaManager, TenantConfig

#: top-N sizes above this are a client error, not a workload
MAX_RESULT_SIZE = 10_000


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one query server.

    A tenant not in ``tenants`` streams under ``TenantConfig(name)``'s
    quotas (a request without a tenant is named ``"default"``).  The
    registry keeps 256 resumable sessions, and a feature request
    without a ``measure`` is graded by ``l2``.
    """

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``QueryServer.port``)
    port: int = 0
    tenants: tuple[TenantConfig, ...] = ()
    allow_unknown: bool = True
    #: sorted-access depth of the first chunk (doubles per chunk)
    chunk_depth: int = 32
    workers: int = 4
    #: pool-wide concurrent query bound (the second admission gate)
    max_concurrent: int = 8


@declares_shared_state
class QueryServer:
    """Serve anytime top-N queries over a database.

    The asyncio machinery (``_server``, per-connection tasks) is
    confined to the loop thread; cross-thread state is the pool, the
    quota manager and the session registry, each locked internally.
    """

    SHARED_STATE = {
        "_server": "<thread-confined>",
        "port": "<thread-confined>",
        "db": "<config>",
        "pool": "<config>",
        "quotas": "<config>",
        "sessions": "<config>",
        "requests": "_lock",
        "errors": "_lock",
    }

    def __init__(self, db, config: ServerConfig | None = None,
                 pool: ExecutorPool | None = None) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.pool = pool or ExecutorPool(
            workers=self.config.workers,
            max_queries=self.config.max_concurrent,
        )
        self._owns_pool = pool is None
        self.quotas = QuotaManager(
            configs=list(self.config.tenants),
            allow_unknown=self.config.allow_unknown,
        )
        self.sessions = SessionRegistry(max_sessions=256)
        self._lock = make_lock("serve.server")
        self.requests = 0
        self.errors = 0
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=MAX_FRAME_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        metrics.inc("serve.started")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_pool:
            self.pool.close()

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        from .http import try_serve_http

        try:
            # one 4-byte peek tells a native length prefix (leading NUL
            # for any sane frame size) from an HTTP method
            try:
                first: bytes | None = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            if await try_serve_http(self, reader, writer, first):
                return
            while True:
                try:
                    request = await read_frame(reader, header=first)
                except ProtocolError as exc:
                    try:
                        await self._send(writer,
                                         error_frame("bad_request", str(exc)))
                    except (ConnectionResetError, BrokenPipeError):
                        pass  # peer sent garbage then reset: nothing to tell
                    break
                first = None
                if request is None:
                    break
                with self._lock:
                    self.requests += 1
                metrics.inc("serve.requests")
                try:
                    keep_going = await self._respond(request, writer)
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_going:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError: server shutdown cancelled this
                # connection task while it drained its own close
                pass

    async def _respond(self, request: dict, writer) -> bool:
        """Dispatch one request frame; False ends the connection."""
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"type": "pong"})
            return True
        if op == "stats":
            await self._send(writer, {
                "type": "stats",
                "server": self.snapshot(),
                "tenants": self.quotas.snapshot(),
                "sessions": self.sessions.snapshot(),
            })
            return True
        if op == "query":
            return await self._respond_query(request, writer)
        if op == "resume":
            return await self._respond_resume(request, writer)
        await self._error(writer, error_frame(
            "bad_request", f"unknown op {op!r}; have ping/stats/query/resume"))
        return True

    # -- query path ---------------------------------------------------------

    async def _respond_query(self, request: dict, writer) -> bool:
        """Admit and stream one query.

        The two admission gates and the deadline token are all
        constructed here, in one place, so the MOA1003/MOA1004 checks
        (and human readers) can see the whole discipline at once:
        CancelToken -> tenant quota -> pool bound -> lock-step stream.
        The deadline is validated *before* admission (a malformed one
        must not consume a concurrency slot), and the runner — request
        parsing, vector conversion, source construction — is built
        *inside* the admitted region, so an over-quota tenant cannot
        bill that work to the event loop.
        """
        tenant = str(request.get("tenant", "default"))
        try:
            cancel = self._deadline_token(request)
        except ProtocolError as exc:
            await self._error(writer, error_frame("bad_request", str(exc)))
            return True
        try:
            admission = self.quotas.admit(tenant)  # gate 1: tenant quota
        except QuotaExceededError as exc:
            await self._error(writer, error_frame(
                "quota", str(exc), retryable=True,
                retry_after_ms=None if exc.retry_after is None
                else exc.retry_after * 1000.0))
            return True
        with admission as tenant_state:
            try:
                runner, kind = self._build_runner(request)
            except (ReproError, ValueError, TypeError) as exc:
                await self._error(writer, error_frame("bad_request", str(exc)))
                return True
            try:
                with self.pool.admit():  # gate 2: pool-wide bound
                    session = self.sessions.issue(runner, tenant, runner.epoch)
                    return await self._stream(session, tenant_state, writer,
                                              cancel, admission)
            except AdmissionRejectedError as exc:
                await self._error(writer, error_frame(
                    "admission", str(exc), retryable=True))
                return True

    async def _respond_resume(self, request: dict, writer) -> bool:
        token = request.get("token")
        if not token:
            await self._error(writer, error_frame(
                "bad_request", "resume requires a token"))
            return True
        try:
            # validated before redeem/admit: a malformed deadline must
            # leak neither the session busy flag nor a quota slot
            cancel = self._deadline_token(request)
        except ProtocolError as exc:
            await self._error(writer, error_frame("bad_request", str(exc)))
            return True
        try:
            session = self.sessions.redeem(str(token), self.db.epoch)
        except ResumeTokenError as exc:
            moa = "MOA1002" if exc.code == "resume_epoch_mismatch" else None
            await self._error(writer, error_frame(
                exc.code, str(exc), retryable=exc.code == "resume_busy",
                moa=moa))
            return True
        # a resume is a fresh request: it passes both admission gates
        # again under the *original* tenant (anything else would let a
        # throttled tenant smuggle work through saved tokens — MOA1003)
        try:
            admission = self.quotas.admit(session.tenant)
        except QuotaExceededError as exc:
            session.release()
            await self._error(writer, error_frame(
                "quota", str(exc), retryable=True,
                retry_after_ms=None if exc.retry_after is None
                else exc.retry_after * 1000.0))
            return True
        with admission as tenant_state:
            try:
                with self.pool.admit():
                    return await self._stream(session, tenant_state, writer,
                                              cancel, admission)
            except AdmissionRejectedError as exc:
                session.release()
                await self._error(writer, error_frame(
                    "admission", str(exc), retryable=True))
                return True

    async def _stream(self, session, tenant_state, writer, cancel: CancelToken,
                      admission) -> bool:
        """Lock-step chunk pump for an admitted (``admission``) stream.

        One engine step on a pool thread, one ``chunk`` frame, one
        drain — repeat until final, deadline (``cancel``) or
        disconnect.  On disconnect the session stays registered, busy
        flag released, for resume."""
        assert admission is not None  # streams only run admitted
        try:
            loop = asyncio.get_running_loop()
            runner = session.runner
            while True:
                if cancel.cancelled():
                    session.release()
                    await self._send(writer, {
                        "type": "done", "status": "deadline",
                        "resume_token": session.token,
                        "remaining_ms": 0.0,
                    })
                    metrics.inc("serve.deadline_stops")
                    return True
                try:
                    chunk = await loop.run_in_executor(self.pool.executor,
                                                       runner.step)
                except Exception as exc:
                    # engine failure (bad dimensionality surfacing at
                    # access time, any ReproError): the runner's state
                    # is suspect, so the session is dropped — a resume
                    # of its token restarts cold — and the client gets
                    # an error frame instead of a silent close
                    self.sessions.drop(session.token)
                    metrics.inc("serve.step_errors")
                    await self._error(writer, error_frame(
                        "engine", f"query failed mid-stream: {exc}"))
                    return True
                await self._send(writer, chunk.to_frame(session.token))
                session.note_delivered()
                tenant_state.note_chunk()
                if chunk.final:
                    self.sessions.drop(session.token)
                    await self._send(writer, {
                        "type": "done", "status": "complete",
                        "chunks": chunk.seq + 1,
                    })
                    return True
        except (ConnectionResetError, BrokenPipeError):
            # client went away mid-stream: keep the session resumable
            session.release()
            metrics.inc("serve.disconnects")
            raise

    # -- request parsing ----------------------------------------------------

    def _build_runner(self, request: dict) -> tuple[AnytimeRunner, str]:
        kind = request.get("kind", "feature")
        n = int(request.get("n", 10))
        if not 1 <= n <= MAX_RESULT_SIZE:
            raise ProtocolError(f"n must be in [1, {MAX_RESULT_SIZE}], got {n}")
        algorithm = str(request.get("algorithm", "ta"))
        if algorithm not in ALGORITHMS:
            raise ProtocolError(
                f"unknown algorithm {algorithm!r}; have {sorted(ALGORITHMS)}")
        agg_name = str(request.get("agg", "sum"))
        agg = BUILTIN_AGGREGATES.get(agg_name)
        if agg is None:
            raise ProtocolError(
                f"unknown aggregate {agg_name!r}; "
                f"have {sorted(BUILTIN_AGGREGATES)}")
        chunk_depth = int(request.get("chunk_depth", self.config.chunk_depth))
        if kind == "feature":
            if chunk_depth < 1:
                # refused before the cache is consulted: a rejected
                # request must count as neither a hit nor a miss
                raise ProtocolError(f"chunk_depth must be >= 1, got {chunk_depth}")
            queries = request.get("queries")
            if not isinstance(queries, dict) or not queries:
                raise ProtocolError(
                    "feature query needs 'queries': {space: vector, ...}")
            vectors = {name: np.asarray(vec, dtype=np.float64)
                       for name, vec in queries.items()}
            measure = str(request.get("measure", "l2"))
            stream = self.db.feature_stream(vectors, n, algorithm, agg, measure)
            runner = AnytimeRunner(stream.sources, n, algorithm, agg,
                                   epoch=stream.epoch, chunk_depth=chunk_depth,
                                   run=stream.run, store=stream.store)
            return runner, kind
        if kind == "text":
            text = request.get("query")
            if not isinstance(text, (str, list)):
                raise ProtocolError("text query needs 'query': str | [terms]")
            strategy = request.get("strategy")
            runner = _TextRunner(self.db, text, n, strategy,
                                 epoch=self.db.epoch)
            return runner, kind
        raise ProtocolError(f"unknown query kind {kind!r}; have feature/text")

    def _deadline_token(self, request: dict) -> CancelToken:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return CancelToken()
        if (isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not math.isfinite(deadline_ms)):
            raise ProtocolError(
                f"deadline_ms must be a finite number, got {deadline_ms!r}")
        return CancelToken.with_timeout(float(deadline_ms) / 1000.0)

    # -- plumbing -----------------------------------------------------------

    async def _send(self, writer, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _error(self, writer, frame: dict) -> None:
        with self._lock:
            self.errors += 1
        metrics.inc("serve.errors")
        await self._send(writer, frame)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "errors": self.errors,
                "pool_in_flight": self.pool.in_flight,
                "epoch": self.db.epoch,
            }


@declares_shared_state
class _TextRunner:
    """Single-chunk runner adapter for text queries: the paper-era text
    strategies (incl. parallel shards) are not incremental, so they
    answer in one final chunk through the same streaming plumbing.
    The chunk carries the answer, its depth and its certification, not
    the engine's own stats (candidates, shard counts, ...).  Serialized
    by the owning session's busy flag, like
    :class:`~repro.serve.session.AnytimeRunner`."""

    SHARED_STATE = {"_last": "<barrier>"}

    def __init__(self, db, query, n: int, strategy, *, epoch: int) -> None:
        self.db = db
        self.query = query
        self.n = n
        self.strategy = strategy
        self.epoch = epoch
        self._last = None

    @property
    def finished(self) -> bool:
        return self._last is not None

    def step(self):
        from ..intervals import ThresholdBound
        from .session import Chunk

        if self._last is not None:
            return self._last
        search = self.db.search(self.query, self.n, strategy=self.strategy)
        result = search.result
        bound = None
        if result.items:
            tail = result.items[-1]
            bound = ThresholdBound(n=len(result.items),
                                   key=(-tail.score, tail.obj_id),
                                   epoch=self.epoch)
        self._last = Chunk(
            seq=0,
            items=[(item.obj_id, item.score) for item in result.items],
            depth=int(result.stats.get("depth", 0) or 0),
            final=True,
            certified=bool(result.safe),
            bound=bound,
            epoch=self.epoch,
            algorithm=f"text:{result.strategy}",
        )
        metrics.inc("serve.chunks")
        return self._last


@dataclass
class ServerHandle:
    """What :class:`ServerThread` exposes once running."""

    host: str
    port: int


@declares_shared_state
class ServerThread:
    """Run a :class:`QueryServer` on a background thread's event loop.

    The test-and-bench harness: ``start()`` blocks until the socket is
    bound and returns the address; ``stop()`` tears the loop down.
    ``_loop`` / ``_stopping`` / ``_startup_error`` are written on the
    server thread before ``_ready`` is set and read by the caller only
    after ``_ready.wait()`` — the event is the barrier."""

    SHARED_STATE = {
        "_thread": "<thread-confined>",
        "_loop": "<barrier>",
        "_stopping": "<barrier>",
        "_startup_error": "<barrier>",
    }

    def __init__(self, db, config: ServerConfig | None = None,
                 pool: ExecutorPool | None = None) -> None:
        self.server = QueryServer(db, config, pool)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopping: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> ServerHandle:
        self._thread = threading.Thread(target=self._run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("query server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"query server failed to start: {self._startup_error}")
        return ServerHandle(self.server.config.host, self.server.port)

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> ServerHandle:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind failures to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stopping.wait()
        finally:
            await self.server.stop()
