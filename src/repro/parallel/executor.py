"""Executor pool: query admission and cancellation.

Both serve the query server (:mod:`repro.serve.server`); the
coordinator evaluates shards on the thread that runs the query and
only checks a query's :class:`CancelToken`.

**Admission control.**  A pool admits at most ``max_queries``
concurrent queries (:meth:`ExecutorPool.admit`).  Exceeding the bound
raises :class:`~repro.errors.AdmissionRejectedError` *instead of*
queueing — under heavy traffic an explicit rejection the client can
retry beats an unbounded queue that melts latency for everyone (the
ROADMAP's "heavy traffic" north star).

**Worker threads.**  The pool owns ``workers`` threads
(:attr:`ExecutorPool.executor`) that the server hands admitted engine
steps to with ``run_in_executor``, so the event loop never runs one.

**Cancellation.**  A :class:`CancelToken` carries a query's deadline;
the server checks it between streamed chunks and the coordinator
before each shard it evaluates.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from ..errors import AdmissionRejectedError, ShardingError
from ..obs import metrics
from ..sync import acquires, declares_shared_state, make_lock


class CancelToken:
    """Cooperative cancellation flag of one query.

    Observers check the token at safe points — the coordinator before
    each shard evaluation, the server between streamed chunks — so a
    cancellation never interrupts a computation half way.

    A token may carry an absolute ``deadline`` (``time.monotonic``
    seconds): once the clock passes it, :meth:`cancelled` flips to True
    permanently.  Deadline expiry and explicit :meth:`cancel` are
    indistinguishable to observers — both mean "stop at the next safe
    point" — which is exactly what the serve layer's per-request
    deadline propagation needs.
    """

    def __init__(self, deadline: float | None = None) -> None:
        self._event = threading.Event()
        #: absolute ``time.monotonic`` deadline, or None for no deadline
        self.deadline = deadline

    @classmethod
    def with_timeout(cls, seconds: float) -> "CancelToken":
        """A token that cancels itself ``seconds`` from now."""
        return cls(deadline=time.monotonic() + seconds)

    def cancel(self) -> None:
        self._event.set()

    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._event.set()
            return True
        return False

    def remaining(self) -> float | None:
        """Seconds left until the deadline (never negative), or None
        when the token carries no deadline."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


@declares_shared_state
class ExecutorPool:
    """``workers`` threads plus a bound of ``max_queries`` admitted
    queries."""

    SHARED_STATE = {
        "_in_flight": "_lock",
        "_executor": "<config>",
    }

    def __init__(self, workers: int = 4, max_queries: int = 8) -> None:
        if workers < 1:
            raise ShardingError(f"need a positive worker count, got {workers}")
        if max_queries < 1:
            raise ShardingError("admission bounds must be positive")
        self.workers = workers
        self.max_queries = max_queries
        self._lock = make_lock("parallel.executor")
        self._in_flight = 0
        self._executor = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="repro-worker")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def executor(self):
        """The underlying ``concurrent.futures`` executor: the serve
        layer schedules admitted work on its threads."""
        return self._executor

    # -- admission control -------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @acquires("slot")
    @contextmanager
    def admit(self):
        """Admit one query for its whole lifetime, or reject it.

        Raises :class:`AdmissionRejectedError` when ``max_queries``
        queries are already in flight — explicitly, before any of its
        work is scheduled.
        """
        with self._lock:
            if self._in_flight >= self.max_queries:
                metrics.inc("parallel.rejected")
                raise AdmissionRejectedError(
                    f"executor pool at max_queries={self.max_queries} "
                    f"in-flight queries; retry later")
            self._in_flight += 1
        try:
            yield self
        finally:
            with self._lock:
                self._in_flight -= 1
