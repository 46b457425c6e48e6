"""Executor pool: scheduling, admission control and cancellation.

Shard tasks are CPU work against shared read-only BATs, so the default
pool uses threads (numpy releases the GIL for the heavy kernels), and
a ``serial`` pool runs tasks inline, which keeps the coordinator's
control flow identical across both.

Two bookkeeping problems dominate the design:

**Admission control.**  A pool admits at most ``max_queries``
concurrent queries (:meth:`ExecutorPool.admit`) and at most
``max_pending`` queued shard tasks.  Exceeding either bound raises
:class:`~repro.errors.AdmissionRejectedError` *instead of* queueing —
under heavy traffic an explicit rejection the client can retry beats an
unbounded queue that melts latency for everyone (the ROADMAP's
"heavy traffic" north star).

**Cost attribution across threads.**  :class:`~repro.storage.stats.CostCounter`
stacks are thread-local, so a shard task run on a worker thread would
charge nobody.  Worker tasks therefore run under a fresh counter and
ship its snapshot back in the :class:`TaskOutcome`; the coordinator
*replays* the snapshot (:func:`replay_cost`) on the caller thread
inside the per-shard span, so both the query's ``CostCounter`` totals
and the tracer's span self-costs reconcile exactly as they do for
serial engines.  The serial pool charges the caller's counters
naturally; its outcomes say ``already_charged=True`` so nothing is
counted twice.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable

from ..errors import AdmissionRejectedError, ShardingError
from ..obs import metrics
from ..storage.stats import CostCounter, active_counters
from ..sync import acquires, declares_shared_state, make_lock


class CancelToken:
    """Cooperative cancellation flag shared by one query's shard tasks.

    Tasks observe the token *before* they start; a task already running
    finishes, but its outcome is discarded by the coordinator's sealed
    merge state, so cancellation never corrupts a completed result.

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


@dataclass
class TaskOutcome:
    """What happened to one shard task.

    ``status`` is ``done`` / ``skipped`` (pruned just before running,
    e.g. by a live threshold) / ``cancelled`` (token set before start) /
    ``error``.  ``cost`` is the task's :class:`CostCounter` snapshot;
    ``already_charged`` tells the coordinator whether that cost already
    reached the caller's counters (serial pool) or still needs a
    :func:`replay_cost` (thread pool).
    """

    status: str
    payload: object = None
    cost: dict | None = None
    already_charged: bool = False
    error: BaseException | None = None


def counter_from_snapshot(snapshot: dict) -> CostCounter:
    """Rebuild a :class:`CostCounter` from a :meth:`snapshot` dict
    (unknown keys land in ``extra``)."""
    counter = CostCounter()
    known = {f.name for f in fields(CostCounter)} - {"extra"}
    for key, value in snapshot.items():
        if key in known:
            setattr(counter, key, value)
        else:
            counter.extra[key] = value
    return counter


def replay_cost(snapshot: dict | None) -> None:
    """Charge a worker task's cost snapshot to every counter active on
    the *calling* thread — the bridge between thread-local cost stacks
    and cross-thread execution."""
    if not snapshot:
        return
    replayed = counter_from_snapshot(snapshot)
    for counter in active_counters():
        counter.add(replayed)


def _run_counted(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn`` under a fresh cost counter; return (payload, snapshot)."""
    with CostCounter.activate() as counter:
        payload = fn()
    return payload, counter.snapshot()


@declares_shared_state
class ExecutorPool:
    """A bounded pool executing shard tasks for admitted queries.

    ``kind`` is ``"thread"`` (default) or ``"serial"`` (inline
    execution on the caller thread).
    """

    KINDS = ("serial", "thread")

    SHARED_STATE = {
        "_in_flight": "_lock",
        "_pending": "_lock",
        "_executor": "<config>",
    }

    def __init__(
        self,
        workers: int = 4,
        kind: str = "thread",
        max_queries: int = 8,
        max_pending: int = 256,
    ) -> None:
        if kind not in self.KINDS:
            raise ShardingError(f"unknown executor kind {kind!r}; have {self.KINDS}")
        if workers < 1:
            raise ShardingError(f"need a positive worker count, got {workers}")
        if max_queries < 1 or max_pending < 1:
            raise ShardingError("admission bounds must be positive")
        self.kind = kind
        self.workers = workers
        self.max_queries = max_queries
        self.max_pending = max_pending
        self._lock = make_lock("parallel.executor")
        self._in_flight = 0
        self._pending = 0
        self._executor = None
        if kind == "thread":
            self._executor = ThreadPoolExecutor(max_workers=workers,
                                                thread_name_prefix="repro-shard")

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
        """The underlying ``concurrent.futures`` executor (None for the
        serial pool) — lets the serve layer schedule admitted work on
        the same bounded worker threads the coordinator uses."""
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
        queries are already in flight — explicitly, before any shard
        task is queued.
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

    def _reserve(self, n: int) -> None:
        with self._lock:
            if self._pending + n > self.max_pending:
                metrics.inc("parallel.rejected")
                raise AdmissionRejectedError(
                    f"shard-task queue bound exceeded: {self._pending} pending "
                    f"+ {n} new > max_pending={self.max_pending}")
            self._pending += n
            metrics.set_gauge("parallel.queue_depth", self._pending)

    def _release(self, n: int = 1) -> None:
        with self._lock:
            self._pending -= n
            metrics.set_gauge("parallel.queue_depth", self._pending)

    # -- execution ---------------------------------------------------------

    def run_tasks(
        self,
        fns: list[Callable[[], object]],
        token: CancelToken | None = None,
        skip_when: Callable[[int], bool] | None = None,
    ) -> list[TaskOutcome]:
        """Run the tasks; return one :class:`TaskOutcome` per task, in
        input order.

        ``token`` cancels tasks that have not started yet.
        ``skip_when(i)`` is evaluated immediately before task ``i``
        runs (on the worker, for serial/thread pools): returning True
        skips the task — this is how the coordinator prunes queued
        round-2 probes once a live threshold proves them useless.
        """
        if not fns:
            return []
        self._reserve(len(fns))
        try:
            if self.kind == "serial":
                return self._run_serial(fns, token, skip_when)
            return self._run_threaded(fns, token, skip_when)
        finally:
            metrics.counter("parallel.tasks").inc(len(fns))

    def _run_serial(self, fns, token, skip_when) -> list[TaskOutcome]:
        outcomes = []
        for i, fn in enumerate(fns):
            try:
                outcome = self._guarded(i, fn, token, skip_when)
                if outcome is None:
                    # inline: caller's counters are on this thread's stack,
                    # so the task charges them directly
                    payload, snapshot = _run_counted(fn)
                    outcome = TaskOutcome("done", payload, snapshot,
                                          already_charged=True)
            except Exception as exc:  # noqa: BLE001 - uniform outcome surface
                outcome = TaskOutcome("error", error=exc)
            finally:
                self._release()
            outcomes.append(outcome)
        return outcomes

    def _guarded(self, i, fn, token, skip_when) -> TaskOutcome | None:
        if token is not None and token.cancelled():
            metrics.inc("parallel.cancelled")
            return TaskOutcome("cancelled")
        if skip_when is not None and skip_when(i):
            return TaskOutcome("skipped")
        return None

    def _worker(self, i, fn, token, skip_when) -> TaskOutcome:
        outcome = self._guarded(i, fn, token, skip_when)
        if outcome is not None:
            return outcome
        try:
            payload, snapshot = _run_counted(fn)
        except Exception as exc:  # noqa: BLE001 - uniform outcome surface
            return TaskOutcome("error", error=exc)
        return TaskOutcome("done", payload, snapshot)

    def _run_threaded(self, fns, token, skip_when) -> list[TaskOutcome]:
        futures = [
            self._executor.submit(self._worker, i, fn, token, skip_when)
            for i, fn in enumerate(fns)
        ]
        outcomes = []
        for future in futures:
            outcomes.append(future.result())
            self._release()
        return outcomes
