"""Per-tenant quotas: token-bucket rate limiting + concurrency caps.

The serve layer admits a request through two gates, in order:

1. the tenant's **token bucket** (requests/second with a burst
   allowance) and **concurrency cap** — this module; rejection raises
   :class:`~repro.errors.QuotaExceededError` with a ``retry_after``
   hint, mapped to a retryable ``error`` frame;
2. the global :meth:`~repro.parallel.executor.ExecutorPool.admit`
   bound the paper-era engines already enforce — so a tenant inside
   its quota can still be rejected when the whole pool is saturated
   (:class:`~repro.errors.AdmissionRejectedError`, equally retryable).

The split matters for isolation: a noisy tenant burns its own bucket
long before it can reach the shared pool bound, so a steady tenant's
latency survives the abuse (the E19 bench measures exactly this).

All state here is touched from the asyncio event loop *and* worker
threads, so every mutable attribute is declared under the
:mod:`repro.sync` protocol and guarded by its lock.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from ..errors import QuotaExceededError
from ..obs import metrics
from ..sync import acquires, declares_shared_state, make_lock

#: ring-buffer size for per-tenant latency percentiles (stats op)
_LATENCY_WINDOW = 512


@dataclass(frozen=True)
class TenantConfig:
    """Quota knobs of one tenant.

    ``rate`` is sustained requests/second refilled into the bucket,
    ``burst`` the bucket capacity (how many requests can arrive
    back-to-back), ``max_concurrent`` the number of simultaneously
    streaming requests.
    """

    name: str
    rate: float = 50.0
    burst: float = 20.0
    max_concurrent: int = 4

    def validate(self) -> None:
        if self.rate <= 0 or self.burst < 1 or self.max_concurrent < 1:
            raise QuotaExceededError(
                f"invalid tenant config {self!r}: rate must be positive, "
                "burst and max_concurrent at least 1")


@declares_shared_state
class TokenBucket:
    """Classic token bucket over a monotonic clock.

    ``clock`` is injectable so tests and the bench can drive virtual
    time; production uses ``time.monotonic``.
    """

    SHARED_STATE = {
        "_tokens": "_lock",
        "_stamp": "_lock",
    }

    #: refill arithmetic only under "serve.bucket": never acquires
    #: another lock while held (checked statically by MOA1105)
    LOCK_LEAF = True

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = make_lock("serve.bucket")
        self._tokens = float(burst)
        self._stamp = clock()

    def try_acquire(self, amount: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will have accrued."""
        with self._lock:
            deficit = max(0.0, amount - self._tokens)
        if deficit == 0.0:
            return 0.0
        return deficit / self.rate if self.rate > 0 else math.inf


@declares_shared_state
class TenantState:
    """Live accounting of one tenant: bucket, in-flight count, request
    counters and a latency ring buffer for p50/p99."""

    SHARED_STATE = {
        "in_flight": "_lock",
        "admitted": "_lock",
        "completed": "_lock",
        "rejected_quota": "_lock",
        "rejected_concurrency": "_lock",
        "chunks_streamed": "_lock",
        "_latencies_ms": "_lock",
    }

    #: counter bumps and ring-buffer appends only under "serve.tenant"
    LOCK_LEAF = True

    def __init__(self, config: TenantConfig, clock=time.monotonic) -> None:
        config.validate()
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock)
        self._lock = make_lock("serve.tenant")
        self.in_flight = 0
        self.admitted = 0
        self.completed = 0
        self.rejected_quota = 0
        self.rejected_concurrency = 0
        self.chunks_streamed = 0
        self._latencies_ms: deque = deque(maxlen=_LATENCY_WINDOW)

    def begin(self) -> bool:
        """Claim one concurrency slot; False when the cap is reached."""
        with self._lock:
            if self.in_flight >= self.config.max_concurrent:
                return False
            self.in_flight += 1
            self.admitted += 1
            return True

    def end(self, latency_ms: float | None = None) -> None:
        with self._lock:
            self.in_flight -= 1
            self.completed += 1
            if latency_ms is not None:
                self._latencies_ms.append(float(latency_ms))

    def note_rejected(self, kind: str) -> None:
        with self._lock:
            if kind == "quota":
                self.rejected_quota += 1
            else:
                self.rejected_concurrency += 1

    def note_chunk(self) -> None:
        with self._lock:
            self.chunks_streamed += 1

    def snapshot(self) -> dict:
        with self._lock:
            latencies = sorted(self._latencies_ms)
            return {
                "in_flight": self.in_flight,
                "admitted": self.admitted,
                "completed": self.completed,
                "rejected_quota": self.rejected_quota,
                "rejected_concurrency": self.rejected_concurrency,
                "chunks_streamed": self.chunks_streamed,
                "p50_ms": percentile(latencies, 0.50),
                "p99_ms": percentile(latencies, 0.99),
            }


def percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile over an already-sorted sample; None when
    the sample is empty."""
    if not sorted_values:
        return None
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


@declares_shared_state
class QuotaManager:
    """The tenant registry + the first admission gate.

    Unknown tenants are admitted under ``TenantConfig(name)``'s default
    quotas (so a fresh client can talk to a dev server) unless
    ``allow_unknown=False``, in which case they are rejected as a quota
    violation.
    """

    SHARED_STATE = {
        "_tenants": "_lock",
    }

    def __init__(self, configs: list[TenantConfig] | None = None,
                 allow_unknown: bool = True,
                 clock=time.monotonic) -> None:
        self.allow_unknown = allow_unknown
        self._clock = clock
        self._lock = make_lock("serve.quotas")
        self._tenants: dict[str, TenantState] = {}
        for config in configs or ():
            self.register(config)

    def register(self, config: TenantConfig) -> TenantState:
        state = TenantState(config, self._clock)
        with self._lock:
            self._tenants[config.name] = state
        return state

    def tenant(self, name: str) -> TenantState:
        # get-or-create under one lock hold: two concurrent admits for
        # the same unknown tenant must share one TenantState, or the
        # in_flight accounting splits across objects and the
        # concurrency cap is quietly exceeded
        with self._lock:
            state = self._tenants.get(name)
            if state is not None:
                return state
            if not self.allow_unknown:
                raise QuotaExceededError(f"unknown tenant {name!r}")
            state = TenantState(TenantConfig(name), self._clock)
            self._tenants[name] = state
            return state

    @acquires("slot")
    def admit(self, name: str):
        """Admit one request for its whole (streaming) lifetime.

        Returns a context manager holding the tenant's concurrency slot;
        raises :class:`QuotaExceededError` — with a ``retry_after``
        hint — when the bucket is empty or the cap is reached.
        """
        state = self.tenant(name)
        if not state.bucket.try_acquire():
            state.note_rejected("quota")
            metrics.inc("serve.rejected.quota")
            raise QuotaExceededError(
                f"tenant {name!r} exceeded its request rate "
                f"({state.config.rate}/s, burst {state.config.burst})",
                retry_after=state.bucket.retry_after())
        if not state.begin():
            state.note_rejected("concurrency")
            metrics.inc("serve.rejected.concurrency")
            raise QuotaExceededError(
                f"tenant {name!r} already streams "
                f"{state.config.max_concurrent} concurrent requests",
                retry_after=0.0)
        return _Admission(state, self._clock)

    def snapshot(self) -> dict:
        with self._lock:
            tenants = dict(self._tenants)
        return {name: state.snapshot() for name, state in sorted(tenants.items())}


class _Admission:
    """Holds one admitted request's concurrency slot; records the
    request latency into the tenant's percentile window on exit."""

    def __init__(self, state: TenantState, clock) -> None:
        self.state = state
        self._clock = clock
        self._started = clock()

    def __enter__(self) -> TenantState:
        return self.state

    def __exit__(self, exc_type, exc, tb) -> None:
        self.state.end(latency_ms=(self._clock() - self._started) * 1000.0)
