"""repro.obs — execution tracing and metrics.

The observability layer over the simulated cost model:

* :mod:`repro.obs.tracer` — thread-local span stack with per-span
  wall time and :class:`~repro.storage.stats.CostCounter`
  snapshot/delta attribution, a bounded trace buffer and JSONL export;
* :mod:`repro.obs.metrics` — counters / gauges / histograms with a
  global registry and a zero-cost no-op mode while disabled;
* :mod:`repro.obs.profile` — profiled runs and the span-tree cost
  breakdown behind ``repro profile``.

The cost substrate this layer reads: *work performed* is counted by
:mod:`repro.storage.stats` (the ``CostCounter`` stack the tracer
snapshots); spans attribute it.

Everything is off by default: with no active
:func:`~repro.obs.tracer.trace_session` and metrics disabled, the
instrumentation threaded through the kernel, the top-N engines, the
optimizer and the fragmentation executor reduces to shared no-op
singletons.  Use :func:`observe` to switch both facilities on for a
scope::

    from repro import obs

    with obs.observe() as session:
        run_query(...)
    print(obs.ProfileReport(roots=list(session.roots), ...))  # or:
    result = obs.run_profiled(lambda: run_query(...))
"""

from __future__ import annotations

from contextlib import contextmanager

from . import metrics, tracer
from .profile import ProfileReport, run_profiled
from .tracer import (
    NOOP_SPAN,
    SpanRecord,
    TraceSession,
    annotate,
    current_session,
    enabled,
    event,
    span,
    start_session,
    stop_session,
    trace_session,
)

__all__ = [
    "NOOP_SPAN",
    "ProfileReport",
    "SpanRecord",
    "TraceSession",
    "annotate",
    "current_session",
    "enabled",
    "event",
    "metrics",
    "observe",
    "run_profiled",
    "span",
    "start_session",
    "stop_session",
    "trace_session",
    "tracer",
]


@contextmanager
def observe(max_spans: int = tracer.DEFAULT_MAX_SPANS):
    """Enable tracing *and* metrics for the enclosed scope."""
    was_enabled = metrics.enabled()
    metrics.enable()
    try:
        with trace_session(max_spans=max_spans) as session:
            yield session
    finally:
        if not was_enabled:
            metrics.disable()
