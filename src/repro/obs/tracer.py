"""Span-based execution tracer.

The paper's claims are all stated in terms of *work performed* — how
much data is processed, how many sorted/random accesses the
Fagin-family middleware algorithms issue.  The end-of-run totals of
:class:`~repro.storage.stats.CostCounter` say *how much*; this module
says *when and where*: a thread-local stack of nested **spans**, each
recording wall time, structured attributes, point **events**, and
start/end :meth:`~repro.storage.stats.CostCounter.snapshot` views of a
session-owned cost counter, so every span knows its inclusive
simulated cost (via :meth:`~repro.storage.stats.CostCounter.delta`)
and, by subtracting its children, its exclusive ("self") cost.

Usage::

    from repro.obs import tracer

    with tracer.trace_session() as session:
        with tracer.span("ta.run", n=10):
            ...
            tracer.event("ta.round", depth=depth, threshold=tau)
    for record in session.spans():
        print(record.name, record.cost)

Design rules:

* **Disabled is the default and costs (almost) nothing.**  With no
  active session, :func:`span` returns a shared no-op singleton and
  :func:`event` / :func:`annotate` return after one attribute lookup —
  no allocation reaches the trace buffer.  Hot loops that want to
  avoid even keyword-dict construction can guard on :func:`enabled`.
* **Bounded memory.**  Finished root spans land in a ``deque`` with a
  ``max_spans`` bound; the oldest trace is dropped (and counted in
  ``session.dropped``) rather than growing without limit.
* **JSONL export.**  :meth:`TraceSession.export_jsonl` writes one JSON
  object per span (flattened, parent ids preserved) for offline
  analysis and for ``repro profile --json``.

Naming convention (see ``docs/API.md``): dotted lowercase
``<subsystem>.<operation>`` — e.g. ``topn.ta``, ``ta.round``,
``kernel.sort_tail``, ``optimizer.logical``, ``frag.switch``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..storage import stats as _stats
from ..sync import declares_shared_state

__all__ = [
    "NOOP_SPAN",
    "SpanRecord",
    "TRACE_SCHEMA_VERSION",
    "TraceSession",
    "annotate",
    "current_session",
    "enabled",
    "event",
    "span",
    "start_session",
    "stop_session",
    "trace_session",
]

_local = threading.local()

#: default bound on retained finished root spans
DEFAULT_MAX_SPANS = 4096

#: version stamped first on every exported span record (``repro
#: profile --export`` JSONL and ``--json`` payloads), so a reader of
#: an export can tell a trace written by a different build and skip
#: its records instead of misreading their fields.  Bump on any change
#: to the :meth:`SpanRecord.to_dict` schema.
TRACE_SCHEMA_VERSION = 1


@dataclass
class SpanRecord:
    """One recorded span: a named, attributed, costed scope."""

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict
    depth: int
    t_start: float = 0.0
    t_end: float = 0.0
    cost_start: dict = field(default_factory=dict)
    cost_end: dict = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Inclusive wall-clock seconds."""
        return self.t_end - self.t_start

    @property
    def cost(self) -> dict:
        """Inclusive simulated-cost delta (this span and descendants)."""
        return _stats.CostCounter.delta(self.cost_start, self.cost_end)

    @property
    def self_cost(self) -> dict:
        """Exclusive cost: inclusive minus the children's inclusive.

        Summed over every span of a trace, self costs reconstruct the
        run's totals exactly — the invariant ``repro profile`` prints
        and the obs test suite asserts.
        """
        own = self.cost
        for child in self.children:
            for key, value in child.cost.items():
                own[key] = own.get(key, 0) - value
        return own

    def walk(self):
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Flat JSON-able form (children referenced by ``parent_id``)."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "attrs": self.attrs,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "cost": self.cost,
            "self_cost": self.self_cost,
            "events": self.events,
        }


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


#: the singleton no-op span (identity-tested by the overhead tests)
NOOP_SPAN = _NoopSpan()


class _Span:
    """Live span handle: a context manager bound to one session."""

    __slots__ = ("_session", "_record", "_name", "_attrs")

    def __init__(self, session: "TraceSession", name: str, attrs: dict) -> None:
        self._session = session
        self._name = name
        self._attrs = attrs
        self._record: SpanRecord | None = None

    def __enter__(self) -> "_Span":
        self._record = self._session.begin(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._record is not None:
            if exc_type is not None:
                self._record.attrs.setdefault("error", exc_type.__name__)
            self._session.finish(self._record)
        return False

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the underlying record."""
        if self._record is not None:
            self._record.attrs.update(attrs)
        else:
            self._attrs.update(attrs)
        return self


@declares_shared_state
class TraceSession:
    """One tracing scope: owns the cost counter and the span buffer.

    Sessions are *thread-confined* by design (the module hands them out
    via ``threading.local``), so the span buffer needs no lock — the
    declaration below states the confinement so the race sanitizer can
    verify that no worker thread ever reaches into a foreign session's
    buffers.
    """

    SHARED_STATE = {
        "roots": "<thread-confined>",
        "stack": "<thread-confined>",
        "dropped": "<thread-confined>",
        "orphan_events": "<thread-confined>",
    }

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.counter = _stats.CostCounter()
        self.roots: deque[SpanRecord] = deque(maxlen=max_spans)
        self.stack: list[SpanRecord] = []
        self.dropped = 0
        self.orphan_events: list[dict] = []
        self._ids = itertools.count(1)

    # -- span lifecycle ----------------------------------------------------

    def begin(self, name: str, attrs: dict) -> SpanRecord:
        parent = self.stack[-1] if self.stack else None
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            attrs=dict(attrs),
            depth=len(self.stack),
        )
        record.cost_start = self.counter.snapshot()
        record.t_start = time.perf_counter()
        if parent is not None:
            parent.children.append(record)
        self.stack.append(record)
        return record

    def finish(self, record: SpanRecord) -> None:
        record.t_end = time.perf_counter()
        record.cost_end = self.counter.snapshot()
        while self.stack:
            top = self.stack.pop()
            if top is record:
                break
        if record.parent_id is None:
            if self.roots.maxlen is not None and len(self.roots) == self.roots.maxlen:
                self.dropped += 1
            self.roots.append(record)

    def event(self, name: str, attrs: dict) -> None:
        """Record a point event on the innermost open span."""
        entry = {"name": name, "t": time.perf_counter(), "attrs": attrs}
        if self.stack:
            self.stack[-1].events.append(entry)
        elif len(self.orphan_events) < 1024:
            self.orphan_events.append(entry)

    # -- introspection -----------------------------------------------------

    def spans(self):
        """Every finished span, depth-first over the retained roots."""
        for root in self.roots:
            yield from root.walk()

    def self_cost_totals(self) -> dict:
        """Sum of every retained span's exclusive cost."""
        totals: dict = {}
        for record in self.spans():
            for key, value in record.self_cost.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON Lines: one flattened span object per line."""
        return "\n".join(json.dumps(record.to_dict()) for record in self.spans())

    def export_jsonl(self, path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the span count."""
        lines = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if lines:
                handle.write(lines + "\n")
        return sum(1 for _ in self.spans())


# -- module-level session management ---------------------------------------


def current_session() -> TraceSession | None:
    """The active session of this thread, or ``None``."""
    return getattr(_local, "session", None)


def enabled() -> bool:
    """Whether a trace session is active on this thread."""
    return getattr(_local, "session", None) is not None


def start_session(max_spans: int = DEFAULT_MAX_SPANS) -> TraceSession:
    """Begin tracing on this thread (and activate the session's cost
    counter, so spans can attribute simulated cost)."""
    if current_session() is not None:
        raise RuntimeError("a trace session is already active on this thread")
    session = TraceSession(max_spans=max_spans)
    session.counter.__enter__()
    _local.session = session
    return session


def stop_session() -> TraceSession | None:
    """End tracing; closes any still-open spans defensively and
    returns the finished session (``None`` when not tracing)."""
    session = current_session()
    if session is None:
        return None
    while session.stack:
        session.finish(session.stack[-1])
    _local.session = None
    session.counter.__exit__(None, None, None)
    return session


class _TraceScope:
    """Context manager for a tracing scope (with-statement form)."""

    __slots__ = ("_max_spans", "_session")

    def __init__(self, max_spans: int) -> None:
        self._max_spans = max_spans
        self._session: TraceSession | None = None

    def __enter__(self) -> TraceSession:
        self._session = start_session(self._max_spans)
        return self._session

    def __exit__(self, exc_type, exc, tb) -> bool:
        if current_session() is self._session:
            stop_session()
        return False


def trace_session(max_spans: int = DEFAULT_MAX_SPANS) -> _TraceScope:
    """``with trace_session() as session:`` — trace the enclosed work."""
    return _TraceScope(max_spans)


# -- recording primitives ---------------------------------------------------


def span(name: str, **attrs):
    """Open a span: ``with span("topn.ta", n=10) as sp: ...``.

    Returns the shared :data:`NOOP_SPAN` when tracing is disabled."""
    session = getattr(_local, "session", None)
    if session is None:
        return NOOP_SPAN
    return _Span(session, name, attrs)


def event(name: str, **attrs) -> None:
    """Record a point event on the current span (no-op when disabled).

    Per-iteration call sites (e.g. one event per TA round) should
    guard on :func:`enabled` to skip keyword construction entirely."""
    session = getattr(_local, "session", None)
    if session is None:
        return
    session.event(name, attrs)


def annotate(**attrs) -> None:
    """Merge attributes into the current span (no-op when disabled)."""
    session = getattr(_local, "session", None)
    if session is None:
        return
    if session.stack:
        session.stack[-1].attrs.update(attrs)
