"""Span recording for the traced run.

The tracer wraps public per-call functions of the program (facade
calls, executor entry points, index lookups, engines, cache, codec)
with timing spans.  Nothing inside the program changes: the wrappers
are installed on the classes and modules from this file, removed again
with :meth:`Tracer.uninstall`, and per-access methods (``sorted_access``,
``random_access``, buffer page requests) are never wrapped, so the
tracing cost stays a small share of each operation.

Spans are kept in memory and written out as JSON lines at the end of
the run.  Each span records its id, its parent (the enclosing span on
the same thread), its name, the timed operation it belongs to (the
benchmark is one closed-loop caller, so every thread's spans during
operation ``i`` belong to ``i``), its thread, start and end, and its
self time: its duration minus the time of the spans it directly
contains.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

from repro.core import database
from repro.fragmentation.executor import FragmentedExecutor
from repro.fragmentation.fragmenter import HeapFragment
from repro.fragmentation.quality_check import QualityCheck
from repro.ir.invindex import InvertedIndex
from repro.ir.ranking import BM25
from repro.mm.sources import PostingsSource
from repro.storage import kernel
from repro.storage.index import SparseIndex
from repro.storage.stats import CostCounter
from repro.cache.manager import QueryCache
from repro.serve import protocol, server, session
import repro.parallel

#: (owner, attribute, span name, counted).  ``owner`` is a class, a
#: module or a dict; ``counted`` spans run under a cost counter of
#: their own because they execute on server threads, whose thread-local
#: cost stacks the caller's counter cannot see.
TARGETS = [
    (database.MMDatabase, "search", "core.search", False),
    (database.MMDatabase, "feature_search", "core.feature_search", False),
    (database.MMDatabase, "combined_search", "core.combined_search", False),
    (database.MMDatabase, "fragment", "fragmentation.build", False),
    (HeapFragment, "build_sparse_index", "fragmentation.build", False),
    (FragmentedExecutor, "query", "fragmentation.query", False),
    (QualityCheck, "decide", "fragmentation.quality_check", False),
    (HeapFragment, "indexed_postings", "fragmentation.switch_fetch", False),
    (InvertedIndex, "build", "ir.index_build", False),
    (InvertedIndex, "postings", "ir.postings", False),
    (BM25, "partial_scores", "ir.partial_scores", False),
    (SparseIndex, "lookup_eq", "storage.index_lookup", False),
    (SparseIndex, "lookup_range", "storage.index_lookup", False),
    (kernel, "topn_tail", "storage.topn_tail", False),
    (database, "feature_source", "mm.source_build", False),
    (PostingsSource, "__init__", "mm.source_build", False),
    (database, "threshold_topn", "topn.engine", False),
    (database._ALGORITHMS, "ta", "topn.engine", False),
    (database._ALGORITHMS, "ca", "topn.engine", False),
    (session, "threshold_topn", "topn.engine", False),
    (session, "combined_topn", "topn.engine", False),
    (QueryCache, "lookup", "cache.lookup", False),
    (QueryCache, "store", "cache.store", False),
    (repro.parallel, "parallel_topn", "parallel.coordinator", False),
    (session.AnytimeRunner, "step", "serve.step", True),
    (server._TextRunner, "step", "serve.step", True),
    (server, "encode_frame", "serve.codec", False),
    (protocol, "encode_frame", "serve.codec", False),
    (protocol, "decode_body", "serve.codec", False),
    (server.ServerThread, "start", "serve.server_start", False),
]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]  # keeps classmethod objects intact
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: the operation spans are attributed to (an int, "setup" or None)
        self.op = None
        self.recording = False
        #: cost charged inside ``counted`` spans (server threads)
        self.cost = CostCounter()
        self._cost_lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._ids = itertools.count()
        self._origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, counted in TARGETS:
            original = _get(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counted))
            else:
                wrapped = self._wrap(original, name, counted)
            _set(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            _set(owner, attr, original)
        self._saved.clear()

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []      # [span id, children time] of open spans
            state.active = {}     # span name -> open spans of that name
        return state

    def _wrap(self, func, name: str, counted: bool):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            state = tracer._thread_state()
            nested = state.active.get(name, 0) > 0
            state.active[name] = state.active.get(name, 0) + 1
            parent = state.stack[-1][0] if state.stack else None
            frame = [next(tracer._ids), 0.0]
            state.stack.append(frame)
            op = tracer.op
            start = time.perf_counter()
            try:
                if counted:
                    with CostCounter.activate() as cost:
                        return func(*args, **kwargs)
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.active[name] -= 1
                duration = end - start
                if state.stack:
                    state.stack[-1][1] += duration
                if counted:
                    with tracer._cost_lock:
                        tracer.cost.add(cost)
                tracer.spans.append((frame[0], parent, name, op, threading.get_ident(),
                                     start, end, duration - frame[1], nested))

        return traced

    # -- reduction ------------------------------------------------------------

    def totals(self, ops) -> dict:
        """Per span name over the spans of ``ops`` (a predicate on the
        span's operation): ``inclusive`` seconds (a span nested in one of
        the same name is not counted twice), ``self`` seconds and
        ``count``."""
        out: dict[str, dict] = {}
        for _id, _parent, name, op, _thread, start, end, self_s, nested in self.spans:
            if not ops(op):
                continue
            row = out.setdefault(name, {"inclusive": 0.0, "self": 0.0, "count": 0})
            row["self"] += self_s
            row["count"] += 1
            if not nested:
                row["inclusive"] += end - start
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the
        tracer's creation, in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, op, thread, start, end, self_s, nested in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "op": op,
                    "thread": thread,
                    "start": start - self._origin, "end": end - self._origin,
                    "self": self_s, "nested": nested,
                }) + "\n")
