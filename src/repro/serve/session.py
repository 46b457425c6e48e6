"""Anytime execution state: incremental runners and resume tokens.

The Fagin-family engines are natural **anytime** algorithms — run one
with a sorted-access budget and you get the best certified answer so
far plus enough state to continue.  :class:`AnytimeRunner` packages
that into a ``step()`` iterator the server streams from, one chunk per
step, at a doubling depth schedule (``chunk_depth``, 2×, 4×, ...; total
work stays within a small constant of a single uncapped run):

* **TA** runs once per stream.  The runner keeps one
  :class:`~repro.cache.resume.TAResumeState` frontier and advances it
  through :func:`~repro.topn.threshold_topn` one TA slab at a time, and
  only when the next chunk lies past it; every chunk is cut from what
  has been read (:func:`~repro.topn.ta.answer_at`).  The chunk at
  depth ``d`` answers from the objects first seen below ``d``, bounded
  by τ at ``d - 1``, and carries the stats a run resumed from the
  previous chunk and capped at ``d`` would report — so the stream
  equals chaining capped, resumed runs chunk for chunk, and its final
  chunk is bit-identical to the cold library call.  ``chunk_depth``
  sets the chunk schedule, not how far the engine reads per step: on a
  disconnect or deadline the stream may have been charged past its
  last delivered chunk, up to the end of the current slab.  A stream
  served from the query cache starts from a completed run it did not
  compute (:meth:`~repro.core.MMDatabase.feature_stream`), has no
  sources, and only cuts; a stream that computed its run hands the
  completed run to its ``store``.
* **NRA / CA** keep one bound administration per stream, advanced by
  one engine call per chunk: each call resumes the previous chunk's
  captured :class:`~repro.cache.resume.BoundResumeState` at the
  stream's own ``n`` and reads on to the chunk depth, so it charges
  only the ranks and completions past the previous chunk.  Every
  chunk answers what the cold run capped at its depth answers (items,
  bound and stats, except that over block storage the block counts
  are the chunk's own), and the first chunk whose stop reason is not
  ``max_depth`` *is* the cold result, bit for bit.

FA has no mid-run frontier to certify and is not served; it stays a
direct engine call (:func:`~repro.topn.fagin_topn`).

A disconnected client resumes through :class:`SessionRegistry`: the
token ``sv1.<id>.<epoch>`` embeds the corpus epoch the stream started
at, and redeeming it at a different epoch is refused with the MOA1002
diagnostic — a frontier captured before a corpus mutation must never
continue as if nothing changed (the serve-side twin of the cache's
fingerprint epoch).
"""

from __future__ import annotations

import itertools
import secrets
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import ResumeTokenError, TopNError
from ..intervals import ThresholdBound
from ..obs import metrics
from ..sync import acquires, declares_shared_state, make_lock, releases
from ..topn import SUM, combined_topn, nra_topn, threshold_topn
from ..topn.ta import answer_at, slab_end

ALGORITHMS = ("ta", "nra", "ca")

_TOKEN_PREFIX = "sv1"
_ids = itertools.count()


@dataclass
class Chunk:
    """One streamed anytime answer."""

    seq: int
    #: cumulative ``(obj_id, score)`` prefix in canonical tie order
    items: list
    #: sorted-access depth the answer certifies up to
    depth: int
    final: bool
    certified: bool
    #: epoch-stamped upper bound on any *unseen* object's score
    bound: ThresholdBound | None
    epoch: int
    algorithm: str
    stats: dict = field(default_factory=dict)

    def to_frame(self, resume_token: str | None) -> dict:
        frame = {
            "type": "chunk",
            "seq": self.seq,
            "items": [[int(obj), float(score)] for obj, score in self.items],
            "depth": int(self.depth),
            "final": self.final,
            "certified": self.certified,
            "bound": self.bound.to_dict() if self.bound is not None else None,
            "epoch": self.epoch,
            "algorithm": self.algorithm,
        }
        if resume_token is not None:
            frame["resume_token"] = resume_token
        if self.final:
            frame["stats"] = _jsonable_stats(self.stats)
        return frame


def _jsonable_stats(stats: dict) -> dict:
    out = {}
    for key, value in stats.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
    return out


@declares_shared_state
class AnytimeRunner:
    """Incremental execution of one multi-source top-N query.

    Not itself locked: the owning :class:`ServeSession`'s busy flag
    serializes ``step()`` calls, so successive steps — even on
    different pool threads — are separated by the session lock's
    happens-before edge (hence the ``<barrier>`` declarations).  The
    run each step resumes is read-only.
    """

    SHARED_STATE = {
        "_depth": "<barrier>",
        "_seq": "<barrier>",
        "_run": "<barrier>",
        "_last": "<barrier>",
    }

    def __init__(self, sources: list | None, n: int, algorithm: str, agg=SUM,
                 *, epoch: int = 0, chunk_depth: int = 32, run=None,
                 store=None) -> None:
        if algorithm not in ALGORITHMS:
            raise TopNError(
                f"unknown algorithm {algorithm!r}; have {sorted(ALGORITHMS)}")
        if chunk_depth < 1:
            raise TopNError(f"chunk_depth must be >= 1, got {chunk_depth}")
        self.n = n
        self.algorithm = algorithm
        self.agg = agg
        self.epoch = epoch
        self.sources = sources
        self._depth = chunk_depth
        self._seq = 0
        #: TA, NRA, CA: the latest run over the stream's one frontier,
        #: which it holds as ``stats["resume_state"]``.  A TA stream
        #: served from the cache starts with a completed run here and
        #: no sources: every chunk is cut from it, nothing is read.
        self._run = run
        #: TA: called once with the completed run the stream computed
        self._store = store
        self._last: Chunk | None = None

    @property
    def finished(self) -> bool:
        return self._last is not None and self._last.final

    def step(self) -> Chunk:
        """Answer the next chunk depth; returns the next chunk (the final
        chunk again once finished — re-sends after a failed delivery
        must not re-advance the frontier)."""
        if self.finished:
            return self._last
        if self.algorithm == "ta":
            run = self._run
            if run is None or (run.stats["stop_reason"] == "max_depth"
                               and run.stats["depth"] < self._depth):
                # read on by a whole TA slab, or to this chunk past it
                read = run.stats["depth"] if run is not None else 0
                run = self._run = threshold_topn(
                    self.sources, self.n, self.agg,
                    resume_from=run.stats["resume_state"] if run is not None else None,
                    capture_state=True,
                    max_depth=max(self._depth, slab_end(read)))
            items, stats = answer_at(
                run, self._depth,
                since=self._last.depth if self._last is not None else 0)
            if self._store is not None and stats["stop_reason"] != "max_depth":
                self._store(run)
        else:
            engine = nra_topn if self.algorithm == "nra" else combined_topn
            result = self._run = engine(
                self.sources, self.n, self.agg, max_depth=self._depth,
                resume_from=(self._run.stats["resume_state"]
                             if self._run is not None else None),
                capture_state=True)
            items = [(item.obj_id, item.score) for item in result.items]
            stats = {key: value for key, value in result.stats.items()
                     if key != "resume_state"}
        final = stats.get("stop_reason") != "max_depth"
        chunk = Chunk(
            seq=self._seq,
            items=items,
            depth=int(stats.get("depth", self._depth)),
            final=final,
            certified=final,
            bound=self._bound(items, stats, final),
            epoch=self.epoch,
            algorithm=self.algorithm,
            stats=stats,
        )
        self._seq += 1
        self._last = chunk
        if not final:
            self._depth *= 2
        metrics.inc("serve.chunks")
        return chunk

    def _bound(self, items: list, stats: dict, final: bool) -> ThresholdBound | None:
        """The chunk's certified score bound, epoch-stamped.

        Partial chunks bound the *unseen*: TA's τ and NRA/CA's
        bottom aggregate both dominate any object never seen under
        sorted access (monotonicity).  The final chunk's bound is the
        answer's own n-th sort key.
        """
        if final and items:
            obj_id, score = items[-1]
            return ThresholdBound(n=len(items), key=(-score, obj_id),
                                  epoch=self.epoch)
        ceiling = stats.get("final_threshold", stats.get("bottom_aggregate"))
        if ceiling is None:
            return None
        return ThresholdBound(n=len(items), key=(-float(ceiling), -1),
                              epoch=self.epoch)


@declares_shared_state
class ServeSession:
    """One streamed query's server-side state: the runner plus a busy
    flag that serializes pumping (a resume while the original
    connection still streams is refused, not interleaved)."""

    SHARED_STATE = {
        "busy": "_lock",
        "delivered": "_lock",
    }

    #: every critical section under "serve.session" is pure field
    #: flips — the lifecycle analyzer (MOA1105) verifies no lock is
    #: ever acquired while this one is held
    LOCK_LEAF = True

    def __init__(self, token: str, runner: AnytimeRunner, tenant: str,
                 epoch: int) -> None:
        self.token = token
        self.runner = runner
        self.tenant = tenant
        self.epoch = epoch
        self._lock = make_lock("serve.session")
        self.busy = False
        #: chunks successfully drained to a client (resume diagnostics)
        self.delivered = 0

    def acquire(self) -> bool:
        with self._lock:
            if self.busy:
                return False
            self.busy = True
            return True

    @releases("session")
    def release(self) -> None:
        with self._lock:
            self.busy = False

    def note_delivered(self) -> None:
        with self._lock:
            self.delivered += 1


def make_token(epoch: int) -> str:
    return f"{_TOKEN_PREFIX}.{next(_ids):x}{secrets.token_hex(6)}.{epoch}"


def parse_token(token: str) -> tuple[str, int]:
    """Split a resume token into (session id, issuing epoch)."""
    parts = str(token).split(".")
    if len(parts) != 3 or parts[0] != _TOKEN_PREFIX:
        raise ResumeTokenError(f"malformed resume token {token!r}")
    try:
        epoch = int(parts[2])
    except ValueError:
        raise ResumeTokenError(f"malformed resume token {token!r}") from None
    return parts[1], epoch


def _unknown_token(token: str) -> ResumeTokenError:
    return ResumeTokenError(
        f"unknown or expired resume token {token!r}; run the query "
        "again from the start", code="resume_unknown")


@declares_shared_state
class SessionRegistry:
    """Resumable streams by token, LRU-bounded.

    Dropping the least recently pumped session under memory pressure is
    safe — a dropped token redeems as ``resume_unknown`` and the client
    restarts cold, which is correct, just slower.
    """

    SHARED_STATE = {
        "_sessions": "_lock",
        "issued": "_lock",
        "resumed": "_lock",
        "epoch_mismatches": "_lock",
    }

    def __init__(self, max_sessions: int = 256) -> None:
        self.max_sessions = max_sessions
        self._lock = make_lock("serve.sessions")
        self._sessions: OrderedDict[str, ServeSession] = OrderedDict()
        self.issued = 0
        self.resumed = 0
        self.epoch_mismatches = 0

    @acquires("session")
    def issue(self, runner: AnytimeRunner, tenant: str, epoch: int) -> ServeSession:
        token = make_token(epoch)
        session = ServeSession(token, runner, tenant, epoch)
        session.acquire()  # born attached to the issuing connection
        with self._lock:
            self._sessions[token] = session
            self.issued += 1
            if len(self._sessions) > self.max_sessions:
                # evict idle sessions in LRU order, skipping past live
                # streams (never evicted) rather than stopping at a
                # busy head — otherwise one long stream at the LRU end
                # would pin every session behind it
                evictable = [t for t, s in self._sessions.items()
                             if not s.busy]
                for evicted_token in evictable:
                    if len(self._sessions) <= self.max_sessions:
                        break
                    del self._sessions[evicted_token]
        metrics.set_gauge("serve.sessions", self.size())
        return session

    @acquires("session")
    def redeem(self, token: str, current_epoch: int) -> ServeSession:
        """Re-attach to a disconnected stream.

        Epoch is checked *before* the lookup so even an evicted token
        reports the more actionable failure: resuming across a corpus
        mutation is the MOA1002 condition and can never be satisfied,
        while an evicted same-epoch token just means "start over".
        """
        _session_id, token_epoch = parse_token(token)
        if token_epoch != current_epoch:
            from ..analysis.serve import epoch_mismatch_diagnostic

            with self._lock:
                self.epoch_mismatches += 1
            metrics.inc("serve.resume.epoch_mismatch")
            diagnostic = epoch_mismatch_diagnostic(token_epoch, current_epoch)
            raise ResumeTokenError(diagnostic.message,
                                   code="resume_epoch_mismatch",
                                   diagnostic=diagnostic)
        with self._lock:
            session = self._sessions.get(token)
            if session is not None:
                self._sessions.move_to_end(token)
                self.resumed += 1
        if session is None:
            raise _unknown_token(token)
        if not session.acquire():
            raise ResumeTokenError(
                f"resume token {token!r} is already being served",
                code="resume_busy")
        with self._lock:
            live = self._sessions.get(token) is session
        if not live:
            # the holder finished the stream and dropped the token
            # between the lookup and the acquire: pumping it again
            # would re-send its final chunk
            session.release()
            raise _unknown_token(token)
        metrics.inc("serve.resumed")
        return session

    @releases("session")
    def drop(self, token: str) -> None:
        with self._lock:
            self._sessions.pop(token, None)
        metrics.set_gauge("serve.sessions", self.size())

    def size(self) -> int:
        with self._lock:
            return len(self._sessions)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "active": len(self._sessions),
                "issued": self.issued,
                "resumed": self.resumed,
                "epoch_mismatches": self.epoch_mismatches,
            }
