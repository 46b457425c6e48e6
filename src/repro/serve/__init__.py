"""repro.serve — the asynchronous query service layer.

Puts a network front on :class:`~repro.core.MMDatabase`: an asyncio
server speaking a length-prefixed JSON frame protocol (plus a minimal
HTTP/NDJSON shim on the same port), with

* **streaming anytime answers** — every top-N query streams chunks,
  each carrying the current certified top-k prefix, an epoch-stamped
  :class:`~repro.intervals.ThresholdBound` on all unseen objects, and
  a resume token; the final chunk is bit-identical to the direct
  library call (:mod:`repro.serve.session`);
* **tenant-aware admission** — a per-tenant token bucket and
  concurrency cap in front of the pool-wide
  :meth:`~repro.parallel.executor.ExecutorPool.admit` bound
  (:mod:`repro.serve.tenants`);
* **deadline propagation** — request deadlines become
  :class:`~repro.parallel.executor.CancelToken` deadlines, checked
  between streamed steps;
* **resumable disconnects** — a dropped connection leaves the stream
  at an exact chunk boundary; the token re-attaches, and cross-epoch
  resumes are refused with the MOA1002 diagnostic
  (:mod:`repro.analysis.serve`).

``repro serve`` runs a server; ``benchmarks/bench_e19_serve.py`` is the
closed-loop load generator behind experiment E19.
"""

from .client import ServeClient, StreamResult, collect
from .protocol import (
    MAX_FRAME_BYTES,
    decode_body,
    encode_frame,
    error_frame,
    read_frame,
    read_frame_sync,
    write_frame_sync,
)
from .server import QueryServer, ServerConfig, ServerHandle, ServerThread
from .session import (
    ALGORITHMS,
    AnytimeRunner,
    Chunk,
    ServeSession,
    SessionRegistry,
    make_token,
    parse_token,
)
from .tenants import QuotaManager, TenantConfig, TenantState, TokenBucket

__all__ = [
    "ALGORITHMS",
    "AnytimeRunner",
    "Chunk",
    "MAX_FRAME_BYTES",
    "QueryServer",
    "QuotaManager",
    "ServeClient",
    "ServeSession",
    "ServerConfig",
    "ServerHandle",
    "ServerThread",
    "SessionRegistry",
    "StreamResult",
    "TenantConfig",
    "TenantState",
    "TokenBucket",
    "collect",
    "decode_body",
    "encode_frame",
    "error_frame",
    "make_token",
    "parse_token",
    "read_frame",
    "read_frame_sync",
    "write_frame_sync",
]
