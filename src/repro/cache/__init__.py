"""Two-level query cache: results and resumable top-N state.

Blok lists reuse of earlier work as a first-class top-N optimization
issue: the same query re-asked should cost (almost) nothing, and a
top-100 following a top-10 should *continue*, not restart.  This
package provides the two cache levels the reproduction layers over
one fingerprint space:

* **Result cache** (:class:`QueryCache`): canonical query fingerprints
  (:mod:`~repro.cache.fingerprint`) map to cached
  :class:`~repro.topn.result.TopNResult` objects; a top-``n`` is
  answered from a cached top-``m`` (``m >= n``) when the producing
  engine is prefix-safe.
* **Resume state** (:mod:`~repro.cache.resume`): read-only snapshots
  of an engine's own state — TA frontiers, NRA/CA bound
  administrations and quit/continue accumulators — from which a
  resumed run equals the cold run at the new ``n``.

Invalidation is by corpus epoch: every fingerprint embeds the owning
database's epoch, which is bumped on any mutation that can change
scores, so stale entries can never hit (and are garbage-collected).
"""

from ..intervals import ThresholdBound
from .fingerprint import (
    QueryFingerprint,
    feature_token,
    text_fingerprint,
    tokens_fingerprint,
)
from .manager import CacheEntry, QueryCache
from .resume import AccumulatorResumeState, BoundResumeState, TAResumeState

__all__ = [
    "AccumulatorResumeState",
    "BoundResumeState",
    "CacheEntry",
    "QueryCache",
    "QueryFingerprint",
    "TAResumeState",
    "ThresholdBound",
    "feature_token",
    "text_fingerprint",
    "tokens_fingerprint",
]
