"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems raise the most specific
subclass that applies; the hierarchy mirrors the package layout
(storage, algebra, optimizer, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class StorageError(ReproError):
    """Base class for errors raised by the binary-table storage kernel."""


class BATTypeError(StorageError):
    """An operation received a BAT whose column type it cannot handle."""


class BATShapeError(StorageError):
    """Head and tail columns of a BAT disagree in length, or an
    operation received BATs of incompatible cardinalities."""


class CatalogError(StorageError):
    """A named BAT was not found in, or conflicts with, the catalog."""


class BufferError_(StorageError):
    """The simulated buffer manager was configured or used incorrectly."""


class IndexError_(StorageError):
    """A (non-)dense index was built over or probed with invalid data."""


class AlgebraError(ReproError):
    """Base class for errors raised by the structured object algebra."""


class AlgebraTypeError(AlgebraError):
    """A structure expression is ill-typed (e.g. ``select`` applied to
    an ATOMIC value, or operator arity mismatch)."""


class UnknownOperatorError(AlgebraError):
    """An expression refers to an operator no extension provides."""


class UnknownExtensionError(AlgebraError):
    """An expression refers to a structure/extension that has not been
    registered with the extension registry."""


class ParseError(AlgebraError):
    """The textual algebra parser could not parse its input."""


class EvaluationError(AlgebraError):
    """A well-formed expression failed during physical evaluation."""


class OptimizerError(ReproError):
    """Base class for errors raised by the optimizer layers."""


class RewriteError(OptimizerError):
    """A rewrite rule produced an invalid or ill-typed expression."""


class CostModelError(OptimizerError):
    """The cost model was asked to cost an unknown operator shape."""


class TopNError(ReproError):
    """Base class for errors raised by top-N operator implementations."""


class SourceExhaustedError(TopNError):
    """A sorted/random access source was read past its end where the
    algorithm required more input."""


class ParallelError(TopNError):
    """Base class for errors raised by the sharded parallel execution
    engine (:mod:`repro.parallel`)."""


class ShardingError(ParallelError):
    """A sharder received an invalid shard count or shard boundaries."""


class AdmissionRejectedError(ParallelError):
    """Admission control rejected a query: the executor pool already
    runs its maximum number of in-flight queries, or the shard-task
    queue bound would be exceeded.  Raised *instead of* queueing —
    rejection is explicit, never silent."""


class QueryCancelledError(ParallelError):
    """A parallel query was cancelled before its result was resolved."""


class ServeError(ReproError):
    """Base class for errors raised by the query service layer
    (:mod:`repro.serve`)."""


class ProtocolError(ServeError):
    """A wire frame was malformed: bad length prefix, oversized frame,
    invalid JSON, or a request missing required fields."""


class QuotaExceededError(ServeError):
    """A tenant exceeded its token-bucket rate or concurrency quota.

    The rejection is explicit and retryable — ``retry_after`` (seconds,
    possibly 0.0) hints when the bucket will hold a token again.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ResumeTokenError(ServeError):
    """A resume token could not be redeemed: unknown/expired token, a
    session already being served, or a corpus-epoch mismatch (the
    MOA1002 condition — resuming across epochs could serve stale
    frontiers as fresh answers).

    ``diagnostic`` carries the MOA diagnostic when one applies.
    """

    def __init__(self, message: str, code: str = "resume_unknown",
                 diagnostic=None) -> None:
        super().__init__(message)
        self.code = code
        self.diagnostic = diagnostic


class WorkloadError(ReproError):
    """A workload/collection generator received invalid parameters."""


class QualityError(ReproError):
    """A retrieval-quality metric received inconsistent rankings or
    relevance judgments."""
