"""Score sources: the access model of Fagin's middleware algorithms.

Fagin's FA/TA/NRA see each subsystem (a feature index, a text engine)
as a *graded list* supporting

* **sorted access** — next ``(object, grade)`` in descending grade
  order, and
* **random access** — the grade of a given object.

Both access kinds are charged on the active cost counters
(``sorted_accesses`` / ``random_accesses``), which is the cost measure
Fagin's analysis — and experiment E6 — is stated in.  Two bulk reads,
``sorted_slab`` and ``grades_of``, serve the same data a slab or a
batch at a time *uncharged*; an engine that uses them (TA, NRA, CA)
then charges, through ``charge_sorted`` and ``charge_random``, exactly
the accesses it would have made one at a time.  The storage sets the
unit of a sorted-access charge: one rank, or for
:class:`BlockedSource` one whole block.

:class:`ArraySource` wraps a precomputed score array (e.g. a feature
similarity for one query).  :class:`PostingsSource` adapts one query
term of an inverted index, bridging the IR substrate into the same
middleware model (objects absent from the posting list grade 0).
"""

from __future__ import annotations

import numpy as np

from ..errors import SourceExhaustedError, TopNError
from ..storage import stats
from ..storage.blocks import ScoredBlocks, blocks_between
from .distances import similarity_scores
from .features import FeatureSpace


class ScoreSource:
    """Abstract graded list over objects ``0 .. n_objects - 1``."""

    name = "source"

    @property
    def n_objects(self) -> int:
        raise NotImplementedError

    def sorted_access(self, rank: int) -> tuple[int, float]:
        """The ``rank``-th best ``(object, grade)`` (0-based).  Charges
        one sorted access."""
        raise NotImplementedError

    def random_access(self, obj_id: int) -> float:
        """The grade of ``obj_id``.  Charges one random access."""
        raise NotImplementedError

    def exhausted(self, rank: int) -> bool:
        """True when ``rank`` is past the end of the list."""
        return rank >= self.n_objects

    def sorted_slab(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ranks ``lo .. hi - 1`` as ``(objects, grades)`` arrays,
        cut short where the list ends.  **Uncharged**: a bulk reader
        (TA) charges the sorted accesses it actually uses itself."""
        raise NotImplementedError

    def grades_of(self, obj_ids: np.ndarray) -> np.ndarray:
        """The grades of ``obj_ids`` in one vectorised probe, the same
        floats :meth:`random_access` returns.  **Uncharged**, like
        :meth:`sorted_slab`."""
        raise NotImplementedError

    def charge_sorted(self, lo: int, hi: int) -> int:
        """Charge the sorted accesses to ranks ``lo .. hi - 1`` that a
        bulk reader used.  Returns the storage blocks read: none,
        sorted access is charged per rank."""
        stats.charge_sorted_accesses(hi - lo)
        return 0

    def charge_random(self, obj_ids) -> None:
        """Charge one random access per object of ``obj_ids``, the ones
        a bulk reader completed from this list, in order."""
        stats.charge_random_accesses(len(obj_ids))


def _checked_grades(grades) -> np.ndarray:
    """``grades`` as a float64 vector, or :class:`TopNError` when it is
    not one-dimensional, finite and non-negative.

    Monotone aggregation needs non-negative grades; a NaN or infinite
    grade has no place in the descending order, so sorted access and a
    full scan would disagree about the top-N."""
    grades = np.asarray(grades, dtype=np.float64)
    if grades.ndim != 1:
        raise TopNError(f"grades must be one-dimensional, got shape {grades.shape}")
    if not np.isfinite(grades).all():
        raise TopNError("grades must be finite (no NaN or infinity)")
    if len(grades) and grades.min() < 0:
        raise TopNError("grades must be non-negative (monotone aggregation contract)")
    return grades


def _dense_grades_of(grades: np.ndarray, obj_ids: np.ndarray, name: str) -> np.ndarray:
    """``grades[obj_ids]``, or :class:`TopNError` for an id outside the
    source (as random access raises)."""
    if len(obj_ids) and not (0 <= obj_ids.min() and obj_ids.max() < len(grades)):
        bad = obj_ids[(obj_ids < 0) | (obj_ids >= len(grades))][0]
        raise TopNError(f"object id {bad} outside source {name!r}")
    return grades[obj_ids]


#: Ranks the first sorted access of an :class:`ArraySource` materialises;
#: later growth doubles the prefix.
_FIRST_PREFIX = 256
#: Once a prefix would cover this share of the objects, sort them all.
_FULL_SORT_SHARE = 0.25


class ArraySource(ScoreSource):
    """A score source over a dense grade array (one grade per object).

    Sorted order — grade descending, ties by object id ascending — is
    built lazily: the first sorted access materialises the top
    ``_FIRST_PREFIX`` ranks, and each access past the prefix doubles
    it, until a prefix would pass ``_FULL_SORT_SHARE`` of the objects
    and the whole array is sorted instead.  A prefix holds every object
    graded at or above its cut grade, so ties at the cut are never
    split and each prefix equals the same ranks of the full sort.
    Construction charges nothing and sorts nothing.  ``request`` is
    the ``(space, measure, query)`` a feature similarity source was
    scanned from: the cache keys the source by it
    (:func:`~repro.cache.fingerprint.source_token`), and without one
    hashes the grades.
    """

    def __init__(self, scores: np.ndarray, name: str = "array",
                 request: tuple | None = None) -> None:
        self.name = name
        self.request = request
        self._scores = _checked_grades(scores)
        self._order = np.empty(0, dtype=np.int64)

    @property
    def n_objects(self) -> int:
        return len(self._scores)

    def _prefix(self, rank: int) -> np.ndarray:
        """The sorted order through ``rank`` at least (all of it when
        ``rank`` is past the end), growing the stored prefix if needed.

        Each new prefix replaces the old one in a single assignment, so
        a concurrent reader sees one exact prefix or the other."""
        order = self._order
        if rank < len(order):
            return order
        scores = self._scores
        n = len(scores)
        k = max(_FIRST_PREFIX, 2 * len(order), rank + 1)
        if k >= _FULL_SORT_SHARE * n:
            ids = np.arange(n)
        else:
            cut = np.partition(scores, n - k)[n - k]  # the k-th best grade
            ids = np.flatnonzero(scores >= cut)
        # ids ascend, so a stable sort on descending grade breaks ties by id
        order = ids[np.argsort(-scores[ids], kind="stable")]
        self._order = order
        return order

    def sorted_access(self, rank: int) -> tuple[int, float]:
        order = self._prefix(rank)
        if rank >= len(order):
            raise SourceExhaustedError(
                f"sorted access past end of source {self.name!r} (rank {rank})"
            )
        stats.charge_sorted_accesses(1)
        obj = int(order[rank])
        return obj, float(self._scores[obj])

    def random_access(self, obj_id: int) -> float:
        if not 0 <= obj_id < len(self._scores):
            raise TopNError(f"object id {obj_id} outside source {self.name!r}")
        stats.charge_random_accesses(1)
        return float(self._scores[obj_id])

    def sorted_slab(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        hi = min(hi, len(self._scores))
        if hi <= lo:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        ids = self._prefix(hi - 1)[lo:hi]
        return ids, self._scores[ids]

    def grades_of(self, obj_ids: np.ndarray) -> np.ndarray:
        return _dense_grades_of(self._scores, obj_ids, self.name)


def feature_source(space: FeatureSpace, query: np.ndarray, measure: str = "l2") -> ArraySource:
    """Build a graded list from a feature space and a query vector."""
    # the summing scans read the column-major copy; cosine's matmul
    # reads rows
    matrix = space.vectors if measure == "cosine" else space.columns.T
    scores = similarity_scores(matrix, query, measure)
    return ArraySource(scores, name=f"{space.name}:{measure}",
                       request=(space.name, measure, query))


class PostingsSource(ScoreSource):
    """One query term of an inverted index as a graded list.

    Grades are the ranking model's partial scores; objects without the
    term grade 0.  Sorted access sorts the posting list by partial
    score once, at first use (charged as comparisons + the posting
    scan); random access binary-searches the doc-sorted postings.
    """

    def __init__(self, index, tid: int, model) -> None:
        self.index = index
        self.tid = tid
        self.model = model
        self.name = f"term:{tid}"
        doc_ids, tfs = index.postings(tid)
        self._doc_ids = doc_ids  # ascending doc id (for random access)
        partials = (
            model.partial_scores(index, tid, doc_ids, tfs)
            if len(doc_ids)
            else np.empty(0, dtype=np.float64)
        )
        self._partials = partials
        order = np.lexsort((doc_ids, -partials))
        stats.charge_comparisons(len(doc_ids) * max(int(np.log2(max(len(doc_ids), 2))), 1))
        self._by_score_docs = doc_ids[order]
        self._by_score_grades = partials[order]

    @property
    def n_objects(self) -> int:
        return self.index.n_docs

    @property
    def posting_length(self) -> int:
        return len(self._doc_ids)

    def exhausted(self, rank: int) -> bool:
        # after the posting list ends, every remaining object grades 0
        return rank >= len(self._by_score_docs)

    def sorted_access(self, rank: int) -> tuple[int, float]:
        if rank >= len(self._by_score_docs):
            raise SourceExhaustedError(
                f"sorted access past posting list of {self.name!r} (rank {rank})"
            )
        stats.charge_sorted_accesses(1)
        return int(self._by_score_docs[rank]), float(self._by_score_grades[rank])

    def random_access(self, obj_id: int) -> float:
        stats.charge_random_accesses(1)
        pos = int(np.searchsorted(self._doc_ids, obj_id))
        if pos < len(self._doc_ids) and self._doc_ids[pos] == obj_id:
            return float(self._partials[pos])
        return 0.0

    def sorted_slab(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return self._by_score_docs[lo:hi], self._by_score_grades[lo:hi]

    def grades_of(self, obj_ids: np.ndarray) -> np.ndarray:
        if not len(self._doc_ids):
            return np.zeros(len(obj_ids), dtype=np.float64)
        pos = np.minimum(np.searchsorted(self._doc_ids, obj_ids), len(self._doc_ids) - 1)
        return np.where(self._doc_ids[pos] == obj_ids, self._partials[pos], 0.0)


class BlockedSource(ScoreSource):
    """A graded list stored as scored blocks (block-at-a-time access).

    The :class:`ScoreSource` interface serves the same ranks and grades
    — the block payload is the same descending-grade / id-ascending
    order :class:`ArraySource` and :class:`PostingsSource` use — so
    every engine, its resumes and served streams, and the parallel
    coordinator's range evaluators work over blocked storage unchanged.
    Only the unit of a sorted-access charge differs: block storage reads
    a whole block, so the sorted access that opens a block pays for all
    of it and the block's later ranks cost nothing, whether a reader
    goes one rank at a time or charges in bulk (:meth:`charge_sorted`).
    On top of it, the block API serves whole ``(doc_ids, grades)``
    blocks with one bulk sorted-access charge.
    """

    def __init__(self, dense_grades: np.ndarray, blocks: ScoredBlocks,
                 name: str = "blocked") -> None:
        self.name = name
        self._dense = _checked_grades(dense_grades)
        self.blocks = blocks

    @classmethod
    def from_array(cls, scores, block_size: int, name: str = "blocked") -> "BlockedSource":
        """Blocked view of a dense grade array (one grade per object);
        the sorted-access order matches :class:`ArraySource` exactly."""
        scores = np.asarray(scores, dtype=np.float64)
        blocks = ScoredBlocks(np.arange(len(scores), dtype=np.int64), scores,
                              block_size)
        return cls(scores, blocks, name=name)

    @classmethod
    def from_postings(cls, index, tid: int, model, block_size: int) -> "BlockedSource":
        """Blocked view of one query term of an inverted index; the
        sorted-access order matches :class:`PostingsSource` exactly
        (objects without the term grade 0 under random access)."""
        doc_ids, tfs = index.postings(tid)
        partials = (
            model.partial_scores(index, tid, doc_ids, tfs)
            if len(doc_ids)
            else np.empty(0, dtype=np.float64)
        )
        # same one-off sort charge as the scalar postings adapter
        stats.charge_comparisons(len(doc_ids) * max(int(np.log2(max(len(doc_ids), 2))), 1))
        dense = np.zeros(index.n_docs, dtype=np.float64)
        if len(doc_ids):
            dense[doc_ids] = partials
        blocks = ScoredBlocks(doc_ids, partials, block_size)
        return cls(dense, blocks, name=f"term:{tid}")

    # -- scalar protocol ----------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self._dense)

    def exhausted(self, rank: int) -> bool:
        # past the stored list every remaining object grades 0 (the
        # posting-source convention; dense builds store every object)
        return rank >= self.blocks.n_postings

    def sorted_access(self, rank: int) -> tuple[int, float]:
        if rank >= self.blocks.n_postings:
            raise SourceExhaustedError(
                f"sorted access past end of source {self.name!r} (rank {rank})")
        if rank % self.block_size == 0:
            self.read_block(rank // self.block_size)
        return int(self.blocks.doc_ids[rank]), float(self.blocks.grades[rank])

    def random_access(self, obj_id: int) -> float:
        if not 0 <= obj_id < len(self._dense):
            raise TopNError(f"object id {obj_id} outside source {self.name!r}")
        stats.charge_random_accesses(1)
        return float(self._dense[obj_id])

    def sorted_slab(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return self.blocks.doc_ids[lo:hi], self.blocks.grades[lo:hi]

    def grades_of(self, obj_ids: np.ndarray) -> np.ndarray:
        return _dense_grades_of(self._dense, obj_ids, self.name)

    def charge_sorted(self, lo: int, hi: int) -> int:
        """Read and charge in full every block :meth:`blocks_between`
        ``lo`` and ``hi`` names; returns how many."""
        blocks = self.blocks_between(lo, hi)
        for b in blocks:
            self.read_block(b)
        return len(blocks)

    # -- block-at-a-time protocol -------------------------------------------

    @property
    def block_size(self) -> int:
        return self.blocks.block_size

    @property
    def n_blocks(self) -> int:
        return self.blocks.n_blocks

    def blocks_between(self, lo: int, hi: int) -> range:
        """The blocks a reader of ranks ``lo .. hi - 1`` opens
        (:func:`~repro.storage.blocks.blocks_between`)."""
        return blocks_between(lo, hi, self.block_size, self.blocks.n_postings)

    def read_block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Block ``b`` as ``(doc_ids, grades)``, charged as one bulk
        sorted-access run over the block's postings."""
        doc_ids, grades = self.blocks.block(b)
        stats.charge_sorted_accesses(len(doc_ids))
        return doc_ids, grades
