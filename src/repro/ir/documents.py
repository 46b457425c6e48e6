"""Document and collection model for the IR substrate.

Documents carry their content as *term-id sequences* (the form the
inverted index consumes).  Synthetic collections generate term ids
directly.

A :class:`Collection` optionally carries topic labels (ground truth
planted by the generator) which the workload layer uses to derive
relevance judgments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError


@dataclass
class Document:
    """One document: an id, its term-id sequence, optional metadata."""

    doc_id: int
    token_ids: np.ndarray
    topic: int | None = None

    @property
    def length(self) -> int:
        """Document length in tokens."""
        return len(self.token_ids)


@dataclass
class Collection:
    """A document collection plus its vocabulary strings.

    ``term_strings[tid]`` is the surface form of term id ``tid``.
    ``topics`` (when present) gives each document's generating topic —
    the ground truth behind synthetic relevance judgments.
    """

    documents: list[Document]
    term_strings: list[str]
    name: str = "collection"
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(doc.doc_id != i for i, doc in enumerate(self.documents)):
            raise WorkloadError("document ids must be dense 0..n-1 in collection order")

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def n_terms(self) -> int:
        return len(self.term_strings)

    def total_tokens(self) -> int:
        """Collection size in tokens."""
        return sum(doc.length for doc in self.documents)

    def document(self, doc_id: int) -> Document:
        try:
            return self.documents[doc_id]
        except IndexError:
            raise WorkloadError(f"no document with id {doc_id}") from None

    def doc_lengths(self) -> np.ndarray:
        """Array of document lengths, indexed by doc id."""
        return np.asarray([doc.length for doc in self.documents], dtype=np.int64)

