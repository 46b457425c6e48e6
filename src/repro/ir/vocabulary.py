"""Vocabulary: term string ↔ term id mapping with corpus statistics."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import WorkloadError


class Vocabulary:
    """Bidirectional term mapping plus document/collection frequencies.

    ``df`` (document frequency) drives the Zipf fragmentation of the
    paper's Step 1; ``cf`` (collection frequency) drives language-model
    smoothing.
    """

    def __init__(self) -> None:
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str] = []
        self._df: list[int] = []
        self._cf: list[int] = []

    def __len__(self) -> int:
        return len(self._id_to_term)

    @classmethod
    def from_token_id_docs(cls, docs_token_ids: Iterable[np.ndarray],
                           term_strings: list[str]) -> "Vocabulary":
        """Build from pre-assigned term ids (synthetic collections)."""
        vocab = cls()
        vocab._id_to_term = list(term_strings)
        vocab._term_to_id = {t: i for i, t in enumerate(term_strings)}
        vocab._df = [0] * len(term_strings)
        vocab._cf = [0] * len(term_strings)
        for token_ids in docs_token_ids:
            unique, counts = np.unique(token_ids, return_counts=True)
            for tid, count in zip(unique, counts):
                if tid < 0 or tid >= len(term_strings):
                    raise WorkloadError(f"token id {tid} outside vocabulary")
                vocab._df[tid] += 1
                vocab._cf[tid] += int(count)
        return vocab

    @classmethod
    def from_counts(cls, term_strings: list[str], df: np.ndarray,
                    cf: np.ndarray) -> "Vocabulary":
        """Build from term strings plus per-term df and cf arrays (the
        index build's counts, or a saved database's)."""
        if not len(df) == len(cf) == len(term_strings):
            raise WorkloadError(
                f"{len(term_strings)} terms but {len(df)} df and {len(cf)} cf counts")
        vocab = cls()
        vocab._id_to_term = list(term_strings)
        vocab._term_to_id = dict(zip(vocab._id_to_term, range(len(vocab._id_to_term))))
        vocab._df = np.asarray(df, dtype=np.int64).tolist()
        vocab._cf = np.asarray(cf, dtype=np.int64).tolist()
        return vocab

    def term_id(self, term: str) -> int:
        try:
            return self._term_to_id[term]
        except KeyError:
            raise WorkloadError(f"unknown term {term!r}") from None

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def term(self, tid: int) -> str:
        try:
            return self._id_to_term[tid]
        except IndexError:
            raise WorkloadError(f"unknown term id {tid}") from None

    def df(self, tid: int) -> int:
        """Document frequency of a term id."""
        return self._df[tid]

    def cf(self, tid: int) -> int:
        """Collection frequency (total occurrences) of a term id."""
        return self._cf[tid]

    def df_array(self) -> np.ndarray:
        return np.asarray(self._df, dtype=np.int64)

    def cf_array(self) -> np.ndarray:
        return np.asarray(self._cf, dtype=np.int64)

    def total_cf(self) -> int:
        """Total token count over the corpus."""
        return int(sum(self._cf))

    def terms(self) -> list[str]:
        return list(self._id_to_term)
