"""Ranking models: tf-idf, BM25 and a Jelinek-Mercer language model.

All models share one contract that the top-N machinery depends on:

* a query's document score is the **sum of non-negative per-term
  partial scores** (monotone aggregation — the precondition of Fagin's
  bound administration);
* :meth:`ScoringModel.upper_bound` returns, from per-term statistics
  alone, a value no partial score of that term can exceed — the basis
  of safe early termination and of term-ordering heuristics.

The naive evaluator :func:`score_all` is the unoptimized baseline every
experiment compares against: it reads the *complete* posting list of
every query term and materializes all candidate scores.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TopNError
from ..storage.bat import BAT
from .invindex import InvertedIndex, TermStats


class ScoringModel:
    """Base class; see module docstring for the contract."""

    name = "abstract"

    def partial_scores(self, index: InvertedIndex, tid: int,
                       doc_ids: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        """Non-negative per-document partial scores for one term."""
        raise NotImplementedError

    def upper_bound(self, index: InvertedIndex, stats: TermStats) -> float:
        """An upper bound on any partial score this term can produce."""
        raise NotImplementedError


class TfIdf(ScoringModel):
    """Classic ``(1 + log tf) * idf`` weighting with pivoted length
    normalization ``1 / (1 - slope + slope * dl/avg_dl)``."""

    name = "tfidf"

    def __init__(self, slope: float = 0.2) -> None:
        if not 0.0 <= slope < 1.0:
            raise TopNError(f"tfidf slope must be in [0, 1), got {slope}")
        self.slope = slope

    def _idf(self, index: InvertedIndex, df: int) -> float:
        return math.log(1.0 + index.n_docs / max(df, 1))

    def partial_scores(self, index, tid, doc_ids, tfs):
        idf = self._idf(index, index.vocabulary.df(tid))
        dl = index.doc_lengths_array()[doc_ids]
        norm = 1.0 - self.slope + self.slope * dl / max(index.avg_dl, 1e-9)
        # float64 whatever the tf column's width: np.log of int16 is float32
        return (1.0 + np.log(tfs, dtype=np.float64)) * idf / norm

    def upper_bound(self, index, stats):
        idf = self._idf(index, stats.df)
        min_norm = 1.0 - self.slope  # shortest possible document
        return (1.0 + math.log(max(stats.max_tf, 1))) * idf / max(min_norm, 1e-9)


class BM25(ScoringModel):
    """Okapi BM25 with the non-negative idf variant
    ``log(1 + (N - df + 0.5) / (df + 0.5))``."""

    name = "bm25"

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0 or not 0.0 <= b <= 1.0:
            raise TopNError(f"invalid BM25 parameters k1={k1}, b={b}")
        self.k1 = k1
        self.b = b

    def _idf(self, index: InvertedIndex, df: int) -> float:
        return math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))

    def partial_scores(self, index, tid, doc_ids, tfs):
        idf = self._idf(index, index.vocabulary.df(tid))
        dl = index.doc_lengths_array()[doc_ids]
        denom = tfs + self.k1 * (1.0 - self.b + self.b * dl / max(index.avg_dl, 1e-9))
        return idf * tfs * (self.k1 + 1.0) / denom

    def upper_bound(self, index, stats):
        idf = self._idf(index, stats.df)
        # tf*(k1+1)/(tf + k1*something>= (1-b)) is increasing in tf and
        # bounded by (k1+1); use max_tf with the smallest possible denom
        tf = max(stats.max_tf, 1)
        denom = tf + self.k1 * (1.0 - self.b)
        return idf * tf * (self.k1 + 1.0) / denom


class LanguageModel(ScoringModel):
    """Jelinek-Mercer smoothed query-likelihood in the additive
    ``log(1 + ...)`` form (Hiemstra's model, as used by the author's
    mirror DBMS at TREC)::

        score(d, q) = sum_t log(1 + (lam * tf/dl) / ((1-lam) * cf/|C|))
    """

    name = "lm"

    def __init__(self, lam: float = 0.15) -> None:
        if not 0.0 < lam < 1.0:
            raise TopNError(f"lambda must be in (0, 1), got {lam}")
        self.lam = lam

    def _background(self, index: InvertedIndex, cf: int) -> float:
        return max(cf, 1) / max(index.total_cf, 1)

    def partial_scores(self, index, tid, doc_ids, tfs):
        background = self._background(index, index.vocabulary.cf(tid))
        dl = index.doc_lengths_array()[doc_ids]
        ratio = (self.lam * tfs / dl) / ((1.0 - self.lam) * background)
        return np.log1p(ratio)

    def upper_bound(self, index, stats):
        background = self._background(index, stats.cf)
        ratio = (self.lam * stats.max_tf_over_dl) / ((1.0 - self.lam) * background)
        return math.log1p(ratio)


#: model registry by name, for configs and CLIs
MODELS = {cls.name: cls for cls in (TfIdf, BM25, LanguageModel)}


def make_model(name: str, **params) -> ScoringModel:
    """Instantiate a scoring model by registry name."""
    try:
        return MODELS[name](**params)
    except KeyError:
        raise TopNError(f"unknown scoring model {name!r}; have {sorted(MODELS)}") from None


def score_all(index: InvertedIndex, tids: list[int], model: ScoringModel) -> BAT:
    """The naive evaluator: full posting scan for every query term.

    Returns ``[(doc_id, score)]`` over all candidate documents
    (documents containing at least one query term), unordered.
    """
    accumulator = np.zeros(index.n_docs, dtype=np.float64)
    touched = np.zeros(index.n_docs, dtype=bool)
    for tid in tids:
        doc_ids, tfs = index.postings(tid)
        if len(doc_ids) == 0:
            continue
        partials = model.partial_scores(index, tid, doc_ids, tfs)
        np.add.at(accumulator, doc_ids, partials)
        touched[doc_ids] = True
    candidates = np.nonzero(touched)[0]
    from ..storage import stats as _stats

    _stats.charge_tuples_written(len(candidates))
    return BAT(accumulator[candidates], head=candidates.astype(np.int64), head_key=True)
