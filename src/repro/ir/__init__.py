"""Information-retrieval substrate: documents, vocabulary,
inverted index on BATs, ranking models and Zipf analysis."""

from .documents import Collection, Document
from .invindex import InvertedIndex, TermStats
from .ranking import BM25, LanguageModel, MODELS, ScoringModel, TfIdf, make_model, score_all
from .vocabulary import Vocabulary
from .zipf import (
    ZipfFit,
    fit_zipf,
    rank_frequency_table,
    vocabulary_share_for_volume,
    volume_share_of_top_terms,
)

__all__ = [
    "BM25",
    "Collection",
    "Document",
    "InvertedIndex",
    "LanguageModel",
    "MODELS",
    "ScoringModel",
    "TermStats",
    "TfIdf",
    "Vocabulary",
    "ZipfFit",
    "fit_zipf",
    "make_model",
    "rank_frequency_table",
    "score_all",
    "vocabulary_share_for_volume",
    "volume_share_of_top_terms",
]
