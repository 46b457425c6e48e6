"""The cache key discipline: fingerprints must separate everything
that can change an answer, and nothing else."""

import dataclasses

import numpy as np

from repro.cache import QueryFingerprint, feature_token, text_fingerprint, tokens_fingerprint


def base():
    return QueryFingerprint(kind="text", terms=(1, 2, 3), aggregate="bm25",
                            fragments=(0, 100), shard_layout=(), epoch=4,
                            extra=("strategy", "naive"))


class TestDigest:
    def test_deterministic(self):
        assert base().digest() == base().digest()

    def test_every_field_separates(self):
        reference = base().digest()
        variants = [
            dataclasses.replace(base(), kind="feature"),
            dataclasses.replace(base(), terms=(1, 2)),
            dataclasses.replace(base(), aggregate="sum"),
            dataclasses.replace(base(), fragments=(0, 50)),
            dataclasses.replace(base(), shard_layout=(0, 10)),
            dataclasses.replace(base(), epoch=5),
            dataclasses.replace(base(), extra=("strategy", "indexed")),
        ]
        digests = {fp.digest() for fp in variants}
        assert reference not in digests
        assert len(digests) == len(variants)


class TestTextFingerprint:
    def test_term_order_irrelevant(self):
        a = text_fingerprint([5, 1, 9], "bm25", 0)
        b = text_fingerprint([9, 5, 1], "bm25", 0)
        assert a.digest() == b.digest()

    def test_duplicates_kept(self):
        """A repeated term contributes twice to the score — not the
        same query as the deduplicated one."""
        a = text_fingerprint([1, 1, 2], "bm25", 0)
        b = text_fingerprint([1, 2], "bm25", 0)
        assert a.digest() != b.digest()

    def test_epoch_and_strategy_separate(self):
        a = text_fingerprint([1], "bm25", 0)
        assert a.digest() != text_fingerprint([1], "bm25", 1).digest()
        assert a.digest() != text_fingerprint([1], "bm25", 0, strategy="indexed").digest()


class TestSourceTokens:
    def test_source_order_preserved(self):
        """Weighted aggregates are not symmetric: source order is
        part of the key."""
        x = feature_token("x", "l2", np.array([0.1, 0.2]))
        y = feature_token("y", "l2", np.array([0.3, 0.4]))
        a = tokens_fingerprint((x, y), "sum", 0, "ta")
        b = tokens_fingerprint((y, x), "sum", 0, "ta")
        assert a.digest() != b.digest()

    def test_algorithm_and_kind_separate(self):
        x = (feature_token("x", "l2", np.array([0.1, 0.2])),)
        a = tokens_fingerprint(x, "sum", 0, "ta")
        assert a.digest() != tokens_fingerprint(x, "sum", 0, "nra").digest()
        assert a.digest() != tokens_fingerprint(x, "sum", 0, "ta", kind="combined").digest()
