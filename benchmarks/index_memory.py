"""Bytes per document of each inverted-index structure, and of the build.

Builds ``trec.ft_like(scale, seed=0)``'s index once untraced (timed) and
once under ``tracemalloc`` (the build's high-water mark above the
corpus, finished index included), then sizes the posting columns, the
offsets, a two-shard copy and the 0.95 volume-cut fragments.  Prints one
JSON object.  Run it against any tree's ``src`` to compare layouts::

    PYTHONPATH=src python benchmarks/index_memory.py --scale 1.0
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc

from repro.fragmentation import fragment_by_volume
from repro.ir import InvertedIndex
from repro.parallel import shard_index
from repro.workloads import SyntheticCollection, trec


def _columns(index: InvertedIndex) -> int:
    return (index.postings_terms.tail.nbytes + index.postings_docs.tail.nbytes
            + index.postings_tf.tail.nbytes + index.offsets.nbytes)


def measure(scale: float) -> dict:
    collection = SyntheticCollection.generate(trec.ft_like(scale=scale, seed=0))
    n_docs = collection.n_docs
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        index = InvertedIndex.build(collection)
        seconds.append(time.perf_counter() - start)
        del index
    tracemalloc.start()
    index = InvertedIndex.build(collection)
    high_water = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    fragmented = fragment_by_volume(index, volume_cut=0.95)
    large = fragmented.large
    sharded = shard_index(index, 2)
    per_doc = {
        "postings_terms": index.postings_terms.tail.nbytes,
        "postings_docs": index.postings_docs.tail.nbytes,
        "postings_tf": index.postings_tf.tail.nbytes,
        "offsets": index.offsets.nbytes,
        "two_shards": sum(_columns(shard.index) for shard in sharded.shards),
        "fragments": (_columns(fragmented.small) + large.terms.tail.nbytes
                      + large.docs.tail.nbytes + large.tfs.tail.nbytes),
        "build_high_water": high_water,
    }
    return {
        "scale": scale,
        "docs": n_docs,
        "tokens": collection.total_tokens(),
        "postings": index.total_postings(),
        "dtypes": [str(index.postings_terms.tail.dtype), str(index.postings_docs.tail.dtype),
                   str(index.postings_tf.tail.dtype)],
        "build_s": sorted(seconds)[1],
        "bytes_per_doc": {name: round(size / n_docs, 1) for name, size in per_doc.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    print(json.dumps(measure(parser.parse_args().scale)))


if __name__ == "__main__":
    main()
