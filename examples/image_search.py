"""Multimedia search: multi-feature top-N with Fagin's algorithms.

Run with::

    python examples/image_search.py

Simulates an image archive: every document carries a color histogram
and a texture vector (synthetic, with planted clusters standing in for
visual similarity).  A query asks for the N objects best matching a
color example AND a texture example; the three Fagin-family
algorithms answer it without scoring the whole archive (FA, the
baseline, as a direct engine call; TA and NRA through the database),
and a combined query mixes text terms with feature similarity — the
paper's "integrated top N queries on several content types".
"""

from repro.core import MMDatabase
from repro.mm import color_histograms, query_near_cluster, texture_features
from repro.storage import CostCounter
from repro.topn import SUM, WeightedSum, fagin_topn
from repro.workloads import SyntheticCollection, generate_queries, trec


def report(name: str, cost: CostCounter, doc_ids: list[int]) -> None:
    print(f"  {name:<4} accesses={cost.total_accesses:>6} "
          f"(sorted={cost.sorted_accesses}, random={cost.random_accesses}) "
          f"-> {doc_ids}")


def main() -> None:
    collection = SyntheticCollection.generate(trec.tiny(seed=42))
    db = MMDatabase.from_collection(collection)

    # attach two feature spaces (the "multimedia" content)
    color = color_histograms(len(collection), bins=16, n_clusters=8, seed=1)
    texture = texture_features(len(collection), dim=8, n_clusters=8, seed=2)
    db.add_feature_space(color)
    db.add_feature_space(texture)
    print(f"archive: {len(collection)} objects, "
          f"features: {sorted(db.feature_spaces)}\n")

    # a query "image": vectors near cluster 3 in both spaces
    color_query = query_near_cluster(color, cluster=3, seed=10)
    texture_query = query_near_cluster(texture, cluster=3, seed=11)
    queries = {"color": color_query, "texture": texture_query}

    print("top-5 by combined color+texture similarity:")
    with CostCounter.activate() as cost:
        result = fagin_topn(db.feature_sources(queries), 5, SUM)
    report("FA", cost, result.doc_ids)
    for algorithm in ("ta", "nra"):
        with CostCounter.activate() as cost:
            result = db.feature_search(queries, n=5, algorithm=algorithm)
        report(algorithm.upper(), cost, result.doc_ids)

    # how many of the hits are actually from the queried cluster?
    result = db.feature_search(queries, n=5, algorithm="ta")
    in_cluster = sum(1 for d in result.doc_ids if color.cluster_of[d] == 3)
    print(f"\n{in_cluster}/5 hits come from the queried visual cluster")

    # user-weighted aggregation ([FM]: users weight search terms):
    # color matters 3x as much as texture
    weighted = db.feature_search(queries, n=5, algorithm="ta",
                                 agg=WeightedSum([3.0, 1.0]))
    print(f"color-weighted top-5: {weighted.doc_ids}")

    # integrated content query: text terms + a feature example
    text_query = generate_queries(collection, n_queries=1, seed=5).queries[0]
    combined = db.combined_search(text_query.text(collection),
                                  {"color": color_query}, n=5, algorithm="ta")
    print(f"\ncombined text+color query {text_query.text(collection)!r}:")
    for rank, item in enumerate(combined.hits, start=1):
        print(f"  {rank}. doc {item.obj_id} score {item.score:.3f}")


if __name__ == "__main__":
    main()
