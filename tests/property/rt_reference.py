"""Scalar reference of the RT bounding loop, for the equivalence tests.

The bounding methods in :mod:`repro.algorithms.rt.bounding` anonymize each
cluster from the parent dataset's columns, price it with the cut-based UL,
choose merge partners through the integer-coded ``_MergeState`` and write
every output column once.  This module restates the loop they replaced, one
plain step at a time:

* every cluster is materialized with ``Dataset.subset``, anonymized by a
  transaction algorithm the factory builds for that subset, and priced with
  ``utility_loss`` on the subset;
* a merge partner is the cluster with the lowest :func:`merge_score`, which
  re-walks the member records of both clusters for every candidate;
* the output is written record by record with ``Dataset.set_value``.

``tests/property/test_rt_bounding_properties.py``,
``tests/property/test_relational_kernel_properties.py`` and
``benchmarks/bench_rt_kernels.py`` compare the production kernels against it.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import relational_quasi_identifiers, validate_k
from repro.algorithms.relational.cluster import ClusterAnonymizer
from repro.datasets.dataset import Dataset
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import utility_loss


# -- merge scores -------------------------------------------------------------------
def cluster_items(dataset: Dataset, cluster: Sequence[int], attribute: str) -> set:
    items: set = set()
    for index in cluster:
        items |= set(dataset[index][attribute])
    return items


def relational_merge_cost(
    helper: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    cluster_a: Sequence[int],
    cluster_b: Sequence[int],
) -> float:
    merged = list(cluster_a) + list(cluster_b)
    return helper._cluster_cost(dataset, list(attributes), merged)


def transaction_merge_cost(
    dataset: Dataset, cluster_a: Sequence[int], cluster_b: Sequence[int], attribute: str
) -> float:
    items_a = cluster_items(dataset, cluster_a, attribute)
    items_b = cluster_items(dataset, cluster_b, attribute)
    union = items_a | items_b
    if not union:
        return 0.0
    jaccard = len(items_a & items_b) / len(union)
    return 1.0 - jaccard


def merge_score(
    strategy: str,
    helper: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    attribute: str,
    cluster_a: Sequence[int],
    cluster_b: Sequence[int],
) -> float:
    """Cost of merging two clusters under a bounding strategy ``"r"``, ``"t"`` or ``"rt"``."""
    if strategy == "r":
        return relational_merge_cost(helper, dataset, attributes, cluster_a, cluster_b)
    if strategy == "t":
        return transaction_merge_cost(dataset, cluster_a, cluster_b, attribute)
    relational = relational_merge_cost(helper, dataset, attributes, cluster_a, cluster_b)
    transactional = transaction_merge_cost(dataset, cluster_a, cluster_b, attribute)
    return 0.5 * relational + 0.5 * transactional


def best_partner(
    strategy: str,
    helper: ClusterAnonymizer,
    dataset: Dataset,
    attributes: Sequence[str],
    attribute: str,
    clusters: Sequence[Sequence[int]],
    worst: int,
) -> int:
    """The first cluster position with the lowest :func:`merge_score` against ``worst``."""
    candidates = [position for position in range(len(clusters)) if position != worst]
    return min(
        candidates,
        key=lambda position: merge_score(
            strategy, helper, dataset, attributes, attribute, clusters[worst], clusters[position]
        ),
    )


# -- output ---------------------------------------------------------------------------
def generalize_clusters_per_record(
    helper: ClusterAnonymizer,
    dataset: Dataset,
    clusters: Sequence[Sequence[int]],
    attributes: Sequence[str],
    name_suffix: str = "cluster",
) -> Dataset:
    """``ClusterAnonymizer.generalize_clusters`` with one ``set_value`` per cell."""
    if not getattr(helper, "_domain_size", None):
        helper._prepare(dataset, list(attributes))
    anonymized = dataset.copy(name=f"{dataset.name}[{name_suffix}]")
    for cluster in clusters:
        published = helper._generalized_values(dataset, list(attributes), cluster)
        for index in cluster:
            for attribute, value in published.items():
                anonymized.set_value(index, attribute, value)
    return anonymized


# -- the bounding loop ------------------------------------------------------------------
def cluster_transactions(
    algorithm, dataset: Dataset, cluster: Sequence[int], attribute: str
) -> tuple[list, float]:
    """One cluster anonymized on its materialized subset, with its UL."""
    factory = algorithm.transaction_factory or algorithm._default_transaction_factory()
    subset = dataset.subset(cluster)
    result = factory(subset).anonymize(subset)
    itemsets = [record[attribute] for record in result.dataset]
    loss = utility_loss(
        subset, result.dataset, attribute=attribute, hierarchy=algorithm.item_hierarchy
    )
    return itemsets, loss


def reference_anonymize(algorithm, dataset: Dataset) -> tuple[Dataset, dict]:
    """``algorithm.anonymize(dataset)``'s output and statistics, by the scalar loop."""
    attributes = algorithm.relational_attributes or relational_quasi_identifiers(dataset)
    attribute = algorithm.transaction_attribute or dataset.single_transaction_attribute()
    validate_k(algorithm.k, len(dataset), algorithm.name)
    clusters, helper = algorithm._initial_clusters(dataset, attributes)
    initial_clusters = len(clusters)
    outputs = [
        cluster_transactions(algorithm, dataset, cluster, attribute) for cluster in clusters
    ]
    merges = 0
    budget = algorithm.max_merges if algorithm.max_merges is not None else len(clusters)
    while len(clusters) > 1 and merges < budget:
        losses = [loss for _, loss in outputs]
        worst = max(range(len(clusters)), key=lambda position: losses[position])
        if losses[worst] <= algorithm.delta:
            break
        partner = best_partner(
            algorithm.merge_strategy, helper, dataset, attributes, attribute, clusters, worst
        )
        merged = sorted(clusters[worst] + clusters[partner])
        keep = [position for position in range(len(clusters)) if position not in (worst, partner)]
        clusters = [clusters[position] for position in keep] + [merged]
        outputs = [outputs[position] for position in keep] + [
            cluster_transactions(algorithm, dataset, merged, attribute)
        ]
        merges += 1

    anonymized = generalize_clusters_per_record(
        helper, dataset, clusters, attributes, name_suffix=algorithm.name
    )
    for cluster, (itemsets, _loss) in zip(clusters, outputs):
        for position, index in enumerate(cluster):
            anonymized.set_value(index, attribute, itemsets[position])
    statistics = {
        "initial_clusters": initial_clusters,
        "final_clusters": len(clusters),
        "merges": merges,
        "relational_gcp": global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=algorithm.hierarchies
        ),
        "transaction_ul": utility_loss(
            dataset, anonymized, attribute=attribute, hierarchy=algorithm.item_hierarchy
        ),
        "max_cluster_ul": max((loss for _, loss in outputs), default=0.0),
        "cluster_assignment": [list(cluster) for cluster in clusters],
    }
    return anonymized, statistics
