"""Bounding methods for anonymizing RT-datasets (Poulis et al., ECML/PKDD 2013).

An RT-dataset mixes relational attributes (protected through k-anonymity) and
a transaction attribute (protected through k^m-anonymity).  SECRETA combines
one algorithm of each kind through a *bounding method*:

1. the relational algorithm forms equivalence classes (clusters) of at least
   ``k`` records,
2. the transaction algorithm anonymizes the transaction projection of every
   cluster so that, within the cluster, any combination of up to ``m`` items
   matches at least ``k`` records — together this yields (k, k^m)-anonymity,
3. clusters whose transaction part would have to be destroyed to reach the
   guarantee (utility loss above the threshold ``δ``) are *merged* with other
   clusters and re-anonymized.  The three bounding methods differ in how the
   merge partner is chosen:

   * **Rmerger** — the partner that increases the relational information loss
     the least (favours relational utility),
   * **Tmerger** — the partner whose transactions are most similar (favours
     transaction utility),
   * **RTmerger** — the partner with the best balanced combination of both.

SECRETA exposes 20 relational×transaction algorithm combinations, each usable
with any of the three bounding methods.
"""

from __future__ import annotations

import weakref
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    validate_k,
)
from repro.algorithms.relational.cluster import ClusterAnonymizer
from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.columnar import popcount_rows, posting_matrix
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.metrics.transaction import utility_loss

#: A factory producing a configured transaction anonymizer; it is called once
#: per :meth:`RtBoundingAnonymizer.anonymize`, with the whole dataset.
TransactionFactory = Callable[[Dataset], Anonymizer]


class _NodeCodes:
    """Integer codes of a hierarchy's nodes and the tables the merge kernel gathers.

    ``ancestors[c, d]`` is the code of node ``c``'s ancestor at depth ``d``
    (``c`` itself at its own depth, -1 below it).  Two root paths agree on a
    prefix, so the depth of a lowest common ancestor is the number of
    agreeing columns minus one.
    """

    __slots__ = ("code", "depth", "ancestors", "leaf_count")

    def __init__(self, hierarchy: Hierarchy):
        nodes = list(hierarchy.iter_nodes())  # pre-order: parents first
        self.code = {node.label: code for code, node in enumerate(nodes)}
        self.depth = np.array([node.depth for node in nodes], dtype=np.int64)
        self.ancestors = np.full((len(nodes), hierarchy.height + 1), -1, dtype=np.int64)
        for code, node in enumerate(nodes):
            if node.parent is not None:
                self.ancestors[code] = self.ancestors[self.code[node.parent.label]]
            self.ancestors[code, node.depth] = code
        self.leaf_count = np.array(
            [hierarchy.leaf_count(node.label) for node in nodes], dtype=np.int64
        )

    def encode(self, hierarchy: Hierarchy, label: str) -> int:
        # hierarchy.node raises the HierarchyError an LCA lookup would.
        return self.code[hierarchy.node(label).label]

    def lowest_common_ancestors(self, codes: np.ndarray, other: int) -> np.ndarray:
        """The LCA of ``other`` with each node of ``codes``, as codes."""
        depth = int(self.depth[other])
        path = self.ancestors[other, : depth + 1]
        agreeing = (self.ancestors[codes, : depth + 1] == path).sum(axis=1)
        return path[agreeing - 1]


_NODE_CODES: "weakref.WeakKeyDictionary[Hierarchy, _NodeCodes]" = weakref.WeakKeyDictionary()


def _node_codes(hierarchy: Hierarchy) -> _NodeCodes:
    codes = _NODE_CODES.get(hierarchy)
    if codes is None:
        codes = _NODE_CODES[hierarchy] = _NodeCodes(hierarchy)
    return codes


class _MergeState:
    """Incrementally maintained per-cluster summaries for the merge phase.

    Per cluster the state keeps exactly what the merge score needs — numeric
    lo/hi vectors, categorical distinct-value bitsets (plus the integer code
    of the running LCA node for hierarchy-scored attributes), and transaction
    item bitsets — so scoring the worst cluster against *all* partners is one
    vectorized pass (``fmin``/``fmax`` widening, OR + popcount, one gather for
    the merged LCAs and their leaf counts).

    Summaries live in fixed *slots*; ``_slots`` maps each cluster position to
    its slot.  A merge ORs the partner's summary into the worst cluster's
    slot in place and reorders ``_slots`` to ``keep + [merged]`` — the order
    the bounding loop keeps its cluster list in, which decides ``argmin``
    ties.  Retired slots are still scored but never read.  Scores equal the
    scalar re-scan's (``tests/property/rt_reference.py``): the same
    operations run in the same attribute order, and the LCA of a merged
    value set equals the LCA of the two clusters' LCA nodes.
    """

    def __init__(
        self,
        strategy: str,
        helper: ClusterAnonymizer,
        dataset: Dataset,
        attributes: Sequence[str],
        attribute: str,
        clusters: Sequence[Sequence[int]],
    ):
        self._strategy = strategy
        self._attributes = list(attributes)
        self._n_attributes = max(len(self._attributes), 1)
        n = len(clusters)
        #: cluster position -> slot of its summaries
        self._slots = list(range(n))
        self._capacity = n
        #: record index -> cluster position, used to scatter per-record
        #: occurrences into per-cluster bitsets.
        membership = np.empty(len(dataset), dtype=np.int64)
        for position, cluster in enumerate(clusters):
            membership[np.asarray(cluster, dtype=np.int64)] = position

        #: ("num", span, lo, hi) / ("cat", denominator, bits, node codes,
        #: LCA code per slot) per contributing attribute, in order.
        self._relational: list[tuple] = []
        if strategy in ("r", "rt"):
            for name in self._attributes:
                if name in helper._numeric:
                    span = helper._domain_span[name]
                    if span <= 0:
                        continue
                    numbers = dataset.columnar(name).numbers
                    lo = np.full(n, np.inf)
                    hi = np.full(n, -np.inf)
                    for position, cluster in enumerate(clusters):
                        values = numbers[np.asarray(cluster, dtype=np.int64)]
                        lo[position] = np.fmin.reduce(values, initial=np.inf)
                        hi[position] = np.fmax.reduce(values, initial=-np.inf)
                    self._relational.append(("num", span, lo, hi))
                else:
                    size = helper._domain_size[name]
                    if size <= 1:
                        continue
                    cells, labels = dataset.columnar(name).string_codes()
                    present = cells < len(labels)
                    bits = posting_matrix(membership[present], cells[present], n, len(labels))
                    hierarchy = helper.hierarchies.get(name)
                    codes: _NodeCodes | None = None
                    reps: np.ndarray | None = None
                    if hierarchy is not None:
                        codes = _node_codes(hierarchy)
                        reps = np.full(n, -1, dtype=np.int64)
                        for position, cluster in enumerate(clusters):
                            indices = np.asarray(cluster, dtype=np.int64)
                            distinct = [
                                labels[c] for c in np.unique(cells[indices]) if c < len(labels)
                            ]
                            if len(distinct) == 1:
                                reps[position] = codes.encode(hierarchy, distinct[0])
                            elif distinct:
                                reps[position] = codes.encode(
                                    hierarchy, hierarchy.lowest_common_ancestor(distinct)
                                )
                    self._relational.append(("cat", max(size - 1, 1), bits, codes, reps))
        self._transaction_bits: np.ndarray | None = None
        if strategy in ("t", "rt"):
            column = dataset.columnar(attribute)
            self._transaction_bits = posting_matrix(
                membership[column.record_ids()],
                column.tokens,
                n,
                len(column.vocabulary),
            )

    # -- scoring -------------------------------------------------------------------
    @staticmethod
    def _merged_reps(codes: _NodeCodes, reps: np.ndarray, slot: int) -> np.ndarray:
        """Per slot, the LCA code of its values merged with ``slot``'s (-1: no value)."""
        rep = int(reps[slot])
        if rep < 0:
            return reps
        return np.where(reps < 0, rep, codes.lowest_common_ancestors(reps, rep))

    def relational_scores(self, slot: int) -> np.ndarray:
        """Per slot, the bounding-generalization NCP of merging it with ``slot``."""
        cost = np.zeros(self._capacity)
        for spec in self._relational:
            if spec[0] == "num":
                _, span, lo, hi = spec
                width = np.maximum(hi, hi[slot]) - np.minimum(lo, lo[slot])
                cost += np.maximum(width, 0.0) / span
            else:
                _, denominator, bits, codes, reps = spec
                counts = popcount_rows(bits | bits[slot])
                width = counts.astype(np.float64)
                if codes is not None:
                    merged = self._merged_reps(codes, reps, slot)
                    width = np.where(counts > 1, codes.leaf_count[merged], width)
                cost += (width - 1.0) / denominator
        return cost / self._n_attributes

    def transaction_scores(self, slot: int) -> np.ndarray:
        """Per slot, the Jaccard distance of its item set to ``slot``'s."""
        bits = self._transaction_bits
        intersection = popcount_rows(bits & bits[slot])
        union = popcount_rows(bits | bits[slot])
        cost = np.zeros(len(bits))
        covered = union > 0
        cost[covered] = 1.0 - intersection[covered] / union[covered]
        return cost

    def best_partner(self, worst: int) -> int:
        """The cheapest merge partner's position under the bounding method's strategy."""
        slot = self._slots[worst]
        if self._strategy == "r":
            scores = self.relational_scores(slot)
        elif self._strategy == "t":
            scores = self.transaction_scores(slot)
        else:
            scores = 0.5 * self.relational_scores(slot) + 0.5 * self.transaction_scores(slot)
        scores = scores[self._slots]
        scores[worst] = np.inf
        return int(np.argmin(scores))

    # -- update --------------------------------------------------------------------
    def merge(self, worst: int, partner: int) -> None:
        """Fold ``partner`` into ``worst``'s slot; positions become ``keep + [merged]``."""
        slot, other = self._slots[worst], self._slots[partner]
        for spec in self._relational:
            if spec[0] == "num":
                _, _, lo, hi = spec
                lo[slot] = min(lo[slot], lo[other])
                hi[slot] = max(hi[slot], hi[other])
            else:
                _, _, bits, codes, reps = spec
                if codes is not None and reps[other] >= 0:
                    if reps[slot] < 0:
                        reps[slot] = reps[other]
                    else:
                        reps[slot] = codes.lowest_common_ancestors(
                            reps[other : other + 1], int(reps[slot])
                        )[0]
                bits[slot] |= bits[other]
        if self._transaction_bits is not None:
            self._transaction_bits[slot] |= self._transaction_bits[other]
        for position in sorted((worst, partner), reverse=True):
            del self._slots[position]
        self._slots.append(slot)


class RtBoundingAnonymizer(Anonymizer):
    """Base class of the three bounding methods (see module docstring)."""

    name = "rt-bounding"
    data_kind = "rt"
    #: Merge-partner policy: ``"r"``, ``"t"`` or ``"rt"`` (set by subclasses).
    merge_strategy = "rt"

    def __init__(
        self,
        k: int,
        m: int = 2,
        delta: float = 0.5,
        relational_algorithm: Anonymizer | None = None,
        transaction_factory: TransactionFactory | None = None,
        hierarchies: Mapping[str, Hierarchy] | None = None,
        item_hierarchy: Hierarchy | None = None,
        relational_attributes: Sequence[str] | None = None,
        transaction_attribute: str | None = None,
        max_merges: int | None = None,
    ):
        if not 0 <= delta <= 1:
            raise ConfigurationError("delta must lie in [0, 1]")
        if m < 1:
            raise ConfigurationError("m must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.delta = float(delta)
        self.relational_algorithm = relational_algorithm
        self.transaction_factory = transaction_factory
        self.hierarchies = dict(hierarchies or {})
        self.item_hierarchy = item_hierarchy
        self.relational_attributes = (
            list(relational_attributes) if relational_attributes is not None else None
        )
        self.transaction_attribute = transaction_attribute
        self.max_merges = max_merges

    def parameters(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "delta": self.delta,
            "relational_algorithm": getattr(self.relational_algorithm, "name", "cluster"),
            "bounding": self.name,
        }

    # -- phase 1: relational clustering -------------------------------------------
    def _initial_clusters(
        self, dataset: Dataset, attributes: Sequence[str]
    ) -> tuple[list[list[int]], ClusterAnonymizer]:
        """Clusters of at least k records plus the helper used to generalize them."""
        helper = ClusterAnonymizer(self.k, self.hierarchies, attributes=list(attributes))
        algorithm = self.relational_algorithm
        if algorithm is None or isinstance(algorithm, ClusterAnonymizer):
            if isinstance(algorithm, ClusterAnonymizer):
                helper = algorithm
            clusters = helper.build_clusters(dataset, attributes)
            return clusters, helper
        # Any other relational algorithm: run it and use the equivalence
        # classes of its output as the initial clusters.
        result = algorithm.anonymize(dataset)
        groups = result.dataset.group_by(list(attributes))
        clusters = [sorted(indices) for indices in groups.values()]
        helper._prepare(dataset, list(attributes))
        return clusters, helper

    # -- phase 2: per-cluster transaction anonymization -----------------------------
    def _default_transaction_factory(self) -> TransactionFactory:
        def factory(_dataset: Dataset) -> Anonymizer:
            return AprioriAnonymizer(
                self.k, self.m, hierarchy=self.item_hierarchy, attribute=self.transaction_attribute
            )

        return factory

    # -- main -----------------------------------------------------------------------
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.relational_attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(f"{self.name}: the dataset has no relational quasi-identifiers")
        attribute = self.transaction_attribute or dataset.single_transaction_attribute()
        validate_k(self.k, len(dataset), self.name)
        factory = self.transaction_factory or self._default_transaction_factory()

        timer = PhaseTimer()
        with timer.phase("relational clustering"):
            clusters, helper = self._initial_clusters(dataset, attributes)
        initial_clusters = len(clusters)

        algorithm = factory(dataset)

        def anonymize_cluster(cluster: Sequence[int]) -> tuple[list, float]:
            return algorithm.anonymize_rows(dataset, cluster, self.item_hierarchy, attribute)

        with timer.phase("transaction anonymization"):
            outputs = [anonymize_cluster(cluster) for cluster in clusters]

        merges = 0
        merge_budget = self.max_merges if self.max_merges is not None else len(clusters)
        state: _MergeState | None = None
        losses = [loss for _, loss in outputs]
        with timer.phase("cluster merging"):
            while len(clusters) > 1 and merges < merge_budget:
                worst_loss = max(losses)
                if worst_loss <= self.delta:
                    break
                worst = losses.index(worst_loss)  # the first worst cluster
                if state is None:
                    state = _MergeState(
                        self.merge_strategy, helper, dataset, attributes, attribute, clusters
                    )
                partner = state.best_partner(worst)
                merged_cluster = sorted(clusters[worst] + clusters[partner])
                # The other clusters keep their order; the merged one goes last.
                for position in sorted((worst, partner), reverse=True):
                    del clusters[position], outputs[position], losses[position]
                clusters.append(merged_cluster)
                outputs.append(anonymize_cluster(merged_cluster))
                losses.append(outputs[-1][1])
                state.merge(worst, partner)
                merges += 1

        with timer.phase("apply"):
            anonymized = helper.generalize_clusters(
                dataset, clusters, attributes, name_suffix=self.name
            )
            column = dataset.column(attribute)
            for cluster, (itemsets, _loss) in zip(clusters, outputs):
                for index, itemset in zip(cluster, itemsets):
                    column[index] = itemset
            anonymized.set_column(attribute, column)

        relational_gcp = global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=self.hierarchies
        )
        transaction_ul = utility_loss(
            dataset, anonymized, attribute=attribute, hierarchy=self.item_hierarchy
        )
        statistics = {
            "initial_clusters": initial_clusters,
            "final_clusters": len(clusters),
            "merges": merges,
            "relational_gcp": relational_gcp,
            "transaction_ul": transaction_ul,
            "max_cluster_ul": max((loss for _, loss in outputs), default=0.0),
            "cluster_assignment": [list(cluster) for cluster in clusters],
        }
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics=statistics,
        )


class Rmerger(RtBoundingAnonymizer):
    """Merge partners are chosen to preserve relational utility."""

    name = "rmerger"
    merge_strategy = "r"


class Tmerger(RtBoundingAnonymizer):
    """Merge partners are chosen to preserve transaction utility."""

    name = "tmerger"
    merge_strategy = "t"


class RTmerger(RtBoundingAnonymizer):
    """Merge partners balance relational and transaction utility."""

    name = "rtmerger"
    merge_strategy = "rt"
