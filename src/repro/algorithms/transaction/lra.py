"""LRA: Local Recoding Anonymization for set-valued data (Terrovitis et al., VLDB J. 2011).

LRA trades some of the global-recoding simplicity of Apriori anonymization
for utility: the transactions are first partitioned into groups of similar
records, and each partition is k^m-anonymized *independently* with its own
generalization cut.  A popular item may therefore stay intact in one
partition while being generalized in another.

The union of independently k^m-anonymous partitions is itself k^m-anonymous:
for any combination of up to ``m`` items, each partition contributes either 0
or at least ``k`` candidate records, so the total is 0 or at least ``k``.
"""

from __future__ import annotations

from repro.algorithms.base import AnonymizationResult, PhaseTimer
from repro.algorithms.transaction._itemcut import (
    CutAnonymizer,
    ItemCut,
    greedy_km_anonymize,
)
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.builders import build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy


class LraAnonymizer(CutAnonymizer):
    """k^m-anonymity through per-partition (local) full-subtree recoding."""

    name = "lra"

    def __init__(
        self,
        k: int,
        m: int = 2,
        hierarchy: Hierarchy | None = None,
        attribute: str | None = None,
        partition_size: int | None = None,
        hierarchy_fanout: int = 4,
    ):
        if k < 2:
            raise ConfigurationError("LraAnonymizer: k must be at least 2")
        if m < 1:
            raise ConfigurationError("LraAnonymizer: m must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.hierarchy = hierarchy
        self.attribute = attribute
        #: Target number of records per partition; defaults to ``max(8k, 100)``
        #: which keeps partitions large enough that item combinations retain
        #: measurable support without destroying the locality benefit.
        self.partition_size = partition_size
        self.hierarchy_fanout = hierarchy_fanout

    def parameters(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "attribute": self.attribute,
            "partition_size": self.partition_size,
        }

    def _partition_size_target(self) -> int:
        """Records per partition: the configured size (or default), at least ``k``."""
        return max(self.partition_size or max(8 * self.k, 100), self.k)

    def _partition(self, itemsets: list[frozenset]) -> list[list[int]]:
        """Group row positions into similarity-sorted partitions of bounded size."""
        size = self._partition_size_target()
        # Sort records by their sorted itemsets so that neighbouring records
        # share items (the "horizontal partitioning" of the paper).
        order = sorted(range(len(itemsets)), key=lambda index: sorted(itemsets[index]))
        partitions = [order[i : i + size] for i in range(0, len(order), size)]
        if len(partitions) > 1 and len(partitions[-1]) < self.k:
            tail = partitions.pop()
            partitions[-1].extend(tail)
        return partitions

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        return self._anonymize_all(dataset)

    def _search(
        self, itemsets: list[frozenset], attribute: str, timer: PhaseTimer
    ) -> tuple[list[frozenset], list[ItemCut | None], Hierarchy, dict]:
        universe = set().union(*itemsets)
        if not universe:
            raise AlgorithmError("LraAnonymizer: the transaction attribute is empty")
        with timer.phase("hierarchy"):
            hierarchy = self.hierarchy or build_item_hierarchy(
                universe, fanout=self.hierarchy_fanout, attribute=attribute
            )

        with timer.phase("partitioning"):
            partitions = self._partition(itemsets)

        outputs: list[frozenset] = list(itemsets)
        cuts: list[ItemCut | None] = [None] * len(itemsets)
        generalization_steps = 0
        suppressed_partitions = 0
        with timer.phase("local recoding"):
            for partition in partitions:
                members = [itemsets[index] for index in partition]
                cut, statistics = greedy_km_anonymize(members, hierarchy, self.k, self.m)
                generalization_steps += statistics["generalization_steps"]
                suppressed = bool(statistics["unresolvable_violations"])
                suppressed_partitions += int(suppressed)
                images, member_cuts = self._generalize(members, None if suppressed else cut)
                for index, image, member_cut in zip(partition, images, member_cuts):
                    outputs[index] = image
                    cuts[index] = member_cut

        statistics = {
            "partitions": len(partitions),
            "partition_size_target": self._partition_size_target(),
            "generalization_steps": generalization_steps,
            "suppressed_partitions": suppressed_partitions,
        }
        return outputs, cuts, hierarchy, statistics
