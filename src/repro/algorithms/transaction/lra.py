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

from repro.algorithms.base import AnonymizationResult, Anonymizer, PhaseTimer
from repro.algorithms.transaction._itemcut import greedy_km_anonymize
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError, ConfigurationError
from repro.hierarchy.builders import build_item_hierarchy
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.transaction import utility_loss


class LraAnonymizer(Anonymizer):
    """k^m-anonymity through per-partition (local) full-subtree recoding."""

    name = "lra"
    data_kind = "transaction"

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

    def _partition(self, dataset: Dataset, attribute: str) -> list[list[int]]:
        """Group records into similarity-sorted partitions of bounded size."""
        size = self._partition_size_target()
        # Sort records by their sorted itemsets so that neighbouring records
        # share items (the "horizontal partitioning" of the paper).
        order = sorted(
            range(len(dataset)), key=lambda index: sorted(dataset[index][attribute])
        )
        partitions = [order[i : i + size] for i in range(0, len(order), size)]
        if len(partitions) > 1 and len(partitions[-1]) < self.k:
            tail = partitions.pop()
            partitions[-1].extend(tail)
        return partitions

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attribute = self.attribute or dataset.single_transaction_attribute()
        timer = PhaseTimer()
        universe = dataset.item_universe(attribute)
        if not universe:
            raise AlgorithmError("LraAnonymizer: the transaction attribute is empty")
        with timer.phase("hierarchy"):
            hierarchy = self.hierarchy or build_item_hierarchy(
                universe, fanout=self.hierarchy_fanout, attribute=attribute
            )

        with timer.phase("partitioning"):
            partitions = self._partition(dataset, attribute)

        anonymized = dataset.copy(name=f"{dataset.name}[lra]")
        original = dataset.column(attribute)
        column = list(original)
        generalization_steps = 0
        suppressed_partitions = 0
        with timer.phase("local recoding"):
            for partition in partitions:
                itemsets = [original[index] for index in partition]
                cut, statistics = greedy_km_anonymize(itemsets, hierarchy, self.k, self.m)
                generalization_steps += statistics["generalization_steps"]
                if statistics["unresolvable_violations"]:
                    suppressed_partitions += 1
                    for index in partition:
                        column[index] = frozenset()
                    continue
                images = cut.generalization_map(itemsets)
                for index in partition:
                    column[index] = images[original[index]]
            anonymized.set_column(attribute, column)

        statistics = {
            "partitions": len(partitions),
            "partition_size_target": self._partition_size_target(),
            "generalization_steps": generalization_steps,
            "suppressed_partitions": suppressed_partitions,
            "utility_loss": utility_loss(
                dataset, anonymized, attribute=attribute, hierarchy=hierarchy
            ),
        }
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics=statistics,
        )
