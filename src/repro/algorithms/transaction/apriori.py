"""Apriori-based k^m-anonymization of transactions (Terrovitis et al., VLDB J. 2011).

The *Apriori Anonymization* (AA) algorithm protects a set-valued attribute
against adversaries who know up to ``m`` items of an individual: every
combination of up to ``m`` items must match at least ``k`` transactions (or
none).  The algorithm explores combinations in Apriori fashion — first single
items, then pairs, and so on — and whenever a combination is supported by
fewer than ``k`` transactions it generalizes the participating items using
full-subtree global recoding over the item hierarchy.

If even full generalization cannot protect the data (fewer than ``k``
non-empty transactions), the remaining items are suppressed and the fact is
reported in the result statistics.
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


class AprioriAnonymizer(CutAnonymizer):
    """k^m-anonymity via apriori-style global full-subtree generalization."""

    name = "apriori"

    def __init__(
        self,
        k: int,
        m: int = 2,
        hierarchy: Hierarchy | None = None,
        attribute: str | None = None,
        hierarchy_fanout: int = 4,
    ):
        if k < 2:
            raise ConfigurationError("AprioriAnonymizer: k must be at least 2")
        if m < 1:
            raise ConfigurationError("AprioriAnonymizer: m must be at least 1")
        self.k = int(k)
        self.m = int(m)
        self.hierarchy = hierarchy
        self.attribute = attribute
        self.hierarchy_fanout = hierarchy_fanout

    def parameters(self) -> dict:
        return {"k": self.k, "m": self.m, "attribute": self.attribute}

    def _resolve_hierarchy(self, universe: set[str], attribute: str) -> Hierarchy:
        if self.hierarchy is not None:
            return self.hierarchy
        if not universe:
            raise AlgorithmError("AprioriAnonymizer: the transaction attribute is empty")
        return build_item_hierarchy(
            universe, fanout=self.hierarchy_fanout, attribute=attribute
        )

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        return self._anonymize_all(dataset)

    def _search(
        self, itemsets: list[frozenset], attribute: str, timer: PhaseTimer
    ) -> tuple[list[frozenset], list[ItemCut | None], Hierarchy, dict]:
        with timer.phase("hierarchy"):
            hierarchy = self._resolve_hierarchy(set().union(*itemsets), attribute)

        with timer.phase("apriori search"):
            cut, search_statistics = greedy_km_anonymize(itemsets, hierarchy, self.k, self.m)

        suppressed_everything = bool(search_statistics["unresolvable_violations"])
        outputs, cuts = self._generalize(itemsets, None if suppressed_everything else cut)
        statistics = {**search_statistics, "suppressed_everything": suppressed_everything}
        return outputs, cuts, hierarchy, statistics
