"""Shared machinery for hierarchy-based k^m-anonymization of transactions.

The three hierarchy-based transaction algorithms (Apriori, LRA, VPA —
Terrovitis, Mamoulis, Kalnis, VLDB J. 2011) all transform data by maintaining
a *cut* of the item generalization hierarchy: a mapping from every original
item to one of its ancestors.  Promoting a cut node replaces its whole
sibling group by the parent, so the mapped nodes partition the item universe
(full-subtree generalization).

:func:`greedy_km_anonymize` searches for a k^m-anonymous cut greedily: for
each combination size from 1 to ``m`` it promotes the cut node involved in
the most violating combinations until none is left.  It keeps one row-posting
bitset per cut node (a Python ``int`` over the call's rows: bit ``r`` is set
when row ``r`` holds an item mapped to the node), so the support of a node is
``bit_count()`` of its posting and the support of a pair is ``bit_count()``
of the AND of two postings; sizes 1 and 2 never generalize a transaction.
Pair violations are kept across promotions: a promotion drops the pairs of
the nodes it changed and recounts only those nodes against the other cut
nodes, since every other posting is unchanged.  Combinations of three or
more nodes are collected from the generalized transactions and counted by
ANDing their postings.  Once the cut is final, callers map each distinct
itemset through it once (:meth:`ItemCut.generalization_map`).

The hierarchy's parent, subtree-leaf and tie-break rank tables are built on
first use and memoized per :class:`~repro.hierarchy.hierarchy.Hierarchy`.
:class:`KmAnonymityChecker` is the plain per-transaction reference check the
search is tested against.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Sequence

from repro.exceptions import AlgorithmError
from repro.hierarchy.hierarchy import Hierarchy


class _HierarchyTables:
    """Flat lookups the cut search reads on every promotion."""

    __slots__ = ("root", "parent", "leaves", "rank")

    def __init__(self, hierarchy: Hierarchy):
        nodes = list(hierarchy.iter_nodes())
        self.root = hierarchy.root.label
        #: node label -> parent label (``None`` for the root)
        self.parent: dict[str, str | None] = {
            node.label: None if node.parent is None else node.parent.label for node in nodes
        }
        #: node label -> the leaf labels of its subtree
        self.leaves: dict[str, tuple[str, ...]] = {}
        for node in reversed(nodes):  # pre-order reversed: children before parents
            self.leaves[node.label] = (
                (node.label,)
                if node.is_leaf
                else tuple(leaf for child in node.children for leaf in self.leaves[child.label])
            )
        #: node label -> tie-break rank among equally scored promotion
        #: targets: the most specific (lowest-level) node wins, then the
        #: largest label
        ordered = sorted(nodes, key=lambda node: (node.depth, node.label))
        self.rank: dict[str, int] = {node.label: rank for rank, node in enumerate(ordered)}


_TABLES: "weakref.WeakKeyDictionary[Hierarchy, _HierarchyTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables(hierarchy: Hierarchy) -> _HierarchyTables:
    tables = _TABLES.get(hierarchy)
    if tables is None:
        tables = _TABLES[hierarchy] = _HierarchyTables(hierarchy)
    return tables


class ItemCut:
    """A full-subtree generalization cut over an item hierarchy.

    The cut carries a ``version`` counter that increments on every mutation,
    so callers can tell whether a cut changed.  Cut nodes are always
    hierarchy nodes (never item-group labels); a promotion moves exactly the
    cut's items that are leaves under the new node.
    """

    def __init__(self, hierarchy: Hierarchy, items: Iterable[str]):
        self.hierarchy = hierarchy
        self.items = sorted({str(item) for item in items})
        missing = [item for item in self.items if item not in hierarchy]
        if missing:
            raise AlgorithmError(
                f"items {missing[:5]} are not covered by the item hierarchy"
            )
        # A cut partitions the hierarchy's leaves; an internal label as an
        # item would make promotions miss it, and the search never ends.
        internal = [item for item in self.items if not hierarchy.is_leaf(item)]
        if internal:
            raise AlgorithmError(
                f"items {internal[:5]} are internal nodes of the item "
                f"hierarchy, not leaves"
            )
        #: original item -> current cut node label
        self.mapping: dict[str, str] = {item: item for item in self.items}
        #: incremented on every mutation
        self.version = 0

    # -- queries -------------------------------------------------------------
    @property
    def nodes(self) -> set[str]:
        """The distinct cut nodes currently in use."""
        return set(self.mapping.values())

    def image(self, item: str) -> str:
        return self.mapping[str(item)]

    def generalize_itemset(self, itemset: Iterable[str]) -> frozenset[str]:
        """Map an original itemset to its generalized representation."""
        return frozenset(self.mapping[str(item)] for item in itemset)

    def generalization_map(self, itemsets: Iterable[frozenset]) -> dict[frozenset, frozenset[str]]:
        """Each distinct itemset mapped to its generalized representation."""
        return {itemset: self.generalize_itemset(itemset) for itemset in set(itemsets)}

    def is_fully_generalized(self) -> bool:
        return self.nodes == {self.hierarchy.root.label}

    # -- transformation -------------------------------------------------------
    def generalize_node(self, node: str) -> str:
        """Replace ``node`` (and every cut node under the same parent) by the parent.

        Promoting the whole sibling group keeps the cut a partition of the
        item universe, which the k^m-anonymity check relies on.
        """
        return self._promote(node)[0]

    def _promote(self, node: str) -> tuple[str, list[tuple[str, str]]]:
        """Promote like :meth:`generalize_node`; also return ``(item, old node)`` moves."""
        parent = self.hierarchy.parent(node)
        if parent is None:
            return node, []
        mapping = self.mapping
        moved = []
        for item in _tables(self.hierarchy).leaves[parent]:
            current = mapping.get(item)
            if current is not None and current != parent:
                moved.append((item, current))
                mapping[item] = parent
        self.version += 1
        return parent, moved

    def copy(self) -> "ItemCut":
        clone = ItemCut.__new__(ItemCut)
        clone.hierarchy = self.hierarchy
        clone.items = list(self.items)
        clone.mapping = dict(self.mapping)
        clone.version = self.version
        return clone


class KmAnonymityChecker:
    """Finds combinations of at most ``m`` cut nodes with support below ``k``.

    Counts combinations transaction by transaction; this is the reference
    :func:`greedy_km_anonymize` is tested against, not a search path.
    """

    def __init__(self, itemsets: Sequence[frozenset], k: int, m: int):
        _check_parameters(k, m)
        self.itemsets = list(itemsets)
        self.k = k
        self.m = m

    def combination_supports(
        self, cut: ItemCut, size: int
    ) -> dict[tuple[str, ...], int]:
        """Support of every node combination of exactly ``size`` that occurs."""
        supports: dict[tuple[str, ...], int] = {}
        for itemset in self.itemsets:
            generalized = sorted(cut.generalize_itemset(itemset))
            for combination in itertools.combinations(generalized, size):
                supports[combination] = supports.get(combination, 0) + 1
        return supports

    def violations(
        self, cut: ItemCut, size: int
    ) -> dict[tuple[str, ...], int]:
        """Node combinations of ``size`` with support in (0, k)."""
        return {
            combination: support
            for combination, support in self.combination_supports(cut, size).items()
            if 0 < support < self.k
        }

    def all_violations(self, cut: ItemCut) -> dict[tuple[str, ...], int]:
        """Violating combinations of every size from 1 to ``m``."""
        result: dict[tuple[str, ...], int] = {}
        for size in range(1, self.m + 1):
            result.update(self.violations(cut, size))
        return result

    def is_km_anonymous(self, cut: ItemCut) -> bool:
        return not self.all_violations(cut)


def _check_parameters(k: int, m: int) -> None:
    if k < 2:
        raise AlgorithmError("k must be at least 2")
    if m < 1:
        raise AlgorithmError("m must be at least 1")


class _CutSearch:
    """Violation bookkeeping of one cut over one call's rows.

    ``members`` groups every item of the cut by its cut node and ``postings``
    holds the row bitset of each cut node that occurs in some row.
    ``singles`` and ``pairs`` hold the violating nodes and node pairs with
    their supports; ``pairs`` is built when the search reaches size 2 and is
    keyed in label order, like ``itertools.combinations`` of sorted labels.
    """

    def __init__(
        self, cut: ItemCut, itemsets: Sequence[frozenset], item_postings: dict[str, int], k: int
    ):
        self.cut = cut
        self.itemsets = itemsets
        self.item_postings = item_postings
        self.k = k
        self.tables = _tables(cut.hierarchy)
        self.members: dict[str, set[str]] = {}
        for item, node in cut.mapping.items():
            self.members.setdefault(node, set()).add(item)
        self.postings: dict[str, int] = {}
        self.singles: dict[str, int] = {}
        for node in self.members:
            self._recount(node)
        self.pairs: dict[tuple[str, str], int] | None = None

    def _recount(self, node: str) -> None:
        posting = 0
        for item in self.members[node]:
            posting |= self.item_postings.get(item, 0)
        self.singles.pop(node, None)
        if posting:
            self.postings[node] = posting
            support = posting.bit_count()
            if support < self.k:
                self.singles[node] = support
        else:
            self.postings.pop(node, None)

    def _pair_violations(
        self, pairs: dict[tuple[str, str], int], node: str, others: Iterable[str]
    ) -> None:
        """Record in ``pairs`` the violating pairs of ``node`` with each of ``others``."""
        posting = self.postings[node]
        postings = self.postings
        k = self.k
        for other in others:
            support = (posting & postings[other]).bit_count()
            if 0 < support < k:
                pairs[(node, other) if node < other else (other, node)] = support

    def fully_generalized(self) -> bool:
        return len(self.members) == 1 and self.tables.root in self.members

    def violations(self, size: int) -> dict[tuple[str, ...], int]:
        """Combinations of ``size`` cut nodes with support in (0, k)."""
        if size == 1:
            return {(node,): support for node, support in self.singles.items()}
        if size == 2:
            if self.pairs is None:
                self.pairs = {}
                nodes = list(self.postings)
                for position, node in enumerate(nodes):
                    self._pair_violations(self.pairs, node, nodes[position + 1 :])
            return self.pairs
        mapping = self.cut.mapping
        occurring: set[tuple[str, ...]] = set()
        for itemset in self.itemsets:
            generalized = sorted({mapping[str(item)] for item in itemset})
            occurring.update(itertools.combinations(generalized, size))
        result: dict[tuple[str, ...], int] = {}
        for combination in occurring:
            posting = self.postings[combination[0]]
            for node in combination[1:]:
                posting &= self.postings[node]
            support = posting.bit_count()
            if support < self.k:
                result[combination] = support
        return result

    def target(self, size: int) -> str | None:
        """The next node to promote for ``size``, or ``None`` if no violation can be fixed.

        The node in the most violations wins; ties go to the most specific
        node, then to the largest label.
        """
        parent, rank = self.tables.parent, self.tables.rank
        if size == 1:  # every violating node scores 1
            promotable = [node for node in self.singles if parent[node] is not None]
            return max(promotable, key=rank.__getitem__) if promotable else None
        scores: dict[str, int] = {}
        for combination in self.violations(size):
            for node in combination:
                scores[node] = scores.get(node, 0) + 1
        promotable_scores = {
            node: score for node, score in scores.items() if parent[node] is not None
        }
        if not promotable_scores:
            return None
        best = max(promotable_scores.values())
        return max(
            (node for node, score in promotable_scores.items() if score == best),
            key=rank.__getitem__,
        )

    def promote(self, node: str) -> None:
        """Promote ``node``'s sibling group; recount only the nodes it changed."""
        parent, moved = self.cut._promote(node)
        members, postings = self.members, self.postings
        changed = {parent}
        for item, old in moved:
            members[old].discard(item)
            changed.add(old)
        members.setdefault(parent, set()).update(item for item, _ in moved)
        for changed_node in changed:
            self._recount(changed_node)
            if not members[changed_node]:  # the node left the cut
                del members[changed_node]
        if self.pairs is None:
            return
        pairs = {
            pair: support
            for pair, support in self.pairs.items()
            if pair[0] not in changed and pair[1] not in changed
        }
        recounted: set[str] = set()
        for changed_node in changed:
            if changed_node in postings:
                recounted.add(changed_node)
                self._pair_violations(
                    pairs, changed_node, [other for other in postings if other not in recounted]
                )
        self.pairs = pairs


def greedy_km_anonymize(
    itemsets: Sequence[frozenset],
    hierarchy: Hierarchy,
    k: int,
    m: int,
    cut: ItemCut | None = None,
) -> tuple[ItemCut, dict]:
    """Greedy full-subtree generalization until k^m-anonymity holds.

    Violating combinations are collected by increasing size, mirroring the
    Apriori algorithm's candidate generation, and the cut node participating
    in the most violations is promoted to its parent, until no violation
    remains.  A passed-in ``cut`` is extended in place and must cover every
    item of ``itemsets``.  Returns the final cut and statistics about the
    search.

    If the transactions cannot be protected even by generalizing everything to
    the hierarchy root (fewer than ``k`` non-empty transactions), the cut is
    returned fully generalized and the caller decides whether to suppress.
    """
    _check_parameters(k, m)
    item_postings: dict[str, int] = {}
    bit = 1
    for itemset in itemsets:
        for item in itemset:
            item = str(item)
            item_postings[item] = item_postings.get(item, 0) | bit
        bit <<= 1
    if cut is None:
        cut = ItemCut(hierarchy, item_postings)
    else:
        missing = sorted(item for item in item_postings if item not in cut.mapping)
        if missing:
            raise AlgorithmError(f"items {missing[:5]} are not covered by the item cut")
    search = _CutSearch(cut, itemsets, item_postings, k)

    generalization_steps = 0
    for size in range(1, m + 1):
        while not search.fully_generalized():
            target = search.target(size)
            if target is None:
                # No violation left, or every violating node is already the
                # hierarchy root (too few non-empty transactions).
                break
            search.promote(target)
            generalization_steps += 1

    statistics = {
        "generalization_steps": generalization_steps,
        "final_nodes": len(search.members),
        "fully_generalized": search.fully_generalized(),
        "unresolvable_violations": sum(
            len(search.violations(size)) for size in range(1, m + 1)
        ),
    }
    return cut, statistics
