"""Property tests: the incremental item-cut search equals the plain greedy loop.

:func:`greedy_km_anonymize` keeps one row-posting bitset per cut node and, on
every promotion, recounts only the nodes the promotion changed.  The reference
below is the loop it replaced: every step re-derives the violations of the
current size from scratch with :class:`KmAnonymityChecker`, which generalizes
every transaction, and every promotion re-walks the hierarchy.  Both must
return the same mapping, statistics and ``version``, with and without a
passed-in cut, for m in {1, 2, 3} and fanouts 2-4.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transaction._itemcut import (
    ItemCut,
    KmAnonymityChecker,
    greedy_km_anonymize,
)
from repro.hierarchy import build_item_hierarchy

ITEMS = [f"i{n:02d}" for n in range(14)]


class ReferenceCut:
    """A cut as a plain mapping; a promotion re-reads the parent's leaves."""

    def __init__(self, hierarchy, mapping, version):
        self.hierarchy = hierarchy
        self.mapping = dict(mapping)
        self.version = version

    def generalize_itemset(self, itemset):
        return frozenset(self.mapping[str(item)] for item in itemset)

    def promote(self, node):
        parent = self.hierarchy.parent(node)
        leaves = set(self.hierarchy.leaves(parent))
        for item in self.mapping:
            if item in leaves:
                self.mapping[item] = parent
        self.version += 1

    def nodes(self):
        return set(self.mapping.values())


def reference_greedy_km_anonymize(itemsets, hierarchy, k, m, cut=None):
    """The greedy search recomputing every violation from the transactions."""
    if cut is None:
        universe = sorted({str(item) for itemset in itemsets for item in itemset})
        cut = ReferenceCut(hierarchy, {item: item for item in universe}, 0)
    checker = KmAnonymityChecker(itemsets, k, m)
    root = {hierarchy.root.label}
    steps = 0
    for size in range(1, m + 1):
        while True:
            violations = checker.violations(cut, size)
            if not violations or cut.nodes() == root:
                break
            scores: dict[str, int] = {}
            for combination in violations:
                for node in combination:
                    scores[node] = scores.get(node, 0) + 1
            promotable = {
                node: score
                for node, score in scores.items()
                if hierarchy.parent(node) is not None
            }
            if not promotable:
                break
            target = max(
                promotable,
                key=lambda node: (promotable[node], -hierarchy.level(node), node),
            )
            cut.promote(target)
            steps += 1
    statistics = {
        "generalization_steps": steps,
        "final_nodes": len(cut.nodes()),
        "fully_generalized": cut.nodes() == root,
        "unresolvable_violations": len(checker.all_violations(cut)),
    }
    return cut, statistics


@st.composite
def searches(draw):
    """A hierarchy, transactions, k, m and an optional pre-promoted cut."""
    n_items = draw(st.integers(min_value=1, max_value=len(ITEMS)))
    items = ITEMS[:n_items]
    hierarchy = build_item_hierarchy(items, fanout=draw(st.integers(2, 4)))
    itemsets = draw(
        st.lists(
            st.frozensets(st.sampled_from(items), max_size=5), min_size=0, max_size=30
        )
    )
    k = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    promotions = draw(st.none() | st.lists(st.sampled_from(items), max_size=3))
    return hierarchy, items, itemsets, k, m, promotions


def run_both(hierarchy, items, itemsets, k, m, promotions):
    if promotions is None:
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k, m)
        reference, expected = reference_greedy_km_anonymize(itemsets, hierarchy, k, m)
    else:
        # A passed-in cut covers the whole universe, as VPA's shared cut does,
        # and may already be generalized.
        cut = ItemCut(hierarchy, items)
        for item in promotions:
            cut.generalize_node(cut.image(item))
        reference = ReferenceCut(hierarchy, cut.mapping, cut.version)
        cut, statistics = greedy_km_anonymize(itemsets, hierarchy, k, m, cut=cut)
        reference, expected = reference_greedy_km_anonymize(
            itemsets, hierarchy, k, m, cut=reference
        )
    assert cut.mapping == reference.mapping
    assert cut.version == reference.version
    assert statistics == expected
    return statistics


@settings(max_examples=300, deadline=None)
@given(searches())
def test_search_matches_reference_greedy_loop(search):
    run_both(*search)


def test_empty_itemsets():
    hierarchy = build_item_hierarchy(ITEMS[:6], fanout=2)
    for m in (1, 2, 3):
        for itemsets in ([], [frozenset()] * 4):
            statistics = run_both(hierarchy, ITEMS[:6], itemsets, 3, m, None)
            assert statistics["generalization_steps"] == 0
            statistics = run_both(hierarchy, ITEMS[:6], itemsets, 3, m, ["i00"])
            assert statistics["unresolvable_violations"] == 0


def test_fewer_than_k_non_empty_rows_is_unresolvable():
    hierarchy = build_item_hierarchy(ITEMS[:9], fanout=3)
    itemsets = [frozenset({"i00", "i04"}), frozenset({"i08"}), frozenset()]
    for m in (1, 2, 3):
        for promotions in (None, ["i02"]):
            statistics = run_both(hierarchy, ITEMS[:9], itemsets, 3, m, promotions)
            assert statistics["fully_generalized"]
            assert statistics["unresolvable_violations"] == 1
