"""Property tests: RT bounding on row slices equals the materialized-subset loop.

The bounding methods anonymize every cluster from the parent dataset's
columns (``Anonymizer.anonymize_rows``), price Apriori/LRA/VPA clusters with
the cut-based UL (``cut_utility_loss``), pick merge partners on the
integer-coded ``_MergeState`` and write each output column once.  None of
that may change a result:

* all 20 relational x transaction combinations under each bounding method
  match the scalar loop of ``rt_reference.py`` — output rows, cluster
  assignment, merges and every statistic, floats compared exactly;
* the cut-based UL of a slice equals ``utility_loss`` on the materialized
  subset bit for bit, for unsorted slices, empty itemsets, LRA-suppressed
  partitions and with no item hierarchy;
* ``generalize_clusters`` writes the same cells as one ``set_value`` per cell;
* one bounding run calls ``Dataset.subset`` and ``utility_loss`` only where
  the materialized path still needs them.
"""

from __future__ import annotations

import contextlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rt_reference import generalize_clusters_per_record, reference_anonymize

from repro.algorithms import (
    AprioriAnonymizer,
    ClusterAnonymizer,
    Coat,
    LraAnonymizer,
    PhaseTimer,
    Rmerger,
    RTmerger,
    Tmerger,
    VpaAnonymizer,
    iter_combinations,
)
from repro.algorithms.transaction._itemcut import cut_utility_loss
from repro.datasets import Attribute, Dataset, Schema, generate_rt_dataset
from repro.engine import AnonymizationModule, ExperimentResources, rt_config
from repro.hierarchy import build_hierarchies_for_dataset, build_item_hierarchy
from repro.metrics import transaction as transaction_metrics
from repro.metrics.transaction import utility_loss
from repro.policies import generate_policies

ITEMS = [f"i{n:02d}" for n in range(12)]
#: A numeric and three hierarchy-scored categorical quasi-identifiers: enough
#: for every merge-score branch, small enough for Incognito's lattice.
QUASI_IDENTIFIERS = ("Age", "Workclass", "Education", "Gender")


# -- all combinations vs the scalar loop ------------------------------------------------
def build_bounding(dataset: Dataset, combination, k: int, m: int, delta: float):
    """The engine's bounding anonymizer for one combination, with fixed resources."""
    hierarchies = build_hierarchies_for_dataset(
        dataset, fanout=3, attributes=list(QUASI_IDENTIFIERS)
    )
    item_hierarchy = build_item_hierarchy(dataset.item_universe("Items"), fanout=3)
    privacy, utility = generate_policies(
        dataset, k=k, attribute="Items", group_size=3, hierarchy=item_hierarchy
    )
    resources = ExperimentResources(
        hierarchies=hierarchies,
        item_hierarchy=item_hierarchy,
        privacy_policy=privacy,
        utility_policy=utility,
    )
    config = rt_config(
        combination.relational,
        combination.transaction,
        combination.bounding,
        k=k,
        m=m,
        delta=delta,
        relational_attributes=QUASI_IDENTIFIERS,
    )
    return AnonymizationModule(dataset, resources).build_rt(config)


def run_or_error(function, *args):
    try:
        return function(*args), None
    except Exception as error:  # compared by type against the other side
        return None, type(error)


def assert_matches_reference(algorithm, dataset: Dataset) -> None:
    result, error = run_or_error(algorithm.anonymize, dataset)
    reference, reference_error = run_or_error(reference_anonymize, algorithm, dataset)
    assert error == reference_error
    if error is not None:
        return
    expected_dataset, expected_statistics = reference
    assert result.dataset.to_rows() == expected_dataset.to_rows()
    assert result.dataset.fingerprint() == expected_dataset.fingerprint()
    assert result.statistics == expected_statistics


@pytest.mark.parametrize(
    "combination", iter_combinations(), ids=lambda combination: combination.label
)
@given(
    seed=st.integers(0, 10_000),
    n_records=st.integers(12, 36),
    k=st.sampled_from([2, 3, 4]),
    m=st.sampled_from([1, 2]),
    delta=st.sampled_from([0.0, 0.2, 0.5]),
)
@settings(max_examples=6, deadline=None)
def test_bounding_matches_scalar_reference(combination, seed, n_records, k, m, delta):
    dataset = generate_rt_dataset(n_records=n_records, n_items=10, seed=seed)
    algorithm = build_bounding(dataset, combination, k, m, delta)
    assert_matches_reference(algorithm, dataset)


@pytest.mark.parametrize("merger", [Rmerger, Tmerger, RTmerger])
def test_bounding_without_item_hierarchy_matches_scalar_reference(merger):
    # No item hierarchy: each cluster's Apriori builds its own, so the UL
    # takes the materialized path.
    dataset = generate_rt_dataset(n_records=60, n_items=12, seed=5)
    assert_matches_reference(merger(k=3, m=2, delta=0.2), dataset)


# -- the cut-based UL ----------------------------------------------------------------
def make_baskets_dataset(baskets) -> Dataset:
    schema = Schema([Attribute.numeric("Age"), Attribute.transaction("Items")])
    return Dataset(
        schema,
        [{"Age": position, "Items": sorted(basket)} for position, basket in enumerate(baskets)],
    )


baskets = st.lists(
    st.one_of(st.just(set()), st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4)),
    min_size=2,
    max_size=24,
)


@st.composite
def slices(draw):
    rows = draw(baskets)
    chosen = draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(rows), unique=True)
    )
    return rows, chosen  # drawn order: unsorted row slices


def make_algorithm(kind: str, k: int, m: int, hierarchy):
    if kind == "apriori":
        return AprioriAnonymizer(k, m, hierarchy=hierarchy)
    if kind == "lra":
        # Partitions of k rows make suppressed partitions common.
        return LraAnonymizer(k, m, hierarchy=hierarchy, partition_size=k)
    return VpaAnonymizer(k, m, hierarchy=hierarchy, n_parts=2)


@given(
    data=slices(),
    kind=st.sampled_from(["apriori", "lra", "vpa"]),
    k=st.sampled_from([2, 3]),
    m=st.sampled_from([1, 2]),
    fanout=st.sampled_from([2, 3]),
)
@example(
    data=([set(), set(), {"i00"}, set(), {"i01", "i02"}, {"i01"}], [5, 0, 3, 2, 1, 4]),
    kind="lra",
    k=2,
    m=1,
    fanout=2,
)
@settings(max_examples=120, deadline=None)
def test_cut_utility_loss_matches_materialized_subset(data, kind, k, m, fanout):
    rows, chosen = data
    parent = make_baskets_dataset(rows)
    hierarchy = build_item_hierarchy(ITEMS, fanout=fanout)
    algorithm = make_algorithm(kind, k, m, hierarchy)
    subset = parent.subset(chosen)
    result, error = run_or_error(algorithm.anonymize, subset)
    sliced, sliced_error = run_or_error(
        algorithm.anonymize_rows, parent, chosen, hierarchy, "Items"
    )
    assert sliced_error == error
    if error is not None:
        return
    expected_loss = utility_loss(subset, result.dataset, hierarchy=hierarchy)
    itemsets, loss = sliced
    assert itemsets == result.dataset.column("Items")
    assert loss == expected_loss
    assert result.statistics["utility_loss"] == expected_loss

    # The kernel itself, never falling back on these shapes.
    itemsets = [parent[row]["Items"] for row in chosen]
    outputs, cuts, cut_hierarchy, _ = algorithm._search(itemsets, "Items", PhaseTimer())
    kernel_loss = cut_utility_loss(parent.columnar("Items"), chosen, outputs, cuts, cut_hierarchy)
    assert kernel_loss == expected_loss


def test_lra_suppressed_partitions_are_charged_in_order():
    rows = [set(), {"i00"}, set(), {"i01", "i02"}, {"i01"}, {"i03"}, set(), {"i04"}]
    parent = make_baskets_dataset(rows)
    hierarchy = build_item_hierarchy(ITEMS, fanout=2)
    algorithm = LraAnonymizer(2, 1, hierarchy=hierarchy, partition_size=2)
    chosen = [7, 3, 0, 5, 1, 4, 6, 2]
    subset = parent.subset(chosen)
    result = algorithm.anonymize(subset)
    assert result.statistics["suppressed_partitions"] > 0
    itemsets, loss = algorithm.anonymize_rows(parent, chosen, hierarchy, "Items")
    assert itemsets == result.dataset.column("Items")
    assert loss == utility_loss(subset, result.dataset, hierarchy=hierarchy)


@pytest.mark.parametrize("kind", ["apriori", "lra", "vpa"])
def test_slice_without_matching_hierarchy_takes_the_subset_path(kind):
    parent = make_baskets_dataset([{"i00", "i01"}, {"i01"}, {"i02"}, {"i00"}, set(), {"i03"}])
    hierarchy = build_item_hierarchy(ITEMS, fanout=3)
    chosen = [4, 2, 0, 5]
    for own, ul_hierarchy in ((None, None), (hierarchy, None), (None, hierarchy)):
        algorithm = make_algorithm(kind, 2, 2, own)
        subset = parent.subset(chosen)
        result = algorithm.anonymize(subset)
        itemsets, loss = algorithm.anonymize_rows(parent, chosen, ul_hierarchy, "Items")
        assert itemsets == result.dataset.column("Items")
        assert loss == utility_loss(subset, result.dataset, hierarchy=ul_hierarchy)


# -- the column write-back ------------------------------------------------------------
def test_generalize_clusters_matches_per_record_reference():
    dataset = generate_rt_dataset(n_records=80, n_items=12, seed=3)
    attributes = [a.name for a in dataset.schema.relational if a.quasi_identifier]
    hierarchies = build_hierarchies_for_dataset(dataset, fanout=3, attributes=attributes)
    for helper in (ClusterAnonymizer(4, hierarchies), ClusterAnonymizer(4)):
        clusters = helper.build_clusters(dataset, attributes)
        anonymized = helper.generalize_clusters(dataset, clusters, attributes)
        expected = generalize_clusters_per_record(helper, dataset, clusters, attributes)
        assert anonymized.to_rows() == expected.to_rows()
        assert anonymized.fingerprint() == expected.fingerprint()
        assert anonymized.name == expected.name
        # One version step per written column.
        assert anonymized.version == len(attributes)


# -- call counts ---------------------------------------------------------------------
@contextlib.contextmanager
def counted_calls():
    """Count ``Dataset.subset`` and ``utility_loss`` calls, wherever it is imported."""
    counts = {"subset": 0, "utility_loss": 0}
    original_subset = Dataset.subset
    original_loss = transaction_metrics.utility_loss

    def subset(self, *args, **kwargs):
        counts["subset"] += 1
        return original_subset(self, *args, **kwargs)

    def loss(*args, **kwargs):
        counts["utility_loss"] += 1
        return original_loss(*args, **kwargs)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "utility_loss", None) is original_loss
    ]
    Dataset.subset = subset
    for module in holders:
        module.utility_loss = loss
    try:
        yield counts
    finally:
        Dataset.subset = original_subset
        for module in holders:
            module.utility_loss = original_loss


@pytest.fixture(scope="module")
def rt():
    return generate_rt_dataset(n_records=120, n_items=18, seed=41)


@pytest.mark.parametrize("algorithm_class", [AprioriAnonymizer, LraAnonymizer, VpaAnonymizer])
def test_cut_partner_makes_no_subset_and_one_utility_loss_call(rt, algorithm_class):
    item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
    algorithm = RTmerger(
        k=4,
        m=2,
        delta=0.1,
        item_hierarchy=item_hierarchy,
        transaction_factory=lambda _dataset: algorithm_class(4, 2, hierarchy=item_hierarchy),
    )
    with counted_calls() as counts:
        result = algorithm.anonymize(rt)
    assert result.statistics["merges"] > 0
    assert counts == {"subset": 0, "utility_loss": 1}


def test_coat_partner_keeps_two_utility_loss_calls_per_cluster(rt):
    privacy, utility = generate_policies(rt, k=4, attribute="Items", group_size=4)
    algorithm = Rmerger(
        k=4,
        m=2,
        delta=0.1,
        transaction_factory=lambda _dataset: Coat(privacy, utility),
    )
    with counted_calls() as counts:
        result = algorithm.anonymize(rt)
    anonymized_clusters = result.statistics["initial_clusters"] + result.statistics["merges"]
    assert result.statistics["merges"] > 0
    assert counts["subset"] == anonymized_clusters
    # COAT's own statistic plus the bounding UL per cluster, plus the final UL.
    assert counts["utility_loss"] == 2 * anonymized_clusters + 1


def test_factory_is_called_once_with_the_whole_dataset(rt):
    item_hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
    calls = []

    def factory(dataset):
        calls.append(dataset)
        return AprioriAnonymizer(4, 2, hierarchy=item_hierarchy)

    result = Tmerger(
        k=4, m=2, delta=0.1, item_hierarchy=item_hierarchy, transaction_factory=factory
    ).anonymize(rt)
    assert result.statistics["merges"] > 0
    assert len(calls) == 1 and calls[0] is rt
