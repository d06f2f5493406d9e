"""Tests for the five transaction anonymization algorithms.

The hierarchy-based algorithms (Apriori, LRA, VPA) must produce
k^m-anonymous outputs; the constraint-based ones (COAT, PCTA) must satisfy
their privacy policy.  All must preserve the number of records, leave other
attributes untouched and report runtime statistics.
"""

import pytest

from repro.algorithms.transaction import (
    AprioriAnonymizer,
    Coat,
    LraAnonymizer,
    Pcta,
    VpaAnonymizer,
)
from repro.datasets import generate_market_basket, generate_rt_dataset
from repro.exceptions import ConfigurationError
from repro.hierarchy import build_item_hierarchy
from repro.metrics import candidate_support, is_km_anonymous, utility_loss
from repro.policies import generate_policies, generate_privacy_policy


@pytest.fixture(scope="module")
def baskets():
    return generate_market_basket(n_records=250, n_items=24, seed=31)


@pytest.fixture(scope="module")
def item_hierarchy(baskets):
    return build_item_hierarchy(baskets.item_universe(), fanout=3)


class TestHierarchyBasedAlgorithms:
    @pytest.mark.parametrize("algorithm_class", [AprioriAnonymizer, LraAnonymizer, VpaAnonymizer])
    def test_output_is_km_anonymous(self, algorithm_class, baskets, item_hierarchy):
        algorithm = algorithm_class(k=4, m=2, hierarchy=item_hierarchy)
        result = algorithm.anonymize(baskets)
        assert len(result.dataset) == len(baskets)
        assert is_km_anonymous(
            result.dataset,
            k=4,
            m=2,
            hierarchy=item_hierarchy,
            universe=baskets.item_universe(),
        )

    @pytest.mark.parametrize("algorithm_class", [AprioriAnonymizer, LraAnonymizer, VpaAnonymizer])
    def test_reports_runtime_and_utility(self, algorithm_class, baskets, item_hierarchy):
        result = algorithm_class(k=3, m=2, hierarchy=item_hierarchy).anonymize(baskets)
        assert result.runtime_seconds > 0
        assert 0.0 <= result.statistics["utility_loss"] <= 1.0
        assert result.phase_seconds

    @pytest.mark.parametrize("algorithm_class", [AprioriAnonymizer, LraAnonymizer, VpaAnonymizer])
    def test_parameter_validation(self, algorithm_class, item_hierarchy):
        with pytest.raises(ConfigurationError):
            algorithm_class(k=1, m=2, hierarchy=item_hierarchy)
        with pytest.raises(ConfigurationError):
            algorithm_class(k=3, m=0, hierarchy=item_hierarchy)

    @pytest.mark.parametrize("algorithm_class", [AprioriAnonymizer, LraAnonymizer, VpaAnonymizer])
    def test_builds_hierarchy_when_missing(self, algorithm_class, baskets):
        result = algorithm_class(k=3, m=1).anonymize(baskets)
        assert len(result.dataset) == len(baskets)

    def test_stricter_privacy_costs_more_utility(self, baskets, item_hierarchy):
        loose = AprioriAnonymizer(k=2, m=1, hierarchy=item_hierarchy).anonymize(baskets)
        strict = AprioriAnonymizer(k=20, m=2, hierarchy=item_hierarchy).anonymize(baskets)
        assert (
            strict.statistics["utility_loss"]
            >= loose.statistics["utility_loss"] - 1e-9
        )

    def test_lra_local_recoding_not_worse_than_global(self, baskets, item_hierarchy):
        global_result = AprioriAnonymizer(k=6, m=2, hierarchy=item_hierarchy).anonymize(baskets)
        local_result = LraAnonymizer(k=6, m=2, hierarchy=item_hierarchy).anonymize(baskets)
        # Local recoding may keep popular items intact inside partitions, so it
        # should not lose substantially more utility than global recoding.
        assert (
            local_result.statistics["utility_loss"]
            <= global_result.statistics["utility_loss"] + 0.25
        )

    def test_lra_reports_the_effective_partition_size(self, baskets, item_hierarchy):
        # A configured size below k is raised to k; the statistic must say so.
        small = LraAnonymizer(k=6, m=2, hierarchy=item_hierarchy, partition_size=4)
        result = small.anonymize(baskets)
        assert result.statistics["partition_size_target"] == 6
        assert result.statistics["partitions"] == len(baskets) // 6
        default = LraAnonymizer(k=6, m=2, hierarchy=item_hierarchy).anonymize(baskets)
        assert default.statistics["partition_size_target"] == 100

    def test_vpa_respects_parts_parameter(self, baskets, item_hierarchy):
        result = VpaAnonymizer(k=3, m=2, hierarchy=item_hierarchy, n_parts=4).anonymize(baskets)
        assert result.statistics["parts"] == 4

    def test_rt_dataset_transaction_attribute_only_is_modified(self, item_hierarchy):
        rt = generate_rt_dataset(n_records=100, n_items=20, seed=3)
        hierarchy = build_item_hierarchy(rt.item_universe("Items"), fanout=3)
        result = AprioriAnonymizer(k=4, m=2, hierarchy=hierarchy).anonymize(rt)
        assert result.dataset.column("Age") == rt.column("Age")
        assert result.dataset.column("Education") == rt.column("Education")


class TestCoat:
    def test_satisfies_privacy_policy(self, baskets):
        privacy, utility = generate_policies(baskets, k=5, group_size=4)
        result = Coat(privacy, utility).anonymize(baskets)
        for constraint in privacy:
            support = candidate_support(result.dataset, constraint.items)
            assert support == 0 or support >= 5

    def test_respects_utility_policy_groups(self, baskets):
        privacy, utility = generate_policies(baskets, k=8, group_size=3)
        result = Coat(privacy, utility).anonymize(baskets)
        published_groups = {
            label
            for record in result.dataset
            for label in record["Items"]
            if label.startswith("(")
        }
        allowed_labels = {constraint.label for constraint in utility}
        assert published_groups <= allowed_labels

    def test_zero_support_constraints_are_ignored(self, baskets):
        privacy = generate_privacy_policy(baskets, k=4, strategy="items")
        privacy = type(privacy)(
            list(privacy.constraints) + [["item-that-does-not-exist"]], k=4
        )
        _, utility = generate_policies(baskets, k=4)
        result = Coat(privacy, utility).anonymize(baskets)
        assert len(result.dataset) == len(baskets)

    def test_requires_policies(self, baskets):
        with pytest.raises(ConfigurationError):
            Coat(None, None)

    def test_reports_statistics(self, baskets):
        privacy, utility = generate_policies(baskets, k=5)
        result = Coat(privacy, utility).anonymize(baskets)
        stats = result.statistics
        assert stats["generalized_groups"] >= 0
        assert stats["suppressed_items"] >= 0
        assert 0.0 <= stats["utility_loss"] <= 1.0


class TestPcta:
    def test_satisfies_privacy_policy(self, baskets):
        privacy = generate_privacy_policy(baskets, k=5, strategy="items")
        result = Pcta(privacy).anonymize(baskets)
        for constraint in privacy:
            support = candidate_support(result.dataset, constraint.items)
            assert support == 0 or support >= 5

    def test_satisfies_itemset_constraints(self, baskets):
        privacy = generate_privacy_policy(
            baskets, k=6, strategy="itemsets", constraint_size=2, n_constraints=15, seed=2
        )
        result = Pcta(privacy).anonymize(baskets)
        for constraint in privacy:
            support = candidate_support(result.dataset, constraint.items)
            assert support == 0 or support >= 6

    def test_clusters_are_reported(self, baskets):
        privacy = generate_privacy_policy(baskets, k=10, strategy="items")
        result = Pcta(privacy).anonymize(baskets)
        assert result.statistics["merges"] >= 0
        assert result.statistics["largest_cluster"] >= 1

    def test_requires_policy(self):
        with pytest.raises(ConfigurationError):
            Pcta(None)

    def test_pcta_preserves_more_utility_than_full_generalization(self, baskets, item_hierarchy):
        privacy = generate_privacy_policy(baskets, k=5, strategy="rare")
        pcta_result = Pcta(privacy).anonymize(baskets)
        # Suppressing or generalizing everything would give UL close to 1.
        assert pcta_result.statistics["utility_loss"] < 0.9
