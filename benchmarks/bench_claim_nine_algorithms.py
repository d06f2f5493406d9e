"""CLAIM-9ALG — "SECRETA supports 9 algorithms" (Section 2.2).

Every one of the nine integrated algorithms is executed on its applicable
dataset type with the same privacy level; runtime and information loss are
recorded under ``benchmarks/results/`` as one row per algorithm (the
efficiency/utility table the Comparison mode summarises graphically).
"""

from __future__ import annotations

import pytest

from repro.engine import (
    MethodEvaluator,
    relational_config,
    transaction_config,
)

RELATIONAL = ["incognito", "top-down", "cluster", "full-subtree"]
TRANSACTION = ["coat", "pcta", "apriori", "lra", "vpa"]

_collected: dict[str, dict] = {}


@pytest.mark.parametrize("algorithm", RELATIONAL)
def test_relational_algorithm(benchmark, session, algorithm, record):
    evaluator = MethodEvaluator(session.dataset, session.resources(), verify_privacy=False)
    config = relational_config(algorithm, k=10, label=algorithm)

    report = benchmark.pedantic(evaluator.evaluate, args=(config,), rounds=1, iterations=1)
    _collected[algorithm] = {
        "kind": "relational",
        "runtime_seconds": report.runtime_seconds,
        "are": report.are,
        "gcp": report.utility["relational_gcp"],
        "min_class_size": report.privacy["min_class_size"],
    }
    record("claim_nine_algorithms", _collected)
    assert report.privacy["min_class_size"] >= 10


@pytest.mark.parametrize("algorithm", TRANSACTION)
def test_transaction_algorithm(benchmark, session, algorithm, record):
    evaluator = MethodEvaluator(session.dataset, session.resources(), verify_privacy=False)
    # COAT/PCTA protect explicit constraints; use 2-itemset constraints so the
    # policy actually has violations to repair (single items are already
    # frequent enough at this dataset size).
    config = transaction_config(
        algorithm, k=10, m=2, label=algorithm, privacy_strategy="itemsets"
    )

    report = benchmark.pedantic(evaluator.evaluate, args=(config,), rounds=1, iterations=1)
    _collected[algorithm] = {
        "kind": "transaction",
        "runtime_seconds": report.runtime_seconds,
        "are": report.are,
        "utility_loss": report.utility["transaction_ul"],
        "item_frequency_error": report.utility["item_frequency_error"],
    }
    record("claim_nine_algorithms", _collected)
    assert 0.0 <= report.utility["transaction_ul"] <= 1.0
