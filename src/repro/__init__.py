"""SECRETA reproduction: evaluate and compare anonymization algorithms.

The package is organised in layers:

* :mod:`repro.datasets` — the RT-dataset model, CSV I/O, editing, statistics
  and synthetic data generators,
* :mod:`repro.hierarchy` — generalization hierarchies and lattices,
* :mod:`repro.policies` — privacy and utility policies (COAT/PCTA),
* :mod:`repro.queries` — query workloads and Average Relative Error,
* :mod:`repro.columnar` — the bitset/columnar kernel layer: tokenized item
  vocabularies, CSR item columns and dense ``uint64`` posting bitsets with
  popcount kernels (see ``docs/columnar.md``),
* :mod:`repro.index` — the interpretation index: shared, memoized
  label→leaves/cost resolution (:class:`~repro.index.LabelInterpreter`) and
  bitset-backed item posting lists with memoized group unions
  (:class:`~repro.index.InvertedIndex`); the metric, query and
  constraint-algorithm hot paths all run on it,
* :mod:`repro.metrics` — information-loss metrics and privacy verification,
* :mod:`repro.algorithms` — the nine anonymization algorithms and the three
  RT bounding methods,
* :mod:`repro.engine` — the backend: configurations, the anonymization
  module, the method evaluator/comparator and the experimentation module,
* :mod:`repro.frontend` — the headless counterpart of the GUI: session
  facade, text plotting and export.

The most convenient entry point is :class:`Session` together with the
configuration helpers ``relational_config`` / ``transaction_config`` /
``rt_config``::

    from repro import Session, rt_config

    session = Session.generate_rt(n_records=500, seed=1)
    report = session.evaluate(rt_config("cluster", "coat", k=5, m=2))
    print(report.summary())
"""

from __future__ import annotations

from repro.datasets import (
    Attribute,
    AttributeKind,
    Dataset,
    DatasetDomains,
    DatasetEditor,
    Schema,
    ADVERSARIAL_GENERATORS,
    generate_adult_like,
    generate_correlated_rt,
    generate_market_basket,
    generate_outlier_rt,
    generate_rt_dataset,
    generate_skewed_rt,
    load_csv,
    save_csv,
    toy_rt_dataset,
)
from repro.engine import (
    AnonymizationConfig,
    ComparisonReport,
    EvaluationReport,
    ExperimentResources,
    MethodComparator,
    MethodEvaluator,
    ParameterSweep,
    Series,
    SweepResult,
    relational_config,
    rt_config,
    transaction_config,
)
from repro.exceptions import SecretaError
from repro.frontend import Session

# Imported after the engine: the attack simulator sits on top of the index
# and metrics layers, which the imports above finish initializing.
from repro.attacks import (
    AttackResult,
    item_attack,
    qi_attack,
    rt_attack,
    simulate_attacks,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SecretaError",
    "AttackResult",
    "item_attack",
    "qi_attack",
    "rt_attack",
    "simulate_attacks",
    "Attribute",
    "AttributeKind",
    "Dataset",
    "DatasetDomains",
    "DatasetEditor",
    "Schema",
    "ADVERSARIAL_GENERATORS",
    "generate_adult_like",
    "generate_correlated_rt",
    "generate_market_basket",
    "generate_outlier_rt",
    "generate_rt_dataset",
    "generate_skewed_rt",
    "load_csv",
    "save_csv",
    "toy_rt_dataset",
    "AnonymizationConfig",
    "ComparisonReport",
    "EvaluationReport",
    "ExperimentResources",
    "MethodComparator",
    "MethodEvaluator",
    "ParameterSweep",
    "Series",
    "SweepResult",
    "relational_config",
    "rt_config",
    "transaction_config",
    "Session",
]
