"""Common infrastructure shared by all anonymization algorithms.

Every algorithm in SECRETA — relational, transaction, or an RT combination —
is exposed through the same small interface so the engine can configure,
execute, time and compare them uniformly:

* :class:`Anonymizer` — the abstract base: a named, parameterised object with
  an ``anonymize(dataset)`` method returning an :class:`AnonymizationResult`.
* :class:`AnonymizationResult` — the anonymized dataset plus bookkeeping the
  Experimentation Module plots: wall-clock runtime, per-phase runtimes and
  algorithm-specific statistics.
* :class:`PhaseTimer` — a tiny helper for recording phase runtimes (the
  Evaluation screen plots "the time needed to execute the algorithm and its
  different phases").
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.datasets.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import quasi_identifier_attributes
from repro.metrics.transaction import utility_loss


@dataclass
class AnonymizationResult:
    """The output of one anonymization run."""

    dataset: Dataset
    algorithm: str
    parameters: dict[str, Any] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    statistics: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """A flat summary row (what the message box / results table shows)."""
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "records": len(self.dataset),
            "runtime_seconds": round(self.runtime_seconds, 6),
        }
        row.update({f"param_{key}": value for key, value in self.parameters.items()})
        row.update(self.statistics)
        return row


class PhaseTimer:
    """Accumulates named phase durations and the total runtime."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self.phases: dict[str, float] = {}

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager measuring one named phase."""
        return _PhaseContext(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        return time.perf_counter() - self._start


class _PhaseContext:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name
        self._began = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.add(self._name, time.perf_counter() - self._began)


class Anonymizer(abc.ABC):
    """Base class of every anonymization algorithm.

    Subclasses set :attr:`name` (the identifier used by configurations and the
    registry) and :attr:`data_kind` (``"relational"``, ``"transaction"`` or
    ``"rt"``), and implement :meth:`anonymize`.
    """

    #: Registry identifier (e.g. ``"incognito"``); overridden by subclasses.
    name: str = "abstract"
    #: The kind of dataset the algorithm applies to.
    data_kind: str = "relational"

    @abc.abstractmethod
    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        """Anonymize ``dataset`` and return the result with its statistics."""

    def parameters(self) -> dict[str, Any]:
        """The algorithm's configuration, for reporting (overridden as needed)."""
        return {}

    def anonymize_rows(
        self,
        parent: Dataset,
        rows: Sequence[int],
        ul_hierarchy: Hierarchy | None = None,
        attribute: str | None = None,
    ) -> tuple[list[Any], float]:
        """Anonymize the transactions of ``parent``'s ``rows``; return itemsets and UL.

        The RT bounding methods call this once per cluster.  The itemsets
        follow ``rows`` order, and the UL is the slice's utility loss with
        labels read through ``ul_hierarchy``.  This default materializes the
        slice as a subset and runs :meth:`anonymize` on it; the
        hierarchy-cut algorithms override it to work on the parent's columns.
        """
        attribute = attribute or parent.single_transaction_attribute()
        subset = parent.subset(rows)
        result = self.anonymize(subset)
        loss = utility_loss(
            subset, result.dataset, attribute=attribute, hierarchy=ul_hierarchy
        )
        return result.dataset.column(attribute), loss

    def __repr__(self) -> str:
        parameters = ", ".join(f"{k}={v!r}" for k, v in self.parameters().items())
        return f"{type(self).__name__}({parameters})"

    @staticmethod
    def _build_index(dataset: Dataset, attribute: str):
        """Posting-list index the constraint-based transaction algorithms
        (COAT, PCTA) run their support computations on.

        A test hook: overriding it (e.g. with ``cached=False``) verifies that
        union memoization never changes algorithm output.
        """
        from repro.index import InvertedIndex

        return InvertedIndex.from_dataset(dataset, attribute)


# -- shared helpers ----------------------------------------------------------------
def relational_quasi_identifiers(dataset: Dataset) -> list[str]:
    """Names of the relational quasi-identifier attributes of ``dataset``."""
    return quasi_identifier_attributes(dataset)


def require_hierarchies(
    attributes: Sequence[str], hierarchies: Mapping[str, Hierarchy], algorithm: str
) -> None:
    """Raise a configuration error when a needed hierarchy is missing."""
    missing = [name for name in attributes if name not in hierarchies]
    if missing:
        raise ConfigurationError(
            f"{algorithm} needs a generalization hierarchy for attributes {missing}"
        )


def validate_k(k: int, dataset_size: int, algorithm: str) -> None:
    """Validate the privacy parameter ``k`` against the dataset size."""
    if k < 2:
        raise ConfigurationError(f"{algorithm}: k must be at least 2 (got {k})")
    if dataset_size and k > dataset_size:
        raise ConfigurationError(
            f"{algorithm}: k={k} exceeds the dataset size ({dataset_size} records); "
            "no generalization can satisfy it"
        )


def apply_value_mapping(
    dataset: Dataset, attribute: str, mapping: Mapping[Any, str]
) -> None:
    """Rewrite a relational column in place through ``mapping`` (identity fallback)."""
    dataset.map_column(attribute, lambda value: mapping.get(value, value))


def apply_item_mapping(
    dataset: Dataset, attribute: str, mapping: Mapping[str, str | None]
) -> None:
    """Rewrite a transaction column in place through an item mapping.

    Items mapped to ``None`` are suppressed; unmapped items are kept.  The
    resulting cell is a set, so duplicates introduced by generalization
    collapse automatically.
    """

    def rewrite(itemset) -> list[str]:
        rewritten = []
        for item in itemset:
            image = mapping.get(item, item)
            if image is not None:
                rewritten.append(image)
        return rewritten

    dataset.map_column(attribute, rewrite)
