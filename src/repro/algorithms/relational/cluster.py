"""Cluster-based relational anonymization (Poulis et al., ECML/PKDD 2013).

The relational half of the RT-anonymization framework: records are grouped
into clusters of at least ``k`` members by a greedy nearest-neighbour
procedure, and every cluster is generalized to its minimum bounding
generalization — the value range of its members for numeric attributes, the
lowest common ancestor (or the explicit value set, when no hierarchy is
supplied) for categorical ones.  Unlike the full-domain algorithms the
recoding is *local*: different clusters may generalize the same value
differently, which preserves substantially more utility.

The produced clusters are also the starting point of the RT bounding methods
(Rmerger / Tmerger / RTmerger), which is why the cluster assignment is
reported in the result statistics.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    PhaseTimer,
    relational_quasi_identifiers,
    validate_k,
)
from repro.datasets.dataset import Dataset
from repro.exceptions import AlgorithmError
from repro.hierarchy.builders import format_interval
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.relational import global_certainty_penalty
from repro.policies.utility import generalized_label


class _ClusterBounds:
    """Incrementally maintained bounding generalization of one growing cluster.

    Scoring a candidate record against the running bounds is O(#attributes),
    which keeps the greedy clustering loop close to linear.  The categorical
    cost uses the number of distinct values in the cluster (a lower bound of
    the LCA's leaf count); the exact hierarchy-based cost is only needed when
    the cluster is finally generalized.
    """

    def __init__(self, owner: "ClusterAnonymizer", dataset: Dataset, attributes, seed: int):
        self._owner = owner
        self._dataset = dataset
        self._attributes = list(attributes)
        #: name -> (low, high), or ``None`` while the cluster holds no numeric
        #: value for the attribute (a ``None`` seed must not anchor the bounds
        #: at 0 — missing values are skipped exactly as :meth:`add` does).
        self._numeric_bounds: dict[str, tuple[float, float] | None] = {}
        self._categorical_values: dict[str, set[str]] = {}
        for name in self._attributes:
            value = dataset[seed][name]
            if name in owner._numeric:
                self._numeric_bounds[name] = (
                    (float(value), float(value)) if value is not None else None
                )
            else:
                self._categorical_values[name] = (
                    {str(value)} if value is not None else set()
                )

    def cost_with(self, candidate: int) -> float:
        record = self._dataset[candidate]
        cost = 0.0
        for name in self._attributes:
            value = record[name]
            if name in self._owner._numeric:
                span = self._owner._domain_span[name]
                if span <= 0:
                    continue
                bounds = self._numeric_bounds[name]
                if value is not None:
                    number = float(value)
                    low, high = (
                        (number, number)
                        if bounds is None
                        else (min(bounds[0], number), max(bounds[1], number))
                    )
                elif bounds is None:
                    continue
                else:
                    low, high = bounds
                cost += (high - low) / span
            else:
                size = self._owner._domain_size[name]
                if size <= 1:
                    continue
                values = self._categorical_values[name]
                extra = 0 if value is None or str(value) in values else 1
                cost += (len(values) + extra - 1) / max(size - 1, 1)
        return cost / max(len(self._attributes), 1)

    def add(self, candidate: int) -> None:
        record = self._dataset[candidate]
        for name in self._attributes:
            value = record[name]
            if value is None:
                continue
            if name in self._owner._numeric:
                bounds = self._numeric_bounds[name]
                number = float(value)
                self._numeric_bounds[name] = (
                    (number, number)
                    if bounds is None
                    else (min(bounds[0], number), max(bounds[1], number))
                )
            else:
                self._categorical_values[name].add(str(value))


class _ClusterKernel:
    """Vectorized twin of :class:`_ClusterBounds`.

    Column arrays (from ``Dataset.columnar``) plus the running bounds of the
    cluster being grown, scoring *all* candidate records of one greedy step in
    a single array pass: numeric span widening via ``np.fmin``/``np.fmax``
    against the ``NaN``-missing value vectors, categorical membership via code
    comparison against the cluster's value-code mask.  The per-candidate costs
    are numerically identical to :meth:`_ClusterBounds.cost_with` — the same
    operations run in the same attribute order — so the greedy choice (first
    minimum) matches the scalar loop exactly.
    """

    def __init__(self, owner: "ClusterAnonymizer", dataset: Dataset, attributes):
        self._n_attributes = max(len(list(attributes)), 1)
        #: ("num", numbers, span, state index) / ("cat", cells, denominator,
        #: state index) per *contributing* attribute, in attribute order.
        self._specs: list[tuple] = []
        numeric_count = 0
        self._masks: list[np.ndarray] = []
        self._counts: list[int] = []
        for name in attributes:
            if name in owner._numeric:
                span = owner._domain_span[name]
                if span <= 0:
                    continue
                numbers = dataset.columnar(name).numbers
                self._specs.append(("num", numbers, span, numeric_count))
                numeric_count += 1
            else:
                size = owner._domain_size[name]
                if size <= 1:
                    continue
                cells, labels = dataset.columnar(name).string_codes()
                mask = np.zeros(len(labels) + 1, dtype=bool)
                mask[len(labels)] = True  # missing cells never add a new value
                self._specs.append(("cat", cells, max(size - 1, 1), len(self._masks)))
                self._masks.append(mask)
                self._counts.append(0)
        self._lo = np.full(numeric_count, np.inf)
        self._hi = np.full(numeric_count, -np.inf)

    def reset(self, seed: int) -> None:
        """Re-anchor the running bounds on a fresh cluster seeded at ``seed``."""
        for kind, cells_or_numbers, _parameter, position in self._specs:
            if kind == "num":
                value = cells_or_numbers[seed]
                missing = np.isnan(value)
                self._lo[position] = np.inf if missing else value
                self._hi[position] = -np.inf if missing else value
            else:
                mask = self._masks[position]
                mask[:-1] = False
                code = cells_or_numbers[seed]
                if code != mask.size - 1:
                    mask[code] = True
                    self._counts[position] = 1
                else:
                    self._counts[position] = 0

    def add(self, index: int) -> None:
        """Widen the bounds with record ``index`` (mirrors ``_ClusterBounds.add``)."""
        for kind, cells_or_numbers, _parameter, position in self._specs:
            if kind == "num":
                value = cells_or_numbers[index]
                if not np.isnan(value):
                    self._lo[position] = min(self._lo[position], value)
                    self._hi[position] = max(self._hi[position], value)
            else:
                mask = self._masks[position]
                code = cells_or_numbers[index]
                if code != mask.size - 1 and not mask[code]:
                    mask[code] = True
                    self._counts[position] += 1

    def costs(self, candidates: np.ndarray) -> np.ndarray:
        """Bounding-generalization NCP of the cluster widened by each candidate."""
        cost = np.zeros(candidates.size)
        for kind, cells_or_numbers, parameter, position in self._specs:
            if kind == "num":
                values = cells_or_numbers[candidates]
                width = np.fmax(self._hi[position], values) - np.fmin(
                    self._lo[position], values
                )
                cost += np.maximum(width, 0.0) / parameter
            else:
                extra = ~self._masks[position][cells_or_numbers[candidates]]
                cost += (self._counts[position] + extra - 1.0) / parameter
        return cost / self._n_attributes


class ClusterAnonymizer(Anonymizer):
    """Greedy k-member clustering with minimum-bounding generalization."""

    name = "cluster"
    data_kind = "relational"
    #: Grow clusters through the vectorized :class:`_ClusterKernel`; the
    #: scalar :class:`_ClusterBounds` loop (identical output) remains behind
    #: this switch as the equivalence reference.
    vectorized = True

    def __init__(
        self,
        k: int,
        hierarchies: Mapping[str, Hierarchy] | None = None,
        attributes: Sequence[str] | None = None,
        candidate_limit: int | None = None,
    ):
        self.k = int(k)
        self.hierarchies = dict(hierarchies or {})
        self.attributes = list(attributes) if attributes is not None else None
        #: Upper bound on how many unassigned records are scored when growing
        #: a cluster (``None`` scores the whole frontier).  The vectorized
        #: scoring kernel made the full frontier the default — the old
        #: accuracy cap of 250 is no longer needed for speed — but a limit can
        #: still be set to keep the greedy step near-linear on huge datasets.
        self.candidate_limit = candidate_limit

    def parameters(self) -> dict:
        return {
            "k": self.k,
            "attributes": self.attributes,
            "candidate_limit": self.candidate_limit,
        }

    # -- cluster cost model ------------------------------------------------------
    def _prepare(self, dataset: Dataset, attributes: Sequence[str]) -> None:
        self._numeric: set[str] = set()
        self._domain_span: dict[str, float] = {}
        self._domain_size: dict[str, int] = {}
        for name in attributes:
            attribute = dataset.schema[name]
            domain = [v for v in dataset.column(name) if v is not None]
            if (
                domain
                and attribute.is_numeric
                and all(isinstance(value, (int, float)) for value in domain)
            ):
                self._numeric.add(name)
                low, high = float(min(domain)), float(max(domain))
                self._domain_span[name] = max(high - low, 0.0)
            self._domain_size[name] = len(set(domain)) or 1

    def _cluster_cost(
        self, dataset: Dataset, attributes: Sequence[str], indices: Sequence[int]
    ) -> float:
        """NCP of the minimum bounding generalization of the given records."""
        cost = 0.0
        for name in attributes:
            values = [dataset[index][name] for index in indices]
            if name in self._numeric:
                span = self._domain_span[name]
                if span <= 0:
                    continue
                numeric_values = [float(v) for v in values if v is not None]
                if not numeric_values:
                    continue
                cost += (max(numeric_values) - min(numeric_values)) / span
            else:
                distinct = {str(v) for v in values if v is not None}
                size = self._domain_size[name]
                if size <= 1:
                    continue
                hierarchy = self.hierarchies.get(name)
                if hierarchy is not None and len(distinct) > 1:
                    ancestor = hierarchy.lowest_common_ancestor(distinct)
                    width = hierarchy.leaf_count(ancestor)
                else:
                    width = len(distinct)
                cost += (width - 1) / max(size - 1, 1)
        return cost / max(len(attributes), 1)

    def _generalized_values(
        self, dataset: Dataset, attributes: Sequence[str], indices: Sequence[int]
    ) -> dict[str, str]:
        """The published value per attribute for one cluster."""
        published: dict[str, str] = {}
        for name in attributes:
            values = [dataset[index][name] for index in indices]
            if name in self._numeric:
                numeric_values = [float(v) for v in values if v is not None]
                low, high = min(numeric_values), max(numeric_values)
                if low == high:
                    published[name] = (
                        str(int(low)) if float(low).is_integer() else str(low)
                    )
                else:
                    published[name] = format_interval(low, high)
            else:
                distinct = {str(v) for v in values if v is not None}
                if len(distinct) == 1:
                    published[name] = next(iter(distinct))
                else:
                    hierarchy = self.hierarchies.get(name)
                    if hierarchy is not None:
                        published[name] = hierarchy.lowest_common_ancestor(distinct)
                    else:
                        published[name] = generalized_label(distinct)
        return published

    # -- clustering -----------------------------------------------------------------
    def build_clusters(
        self, dataset: Dataset, attributes: Sequence[str] | None = None
    ) -> list[list[int]]:
        """Greedy k-member clustering; exposed for the RT bounding methods."""
        attributes = list(attributes or self.attributes or relational_quasi_identifiers(dataset))
        validate_k(self.k, len(dataset), "ClusterAnonymizer")
        self._prepare(dataset, attributes)
        if self.vectorized:
            clusters, leftovers = self._grow_clusters_vectorized(dataset, attributes)
        else:
            clusters, leftovers = self._grow_clusters_scalar(dataset, attributes)
        # Attach the leftovers (fewer than k records) to their cheapest cluster.
        for leftover in leftovers:
            best_position = None
            best_cost = None
            for position, cluster in enumerate(clusters):
                cost = self._cluster_cost(dataset, attributes, cluster + [leftover])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_position = position
            if best_position is None:
                raise AlgorithmError(
                    "ClusterAnonymizer: cannot place leftover records; "
                    "the dataset is smaller than k"
                )
            clusters[best_position].append(leftover)
        return clusters

    def _grow_clusters_vectorized(
        self, dataset: Dataset, attributes: Sequence[str]
    ) -> tuple[list[list[int]], list[int]]:
        """Greedy growth with one whole-frontier kernel pass per added member."""
        kernel = _ClusterKernel(self, dataset, attributes)
        unassigned = np.arange(len(dataset), dtype=np.int64)
        clusters: list[list[int]] = []
        while unassigned.size >= self.k:
            seed = int(unassigned[0])
            unassigned = unassigned[1:]
            cluster = [seed]
            kernel.reset(seed)
            while len(cluster) < self.k:
                candidates = (
                    unassigned
                    if self.candidate_limit is None
                    else unassigned[: self.candidate_limit]
                )
                best_position = int(np.argmin(kernel.costs(candidates)))
                best_index = int(candidates[best_position])
                cluster.append(best_index)
                kernel.add(best_index)
                unassigned = np.delete(unassigned, best_position)
            clusters.append(cluster)
        return clusters, [int(index) for index in unassigned]

    def _grow_clusters_scalar(
        self, dataset: Dataset, attributes: Sequence[str]
    ) -> tuple[list[list[int]], list[int]]:
        """The per-candidate Python scoring loop (the kernel's reference)."""
        unassigned = list(range(len(dataset)))
        clusters: list[list[int]] = []
        while len(unassigned) >= self.k:
            seed = unassigned.pop(0)
            cluster = [seed]
            bounds = _ClusterBounds(self, dataset, attributes, seed)
            while len(cluster) < self.k:
                candidates = (
                    unassigned
                    if self.candidate_limit is None
                    else unassigned[: self.candidate_limit]
                )
                best_index = None
                best_cost = None
                for candidate in candidates:
                    cost = bounds.cost_with(candidate)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_index = candidate
                cluster.append(best_index)
                bounds.add(best_index)
                unassigned.remove(best_index)
            clusters.append(cluster)
        return clusters, unassigned

    def generalize_clusters(
        self,
        dataset: Dataset,
        clusters: Sequence[Sequence[int]],
        attributes: Sequence[str] | None = None,
        name_suffix: str = "cluster",
    ) -> Dataset:
        """Publish every cluster's minimum bounding generalization."""
        attributes = list(attributes or self.attributes or relational_quasi_identifiers(dataset))
        if not hasattr(self, "_domain_size") or not self._domain_size:
            self._prepare(dataset, attributes)
        anonymized = dataset.copy(name=f"{dataset.name}[{name_suffix}]")
        columns = {name: dataset.column(name) for name in attributes}
        for cluster in clusters:
            published = self._generalized_values(dataset, attributes, cluster)
            for attribute, value in published.items():
                column = columns[attribute]
                for index in cluster:
                    column[index] = value
        for attribute, column in columns.items():
            anonymized.set_column(attribute, column)
        return anonymized

    def anonymize(self, dataset: Dataset) -> AnonymizationResult:
        attributes = self.attributes or relational_quasi_identifiers(dataset)
        if not attributes:
            raise AlgorithmError(
                "ClusterAnonymizer: the dataset has no relational quasi-identifiers"
            )
        timer = PhaseTimer()
        with timer.phase("clustering"):
            clusters = self.build_clusters(dataset, attributes)
        with timer.phase("generalization"):
            anonymized = self.generalize_clusters(dataset, clusters, attributes)
        gcp = global_certainty_penalty(
            dataset, anonymized, attributes=attributes, hierarchies=self.hierarchies
        )
        sizes = [len(cluster) for cluster in clusters]
        return AnonymizationResult(
            dataset=anonymized,
            algorithm=self.name,
            parameters=self.parameters(),
            runtime_seconds=timer.total,
            phase_seconds=timer.phases,
            statistics={
                "clusters": len(clusters),
                "min_cluster_size": min(sizes) if sizes else 0,
                "max_cluster_size": max(sizes) if sizes else 0,
                "gcp": gcp,
                "cluster_assignment": [list(cluster) for cluster in clusters],
            },
        )
