"""Varying-parameter execution (the Experimentation Module).

SECRETA supports two execution styles: *single parameter execution*, where
all parameters are fixed, and *varying parameter execution*, where the user
"selects the start/end values and step of a parameter that varies, as well as
fixed values for other parameters" and the system plots utility indicators
and runtime against the varying parameter.  This module implements the sweep
machinery used by both the Evaluation and the Comparison mode.

Sweeps can fan out across CPU cores: pass ``mode="process"`` to
:class:`VaryingParameterExperiment` and every sweep point is evaluated in its
own worker process (see :mod:`repro.engine.runner`).  In process mode the
dataset is not pickled into every task: it is exported once to shared memory
and the tasks carry only the small manifest
(:mod:`repro.columnar.shared`); pass a persistent
:class:`~repro.engine.pool.WorkerPool` to reuse workers and the export
across several sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from repro.columnar.shared import SharedDatasetManifest, attach_cached
from repro.datasets.dataset import Dataset
from repro.datasets.domains import DatasetDomains
from repro.engine.checkpoint import CheckpointStore, sweep_point_keys
from repro.engine.config import SWEEPABLE_PARAMETERS, AnonymizationConfig
from repro.engine.evaluator import MethodEvaluator
from repro.engine.pool import WorkerPool
from repro.engine.resilience import ExecutionPolicy
from repro.engine.resources import ExperimentResources
from repro.engine.results import (
    ATTACK_INDICATORS,
    EvaluationReport,
    Series,
    SweepResult,
)
from repro.engine.runner import fan_out
from repro.exceptions import ConfigurationError

#: Indicators extracted from every evaluation report into sweep series.
SWEEP_INDICATORS = (
    "are",
    "runtime_seconds",
    "relational_gcp",
    "transaction_ul",
    "item_frequency_error",
    "discernibility",
    "average_class_size",
) + ATTACK_INDICATORS


@dataclass(frozen=True)
class ParameterSweep:
    """The varying parameter of an experiment: name plus the values to visit."""

    parameter: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigurationError(
                f"cannot vary {self.parameter!r}; expected one of {SWEEPABLE_PARAMETERS}"
            )
        if not self.values:
            raise ConfigurationError("a parameter sweep needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def from_range(
        cls, parameter: str, start: float, end: float, step: float
    ) -> "ParameterSweep":
        """Build a sweep from start/end/step, exactly like the GUI sliders."""
        if step <= 0:
            raise ConfigurationError("the sweep step must be positive")
        if end < start:
            raise ConfigurationError("the sweep end must not precede its start")
        values: list[float] = []
        value = float(start)
        while value <= end + 1e-9:
            values.append(round(value, 10))
            value += step
        if parameter in ("k", "m"):
            values = [int(round(v)) for v in values]
        return cls(parameter, tuple(values))

    def __len__(self) -> int:
        return len(self.values)


def indicator_series(
    reports: Sequence[EvaluationReport],
    values: Sequence[Any],
    parameter: str,
    label: str,
) -> dict[str, Series]:
    """Build one series per indicator from a list of evaluation reports."""
    series: dict[str, Series] = {}
    for indicator in SWEEP_INDICATORS:
        current = Series(
            name=f"{label}:{indicator}", x_label=parameter, y_label=indicator
        )
        populated = False
        for value, report in zip(values, reports):
            if indicator == "are":
                if report.are is not None:
                    current.append(value, report.are)
                    populated = True
            elif indicator == "runtime_seconds":
                current.append(value, report.runtime_seconds)
                populated = True
            elif indicator in report.utility:
                current.append(value, report.utility[indicator])
                populated = True
            elif indicator in ATTACK_INDICATORS:
                attack_value = report.attack_indicator(indicator)
                if attack_value is not None:
                    current.append(value, attack_value)
                    populated = True
        if populated:
            series[indicator] = current
    return series


@dataclass(frozen=True)
class EvaluationContext:
    """What every task of one sweep or comparison evaluates against.

    Picklable: it travels inside every task.  ``dataset`` is the dataset
    itself in this process, or its shared-memory manifest in a worker
    process (:func:`~repro.engine.runner.fan_out` swaps it in).
    """

    dataset: Dataset | SharedDatasetManifest
    resources: ExperimentResources
    verify_privacy: bool = False
    universe_mode: str = "original"
    simulate_attacks: bool = False

    def attached_dataset(self) -> Dataset:
        """The dataset, attaching the shared export (once per process)."""
        if isinstance(self.dataset, SharedDatasetManifest):
            return attach_cached(self.dataset)
        return self.dataset


def private_resources(
    dataset: Dataset, resources: ExperimentResources
) -> ExperimentResources:
    """A run's own copy of ``resources``, with the domain snapshot captured.

    Evaluation fills missing hierarchies and policies in place
    (:meth:`~repro.engine.resources.ExperimentResources.ensure_for`).  On a
    private copy those fills never reach resources the caller can see —
    exactly as process workers only ever touch their pickled copies — so a
    re-run derives the same checkpoint keys in every execution mode.
    """
    private = dataclasses.replace(resources, hierarchies=dict(resources.hierarchies))
    if private.domains is None and len(dataset):
        # Captured once so every task (and worker process) shares one
        # equal snapshot of the original domains.
        private.domains = DatasetDomains.capture(dataset)
    return private


def _evaluate_sweep_point(
    task: tuple[EvaluationContext, tuple[AnonymizationConfig, str, Any]],
) -> EvaluationReport:
    """Evaluate one (configuration, parameter, value) sweep point.

    Module-level so process-mode execution can pickle it.
    """
    context, (config, parameter, value) = task
    evaluator = MethodEvaluator(
        context.attached_dataset(),
        context.resources,
        verify_privacy=context.verify_privacy,
        universe_mode=context.universe_mode,
        simulate_attacks=context.simulate_attacks,
    )
    return evaluator.evaluate(config.with_parameter(parameter, value))


class VaryingParameterExperiment:
    """Run one configuration across a parameter sweep and collect series.

    ``mode`` selects how sweep points execute: ``"sequential"`` (default)
    or ``"process"`` to fan the CPU-bound anonymization runs out across
    cores.  ``max_workers`` caps the pool size.  In process mode the
    dataset ships to workers as a shared-memory manifest; pass ``pool`` (a
    :class:`~repro.engine.pool.WorkerPool`) to keep the workers and the
    export alive across several ``run`` calls instead of rebuilding them per
    sweep.

    ``policy`` (an :class:`~repro.engine.resilience.ExecutionPolicy`)
    controls fault tolerance: retries, per-point timeouts, crash recovery
    and the degradation ladder.  Process fan-out is resilient even without
    one; the resulting :class:`~repro.engine.resilience.RunReport` is
    attached to the :class:`SweepResult` as ``run_report``.
    """

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = False,
        mode: str = "sequential",
        max_workers: int | None = None,
        pool: WorkerPool | None = None,
        universe_mode: str = "original",
        policy: ExecutionPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        simulate_attacks: bool = False,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        self.mode = mode
        self.max_workers = max_workers
        self.pool = pool
        self.universe_mode = universe_mode
        self.policy = policy
        self.checkpoint = checkpoint
        self.simulate_attacks = simulate_attacks

    def run(self, config: AnonymizationConfig, sweep: ParameterSweep) -> SweepResult:
        context = EvaluationContext(
            self.dataset,
            private_resources(self.dataset, self.resources),
            self.verify_privacy,
            self.universe_mode,
            self.simulate_attacks,
        )
        # Checkpoint keys are derived here, in the orchestrating process and
        # *after* the domain snapshot above, from the real dataset — so a
        # resumed run (which captures the identical snapshot) computes the
        # identical keys regardless of execution mode.
        keys = (
            sweep_point_keys(
                self.dataset,
                context.resources,
                self.verify_privacy,
                self.universe_mode,
                config,
                sweep,
                self.simulate_attacks,
            )
            if self.checkpoint is not None
            else None
        )
        reports, report = fan_out(
            context,
            [(config, sweep.parameter, value) for value in sweep.values],
            _evaluate_sweep_point,
            mode=self.mode,
            max_workers=self.max_workers,
            pool=self.pool,
            policy=self.policy,
            checkpoint=self.checkpoint,
            checkpoint_keys=keys,
        )
        series = indicator_series(
            reports, list(sweep.values), sweep.parameter, config.display_label
        )
        return SweepResult(
            configuration=config.describe(),
            parameter=sweep.parameter,
            values=list(sweep.values),
            series=series,
            reports=reports,
            run_report=report,
        )
