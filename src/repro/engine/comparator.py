"""The Method Comparator: SECRETA's Comparison mode.

The Comparison mode lets the data publisher design a benchmark: a set of
configurations (each pairing algorithms, a bounding method and fixed
parameters) plus a varying parameter with its start/end/step.  Every
configuration is executed across the sweep and the results are collected into
per-indicator series so they can be plotted side by side — "an interactive
and progressive comparison of sets of algorithms, with respect to their
utility and efficiency".

Comparisons can fan out across CPU cores: pass ``mode="process"`` and every
configuration's sweep runs in its own worker process; the dataset is
exported once to shared memory and each task carries only the picklable
manifest (pass ``pool`` to reuse workers and the export across comparisons).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datasets.dataset import Dataset
from repro.engine.checkpoint import CheckpointStore, configuration_keys
from repro.engine.config import AnonymizationConfig
from repro.engine.experiment import (
    EvaluationContext,
    ParameterSweep,
    VaryingParameterExperiment,
    private_resources,
)
from repro.engine.pool import WorkerPool
from repro.engine.resilience import ExecutionPolicy
from repro.engine.resources import ExperimentResources
from repro.engine.results import ComparisonReport, SweepResult
from repro.engine.runner import fan_out
from repro.exceptions import ConfigurationError


def _run_configuration(
    task: tuple[
        EvaluationContext,
        tuple[AnonymizationConfig, ParameterSweep, CheckpointStore | None],
    ],
) -> SweepResult:
    """Run one configuration across the sweep (module-level: picklable).

    The checkpoint travels inside the task so a comparison checkpoints at
    both granularities: whole-configuration cells out here, per-sweep-point
    cells inside the worker's own experiment.
    """
    context, (config, sweep, checkpoint) = task
    experiment = VaryingParameterExperiment(
        context.attached_dataset(),
        context.resources,
        verify_privacy=context.verify_privacy,
        universe_mode=context.universe_mode,
        checkpoint=checkpoint,
        simulate_attacks=context.simulate_attacks,
    )
    return experiment.run(config, sweep)


class MethodComparator:
    """Execute and compare multiple configurations over a parameter sweep."""

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = False,
        max_workers: int | None = None,
        mode: str = "sequential",
        pool: WorkerPool | None = None,
        universe_mode: str = "original",
        policy: ExecutionPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        simulate_attacks: bool = False,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        self.max_workers = max_workers
        self.mode = mode
        self.pool = pool
        self.universe_mode = universe_mode
        self.policy = policy
        self.checkpoint = checkpoint
        self.simulate_attacks = simulate_attacks

    def compare(
        self,
        configurations: Sequence[AnonymizationConfig] | Iterable[AnonymizationConfig],
        sweep: ParameterSweep,
    ) -> ComparisonReport:
        """Run every configuration across the sweep and collect the series."""
        configurations = list(configurations)
        if not configurations:
            raise ConfigurationError("the Comparison mode needs at least one configuration")

        context = EvaluationContext(
            self.dataset,
            private_resources(self.dataset, self.resources),
            self.verify_privacy,
            self.universe_mode,
            self.simulate_attacks,
        )
        # Whole-configuration checkpoint keys, derived in the orchestrating
        # process from the real dataset (workers additionally checkpoint
        # their per-sweep-point cells — see ``_run_configuration``).
        keys = (
            configuration_keys(
                self.dataset,
                context.resources,
                self.verify_privacy,
                self.universe_mode,
                configurations,
                sweep,
                self.simulate_attacks,
            )
            if self.checkpoint is not None
            else None
        )
        sweeps, report = fan_out(
            context,
            [(config, sweep, self.checkpoint) for config in configurations],
            _run_configuration,
            mode=self.mode,
            max_workers=self.max_workers,
            pool=self.pool,
            policy=self.policy,
            checkpoint=self.checkpoint,
            checkpoint_keys=keys,
        )
        return ComparisonReport(
            parameter=sweep.parameter,
            values=list(sweep.values),
            sweeps=list(sweeps),
            run_report=report,
        )

    def compare_fixed(
        self,
        configurations: Sequence[AnonymizationConfig],
        parameter: str,
        value: object,
    ) -> ComparisonReport:
        """Single-parameter-value comparison (a degenerate sweep of length one)."""
        return self.compare(configurations, ParameterSweep(parameter, (value,)))
