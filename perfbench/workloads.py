"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload has the same shape:

* :meth:`setup` builds everything the workflow needs from the seed — the
  dataset, hierarchies, query workload, domain snapshot and warm columnar
  caches, plus the worker pool and its shared-memory export where the
  workload fans out;
* :meth:`run_pass` times the workflow call (the cold leg), then serves
  the same cells again from a ``CheckpointStore`` (the resume leg), and
  returns both legs' indicator series with runtimes left out, which the
  output checks digest.

``repro`` callables are looked up as module attributes at call time, so the
tracing wrappers (``tracing.install``) see the benchmark's own calls too.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
import repro.engine.checkpoint as checkpoint
import repro.hierarchy as hierarchy
import repro.queries as queries

ITEMS = "Items"
HIERARCHY_FANOUT = 4
N_QUERIES = 40


@dataclass
class Inputs:
    """What :meth:`Workload.setup` hands to the timed calls."""

    dataset: Any
    resources: Any
    pool: Any = None
    session: Any = None


@dataclass
class PassResult:
    """One cold leg plus its resume leg."""

    cold_s: float
    #: One sample per timed resume call.
    resume_s: list[float]
    series: Any
    resumed_series: Any
    failed: int
    run_reports: list = field(default_factory=list)
    rt_statistics: list = field(default_factory=list)


def prepare_resources(dataset: Any, seed: int) -> Any:
    """Hierarchies, query workload and domain snapshot, built once per setup."""
    qi = [a.name for a in dataset.schema.relational if a.quasi_identifier]
    resources = repro.ExperimentResources(
        hierarchies=hierarchy.build_hierarchies_for_dataset(
            dataset, fanout=HIERARCHY_FANOUT, attributes=qi
        ),
        item_hierarchy=hierarchy.build_item_hierarchy(
            dataset.item_universe(ITEMS), fanout=HIERARCHY_FANOUT, attribute=ITEMS
        ),
        workload=queries.generate_query_workload(dataset, n_queries=N_QUERIES, seed=seed),
        domains=repro.DatasetDomains.capture(dataset),
    )
    # Warm the caches every workflow call reads: the columnar views and the
    # content fingerprint that checkpoint keys hash.
    for attribute in qi + [ITEMS]:
        dataset.columnar(attribute)
    dataset.fingerprint()
    return resources


def comparison_series(report: Any) -> list:
    """Every series of a comparison except runtime, in a canonical order."""
    return [
        (sweep.configuration["label"], name, list(series.x), list(series.y))
        for sweep in report.sweeps
        for name, series in sorted(sweep.series.items())
        if name != "runtime_seconds"
    ]


def _run_reports(report: Any) -> list:
    reports = [report.run_report] + [sweep.run_report for sweep in report.sweeps]
    return [run for run in reports if run is not None]


class Workload:
    name = ""
    #: Sweep cells one cold leg computes.
    cells_per_pass = 0
    #: Record count per scale; ``tiny`` is the smoke-test size.
    records = {"full": 0, "tiny": 0}
    #: Timed resume calls per pass (each one serves every cell again).
    resume_repeats = 1

    def __init__(self, scale: str, work: Path) -> None:
        self.n_records = self.records[scale]
        self.work = work

    def generate(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, seed: int) -> Inputs:
        dataset = self.generate(seed)
        return Inputs(dataset, prepare_resources(dataset, seed))

    def teardown(self, inputs: Inputs) -> None:
        if inputs.pool is not None:
            inputs.pool.close()

    def fresh_store(self) -> Any:
        """An empty checkpoint store (the previous pass's store is dropped)."""
        directory = self.work / "store"
        shutil.rmtree(directory, ignore_errors=True)
        return repro.engine.CheckpointStore(directory)

    def run_pass(self, inputs: Inputs, clock: Any) -> PassResult:
        """One cold leg and its resume leg.

        Each pass starts from a shallow copy of the set-up's resources: the
        engine fills in missing policies in place, and a pass must not
        inherit them from the pass before it.
        """
        return self.timed_pass(
            dataclasses.replace(inputs, resources=dataclasses.replace(inputs.resources)),
            clock,
        )

    def timed_pass(self, inputs: Inputs, clock: Any) -> PassResult:
        raise NotImplementedError

    def timed_resume(self, clock: Any, serve: Any) -> tuple[Any, list[float]]:
        """Time ``serve()`` ``resume_repeats`` times; every call is a sample."""
        samples = []
        for _ in range(self.resume_repeats):
            started = clock()
            served = serve()
            samples.append(clock() - started)
        return served, samples

    def digest(self, series: Any) -> str:
        return checkpoint.stable_digest(series)


class CompareKm(Workload):
    """Fig. 4 Comparison mode over four RT configurations (sequential)."""

    name = "fig4-compare-km"
    records = {"full": 500, "tiny": 120}
    sweep_values = (5, 25)
    cells_per_pass = 8
    #: Serving four small cells takes milliseconds.
    resume_repeats = 20

    def configurations(self) -> list:
        rt = repro.rt_config
        return [
            rt("cluster", "apriori", "rtmerger", k=5, m=2, delta=0.6),
            rt("incognito", "apriori", "rmerger", k=5, m=2, delta=0.6),
            rt("cluster", "lra", "tmerger", k=5, m=2, delta=0.6),
            rt("cluster", "vpa", "rtmerger", k=5, m=2, delta=0.6),
        ]

    def generate(self, seed: int) -> Any:
        return repro.generate_rt_dataset(n_records=self.n_records, n_items=40, seed=seed)

    def timed_pass(self, inputs: Inputs, clock: Any) -> PassResult:
        configurations = self.configurations()
        sweep = repro.ParameterSweep("k", self.sweep_values)
        started = clock()
        report = repro.MethodComparator(inputs.dataset, inputs.resources).compare(
            configurations, sweep
        )
        cold_s = clock() - started
        # Persist the finished cells under the keys a checkpointed run of
        # the same call derives, then serve the call from the store.
        store = self.fresh_store()
        keys = checkpoint.configuration_keys(
            inputs.dataset, inputs.resources, False, "original", configurations, sweep
        )
        for key, result in zip(keys, report.sweeps):
            store.store(key, result)
        resumed, resume_s = self.timed_resume(
            clock,
            lambda: repro.MethodComparator(
                inputs.dataset, inputs.resources, checkpoint=store
            ).compare(configurations, sweep),
        )
        hits = resumed.run_report.checkpoint_counts()["hit"]
        return PassResult(
            cold_s=cold_s,
            resume_s=resume_s,
            series=comparison_series(report),
            resumed_series=comparison_series(resumed),
            failed=0 if hits == len(configurations) else self.cells_per_pass,
            run_reports=_run_reports(report) + _run_reports(resumed),
            rt_statistics=[
                cell.result.statistics for result in report.sweeps for cell in result.reports
            ],
        )


class EvaluateConstraint(Workload):
    """Fig. 3 Evaluation mode: COAT and PCTA with every indicator."""

    name = "fig3-evaluate-constraint"
    records = {"full": 10_000, "tiny": 600}
    cases = [(algorithm, k) for algorithm in ("coat", "pcta") for k in (5, 50, 250)]
    cells_per_pass = len(cases)
    resume_repeats = 2

    def generate(self, seed: int) -> Any:
        return repro.generate_rt_dataset(
            n_records=self.n_records, n_items=100, skew=2.5, seed=seed
        )

    def setup(self, seed: int) -> Inputs:
        inputs = super().setup(seed)
        inputs.session = repro.Session(inputs.dataset)
        return inputs

    @staticmethod
    def row(report: Any) -> tuple:
        privacy = {
            key: value
            for key, value in report.privacy.items()
            if not key.endswith("_witness")
        }
        attacks = {
            name: (attack.empirical_k, attack.max_risk)
            for name, attack in report.attacks.items()
        }
        configuration = report.configuration
        return (
            configuration["label"],
            configuration["k"],
            report.are,
            report.utility,
            privacy,
            attacks,
        )

    @staticmethod
    def cell_ok(report: Any, k: int) -> bool:
        item = report.attacks.get("item")
        return (
            report.privacy.get("km_anonymous") is True
            and item is not None
            and item.empirical_k is not None
            and item.empirical_k >= k
        )

    def timed_pass(self, inputs: Inputs, clock: Any) -> PassResult:
        export_dir = self.work / "export"
        reports = []
        started = clock()
        for algorithm, k in self.cases:
            report = inputs.session.evaluate(
                repro.transaction_config(algorithm, k=k, m=1),
                resources=inputs.resources,
                simulate_attacks=True,
            )
            inputs.session.exporter(export_dir).export_evaluation(
                report, stem=f"{algorithm}-k{k}"
            )
            reports.append(report)
        cold_s = clock() - started
        shutil.rmtree(export_dir, ignore_errors=True)
        store = self.fresh_store()
        keys = [
            checkpoint.task_key(self.name, inputs.dataset.fingerprint(), algorithm, k)
            for algorithm, k in self.cases
        ]
        for key, report in zip(keys, reports):
            store.store(key, report)
        resumed, resume_s = self.timed_resume(
            clock, lambda: [store.load(key) for key in keys]
        )
        failed = sum(
            not self.cell_ok(report, k) or outcome.status != "hit"
            for report, outcome, (_, k) in zip(reports, resumed, self.cases)
        )
        return PassResult(
            cold_s=cold_s,
            resume_s=resume_s,
            series=[self.row(report) for report in reports],
            resumed_series=[
                self.row(outcome.value) for outcome in resumed if outcome.status == "hit"
            ],
            failed=failed,
        )


class ResumeProcess(Workload):
    """Fig. 4 Comparison mode in process mode, cold and resumed."""

    name = "fig4-resume-process"
    records = {"full": 5_000, "tiny": 400}
    sweep_values = (5, 50, 250)
    cells_per_pass = 12
    resume_repeats = 3
    workers = 2

    def configurations(self) -> list:
        return [
            repro.transaction_config("coat", m=1),
            repro.transaction_config("pcta", m=1),
            repro.relational_config("incognito"),
            repro.relational_config("full-subtree"),
        ]

    def generate(self, seed: int) -> Any:
        return repro.generate_rt_dataset(n_records=self.n_records, skew=2.5, seed=seed)

    def setup(self, seed: int) -> Inputs:
        inputs = super().setup(seed)
        inputs.pool = repro.engine.WorkerPool(max_workers=self.workers)
        # Start the workers and export the dataset before the first timed
        # call; both are reused by every pass.
        for _ in range(self.workers):
            inputs.pool.submit(os.getpid).result()
        inputs.pool.share(inputs.dataset)
        return inputs

    def _compare(self, inputs: Inputs, store: Any) -> Any:
        comparator = repro.MethodComparator(
            inputs.dataset,
            inputs.resources,
            mode="process",
            pool=inputs.pool,
            checkpoint=store,
        )
        return comparator.compare(
            self.configurations(), repro.ParameterSweep("k", self.sweep_values)
        )

    def timed_pass(self, inputs: Inputs, clock: Any) -> PassResult:
        store = self.fresh_store()
        started = clock()
        report = self._compare(inputs, store)
        cold_s = clock() - started
        resumed, resume_s = self.timed_resume(clock, lambda: self._compare(inputs, store))
        served = resumed.run_report.checkpoint_counts()["hit"]
        return PassResult(
            cold_s=cold_s,
            resume_s=resume_s,
            series=comparison_series(report),
            resumed_series=comparison_series(resumed),
            failed=0 if served == len(report.sweeps) else self.cells_per_pass,
            run_reports=_run_reports(report) + _run_reports(resumed),
        )


WORKLOADS = {cls.name: cls for cls in (CompareKm, EvaluateConstraint, ResumeProcess)}
