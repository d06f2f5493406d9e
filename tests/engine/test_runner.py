"""Unit tests for the execution runner (`repro.engine.runner`).

Covers mode validation (the two backends and the unknown-mode error, which
now includes the removed ``"thread"`` mode), order preservation across both
backends, the empty/single-task shortcuts, ``max_workers`` validation, and the clear error
process mode raises for unpicklable workers.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.columnar.shared import SharedDatasetManifest
from repro.datasets import generate_rt_dataset
from repro.engine import CheckpointStore, ExperimentResources, RunReport
from repro.engine.experiment import EvaluationContext, private_resources
from repro.engine.pool import WorkerPool, _remap_task, validate_max_workers
from repro.engine.resilience import ExecutionPolicy
from repro.engine.runner import EXECUTION_MODES, fan_out, resolve_mode, run_many
from repro.exceptions import ConfigurationError, TaskError


# Module-level workers: process mode must be able to pickle them.
def _square(value: int) -> int:
    return value * value


def _slow_identity(value: float) -> float:
    # Later tasks finish first unless the backend preserves submission order.
    time.sleep(0.05 / (1.0 + value))
    return value


def _explode(value):  # pragma: no cover - must never be called
    raise AssertionError("worker must not run for an empty task list")


class TestResolveMode:
    def test_two_execution_modes(self):
        assert EXECUTION_MODES == ("sequential", "process")

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_explicit_modes_pass_through(self, mode):
        assert resolve_mode(mode=mode) == mode

    @pytest.mark.parametrize("mode", ["thread", "threads", "parallel", "", "PROCESS"])
    def test_unknown_mode_raises_configuration_error(self, mode):
        with pytest.raises(ConfigurationError, match="unknown execution mode"):
            resolve_mode(mode=mode)

    def test_thread_mode_error_lists_the_valid_backends(self):
        with pytest.raises(ConfigurationError, match="'sequential', 'process'"):
            run_many([1, 2], _square, mode="thread")


class TestRunMany:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_empty_tasks_shortcut(self, mode):
        assert run_many([], _explode, mode=mode) == []

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_single_task_runs_in_this_process(self, mode):
        # The one-task shortcut never pays pool startup: even in process
        # mode the worker executes in the calling process.
        assert run_many([os.getpid()], _same_pid, mode=mode) == [True]

    def test_iterable_tasks_are_accepted(self):
        assert run_many(iter(range(4)), _square) == [0, 1, 4, 9]

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_order_preserved(self, mode):
        values = [3.0, 0.0, 2.0, 1.0, 4.0]
        assert run_many(values, _slow_identity, mode=mode, max_workers=2) == values

    def test_process_mode_computes_results(self):
        assert run_many([1, 2, 3], _square, mode="process", max_workers=2) == [1, 4, 9]

    @pytest.mark.parametrize("bad_workers", [0, -1, -8])
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_nonpositive_max_workers_rejected(self, mode, bad_workers):
        with pytest.raises(ConfigurationError, match="max_workers"):
            run_many([1, 2], _square, mode=mode, max_workers=bad_workers)

    def test_max_workers_one_is_allowed(self):
        assert run_many([1, 2], _square, mode="process", max_workers=1) == [1, 4]
        assert validate_max_workers(1) is None
        assert validate_max_workers(None) is None

    def test_unpicklable_worker_raises_clear_error(self):
        with pytest.raises(ConfigurationError, match="module-level function"):
            # repro: allow[REP006] -- deliberately unpicklable: tests the error
            run_many([1, 2], lambda value: value, mode="process")

    def test_unpicklable_worker_error_names_the_worker(self):
        def local_closure(value):
            return value

        with pytest.raises(ConfigurationError, match="picklable worker"):
            # repro: allow[REP006] -- deliberately unpicklable: tests the error
            run_many([1, 2], local_closure, mode="process")

    def test_unpicklable_task_raises_clear_error(self):
        tasks = [(1, threading.Lock()), (2, threading.Lock())]
        with pytest.raises(ConfigurationError, match="could not pickle a task"):
            run_many(tasks, _square, mode="process")

    def test_worker_type_error_surfaces_with_task_identity(self):
        # A genuine TypeError raised *by the worker* must not be mislabelled
        # as a pickling problem: it surfaces as a TaskError naming the failed
        # task, with the original TypeError chained as __cause__.
        with pytest.raises(TaskError, match="task 0") as excinfo:
            run_many([1, 2], _raise_type_error, mode="process")
        error = excinfo.value
        assert error.task_index == 0
        assert error.attempts == 1
        assert error.backend == "process"
        assert isinstance(error.__cause__, TypeError)
        assert "boom-from-the-worker" in str(error.__cause__)

    def test_explicit_pool_is_used_and_survives(self):
        with WorkerPool(max_workers=1) as pool:
            assert run_many([1, 2, 3], _square, mode="process", pool=pool) == [1, 4, 9]
            # The pool stays open for further calls (persistent workers).
            assert run_many([4, 5], _square, mode="process", pool=pool) == [16, 25]
        with pytest.raises(ConfigurationError, match="closed"):
            pool.map(_square, [1, 2])


def _same_pid(parent_pid: int) -> bool:
    return os.getpid() == parent_pid


def _raise_type_error(value):
    raise TypeError("boom-from-the-worker")


def _describe_task(task) -> tuple:
    """Where a fan-out task ran and what its context's dataset slot held."""
    context, item = task
    dataset = context.dataset
    segment = dataset.segment if isinstance(dataset, SharedDatasetManifest) else None
    return os.getpid(), type(dataset).__name__, segment, item


@pytest.fixture(scope="module")
def context():
    dataset = generate_rt_dataset(n_records=30, n_items=8, seed=5)
    return EvaluationContext(dataset, ExperimentResources())


class TestFanOut:
    def test_in_process_fast_path_has_no_report(self, context):
        results, report = fan_out(context, ["a", "b"], _describe_task)
        assert report is None
        assert results == [
            (os.getpid(), "Dataset", None, "a"),
            (os.getpid(), "Dataset", None, "b"),
        ]

    def test_policy_or_checkpoint_asks_for_a_report(self, context, tmp_path):
        _, with_policy = fan_out(
            context, ["a"], _describe_task, policy=ExecutionPolicy()
        )
        _, with_store = fan_out(
            context,
            ["a"],
            _describe_task,
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
            checkpoint_keys=["ab"],
        )
        assert isinstance(with_policy, RunReport)
        assert with_store.checkpoint_counts() == {"hit": 0, "miss": 1, "corrupt": 0}

    def test_single_item_process_fan_out_runs_in_this_process(self, context):
        results, report = fan_out(context, ["a"], _describe_task, mode="process")
        assert results == [(os.getpid(), "Dataset", None, "a")]
        assert report is None

    def test_process_fan_out_ships_a_manifest_and_unlinks_it(self, context):
        results, report = fan_out(
            context, ["a", "b", "c"], _describe_task, mode="process", max_workers=2
        )
        assert [item for *_, item in results] == ["a", "b", "c"]
        assert all(pid != os.getpid() for pid, *_ in results)
        assert {kind for _, kind, _, _ in results} == {"SharedDatasetManifest"}
        (segment,) = {segment for _, _, segment, _ in results}
        assert report.backend == "process" and len(report.tasks) == 3
        # The ephemeral pool is gone, and its export with it.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)


class TestEvaluationContext:
    def test_crash_remap_rewrites_the_manifest_inside_a_context(self, context):
        with WorkerPool(max_workers=1) as pool:
            stale = pool.share(context.dataset)
            shared = EvaluationContext(stale, context.resources, True, "seed", True)
            fresh = dataclasses.replace(stale, segment="fresh")
            remapped, item = _remap_task({stale.segment: fresh}, (shared, "a"))
        assert item == "a"
        assert remapped.dataset is fresh
        assert remapped == EvaluationContext(
            fresh, context.resources, True, "seed", True
        )

    def test_private_resources_never_alias_the_callers(self, context):
        caller = ExperimentResources()
        private = private_resources(context.dataset, caller)
        private.hierarchies["Age"] = None
        assert caller.hierarchies == {} and caller.domains is None
        assert private.domains is not None
