"""Execution of multiple anonymization requests: sequential or processes.

SECRETA's backend "invokes one or more instances (threads) of the
Anonymization Module" and collects their results.  The algorithms are
CPU-bound pure Python, so the pure-Python equivalent offers two execution
modes:

* ``"sequential"`` — the default: one task after another in this process,
* ``"process"`` — a process pool that actually fans CPU-bound anonymization
  out across cores.  The worker callable and every task/result must be
  picklable (module-level functions, not closures or lambdas).  Large
  datasets should not travel inside the tasks: :func:`fan_out` exports the
  dataset once to shared memory and ships the manifest instead (see
  ``docs/parallelism.md``).
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.engine.pool import WorkerPool, validate_max_workers
from repro.engine.resilience import DEFAULT_POLICY, ExecutionPolicy, RunReport, execute_tasks
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.engine.checkpoint import CheckpointStore
    from repro.engine.experiment import EvaluationContext

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

EXECUTION_MODES = ("sequential", "process")


def resolve_mode(mode: str) -> str:
    """Validate an execution mode name (the one place modes are checked)."""
    if mode not in EXECUTION_MODES:
        raise ConfigurationError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        )
    return mode


@contextmanager
def _process_pool(
    pool: WorkerPool | None,
    max_workers: int | None,
    task_count: int,
    policy: ExecutionPolicy | None,
) -> Iterator[WorkerPool]:
    """The caller's persistent ``pool``, or an ephemeral one.

    The ephemeral pool is the only pool the engine creates itself: one
    worker per task capped at the CPU count (or ``max_workers``), torn down
    — segments unlinked — when the block exits.
    """
    if pool is not None:
        yield pool
        return
    workers = max_workers or min(task_count, os.cpu_count() or 1)
    with WorkerPool(max_workers=workers, policy=policy) as ephemeral:
        yield ephemeral


def run_many(
    tasks: Sequence[TaskT] | Iterable[TaskT],
    worker: Callable[[TaskT], ResultT],
    max_workers: int | None = None,
    mode: str = "sequential",
    pool: WorkerPool | None = None,
    policy: ExecutionPolicy | None = None,
    report: RunReport | None = None,
    checkpoint: "CheckpointStore | None" = None,
    checkpoint_keys: Sequence[str] | None = None,
) -> list[ResultT]:
    """Apply ``worker`` to every task, preserving input order.

    ``mode`` selects the execution backend (see the module docstring).
    Process mode defaults to one worker per task capped at the CPU count;
    ``max_workers`` must be positive (or ``None`` for the default).

    ``pool`` supplies a persistent :class:`~repro.engine.pool.WorkerPool` for
    process mode; without one, an ephemeral pool is created for the call.
    ``pool`` is ignored by sequential mode, and its own worker count takes
    precedence over ``max_workers``.

    ``policy`` selects the :class:`~repro.engine.resilience.ExecutionPolicy`
    the run executes under.  Process mode is *always* resilient (per-task
    futures, bounded retries, crash recovery; the pool's default policy
    applies when ``policy`` is omitted).  Sequential mode runs the plain
    fast path unless a ``policy`` or ``report`` is passed, in which case it
    routes through the same engine — with retries, deterministic backoff and
    the per-task attempt history filled into ``report``.

    ``checkpoint`` threads a durable
    :class:`~repro.engine.checkpoint.CheckpointStore` through the run: every
    task needs a content-addressed key in ``checkpoint_keys``, completed
    tasks are persisted the moment they finish, and a re-run serves stored
    cells instead of recomputing (see :mod:`repro.engine.checkpoint`).
    """
    resolved = resolve_mode(mode)
    validate_max_workers(max_workers)
    tasks = list(tasks)
    if not tasks:
        return []
    if checkpoint is not None:
        from repro.engine.checkpoint import run_checkpointed

        return run_checkpointed(
            tasks,
            worker,
            checkpoint,
            checkpoint_keys,
            max_workers=max_workers,
            mode=resolved,
            pool=pool,
            policy=policy,
            report=report,
        )
    resilient = policy is not None or report is not None
    if not resilient and (resolved == "sequential" or len(tasks) == 1):
        return [worker(task) for task in tasks]
    if resolved == "sequential":
        return execute_tasks(tasks, worker, policy or DEFAULT_POLICY, report=report)
    with _process_pool(pool, max_workers, len(tasks), policy) as active:
        return active.map(worker, tasks, policy=policy, report=report)


def fan_out(
    context: "EvaluationContext",
    items: Sequence[Any],
    worker: Callable[[tuple[Any, Any]], ResultT],
    mode: str = "sequential",
    max_workers: int | None = None,
    pool: WorkerPool | None = None,
    policy: ExecutionPolicy | None = None,
    checkpoint: "CheckpointStore | None" = None,
    checkpoint_keys: Sequence[str] | None = None,
) -> tuple[list[ResultT], RunReport | None]:
    """Run ``worker`` over one ``(context, item)`` task per item.

    The one fan-out the experiment and the comparator share.  In process
    mode with more than one task, the context's dataset is exported to
    shared memory and every task carries the small manifest instead — on
    the caller's persistent ``pool`` when given (the export is cached
    there), otherwise on an ephemeral pool torn down before returning.
    Anything else runs in this process on the context as given.

    Returns the results in item order and the run's
    :class:`~repro.engine.resilience.RunReport`: always one for a process
    fan-out, otherwise only when a ``policy`` or ``checkpoint`` asks for
    the resilient path (``None`` on the plain fast path).
    """
    resolved = resolve_mode(mode)
    validate_max_workers(max_workers)
    options: dict[str, Any] = dict(
        policy=policy, checkpoint=checkpoint, checkpoint_keys=checkpoint_keys
    )
    if resolved == "process" and len(items) > 1:
        report = RunReport()
        with _process_pool(pool, max_workers, len(items), policy) as active:
            # The pool (not a bare export) owns the segment, so crash
            # recovery can re-export it.
            shared = dataclasses.replace(
                context, dataset=active.share(context.attached_dataset())
            )
            results = run_many(
                [(shared, item) for item in items],
                worker,
                mode="process",
                pool=active,
                report=report,
                **options,
            )
        return results, report
    in_process = (
        RunReport() if policy is not None or checkpoint is not None else None
    )
    results = run_many(
        [(context, item) for item in items], worker, report=in_process, **options
    )
    return results, in_process
