"""Outside-in tracing for the workflow benchmark.

The program has no tracing of its own, so this module records spans and
counts from the outside: :func:`install` replaces the public functions and
methods of each ``repro`` layer with thin wrappers.  A module-level function
is patched in every ``repro`` module that holds a reference to it (for
example ``greedy_km_anonymize`` is imported by name into ``apriori``, ``lra``
and ``vpa``), so each caller finds the wrapper where it looks the name up.
Methods are patched on the class that defines them.

Install the wrappers before a :class:`~repro.engine.pool.WorkerPool` forks
its workers: the workers inherit them.  A worker writes the spans of each
finished task to ``spans-<pid>.jsonl`` in the trace directory, and the
benchmark process merges those files into its own record when the traced
leg ends.  Spans are ``(id, name, start, end, parent)`` tuples whose ids
carry the recording process id; the trace file adds the run id.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Span names of the traced layers, with the callables each one wraps:
#: ``(module, attribute)`` for functions, ``(module, class, method)`` for
#: methods.  The span name is the layer name the per-layer metrics use.
FUNCTION_SPANS: dict[str, list[tuple[str, ...]]] = {
    "datasets.generate": [("repro.datasets.generators", "generate_rt_dataset")],
    "hierarchy.build": [
        ("repro.hierarchy.builders", "build_hierarchies_for_dataset"),
        ("repro.hierarchy.builders", "build_item_hierarchy"),
    ],
    "queries.workload": [("repro.queries.workload", "generate_query_workload")],
    "policies.generate": [
        ("repro.policies.generation", "generate_privacy_policy"),
        ("repro.policies.generation", "generate_utility_policy"),
    ],
    "queries.are": [("repro.queries.are", "average_relative_error")],
    # ``utility_loss`` has a span of its own so its calls can be counted;
    # ``metrics.utility_s`` adds both spans' self time.
    "metrics.utility_loss": [("repro.metrics.transaction", "utility_loss")],
    "metrics.utility": [
        ("repro.metrics.transaction", "item_frequency_error"),
        ("repro.metrics.transaction", "average_item_frequency_error"),
        ("repro.metrics.relational", "global_certainty_penalty"),
        ("repro.metrics.relational", "discernibility_metric"),
        ("repro.metrics.relational", "average_class_size"),
    ],
    "metrics.privacy_checks": [
        ("repro.metrics.privacy_checks", "min_class_size"),
        ("repro.metrics.privacy_checks", "k_violations"),
        ("repro.metrics.privacy_checks", "km_violations"),
        ("repro.metrics.privacy_checks", "k_km_violations"),
    ],
    "attacks.simulate": [
        ("repro.attacks.simulator", "qi_attack"),
        ("repro.attacks.simulator", "item_attack"),
        ("repro.attacks.simulator", "rt_attack"),
    ],
    "algorithms.transaction.itemcut": [
        ("repro.algorithms.transaction._itemcut", "greedy_km_anonymize")
    ],
    "algorithms.transaction.anonymize": [
        ("repro.algorithms.transaction.apriori", "AprioriAnonymizer", "anonymize"),
        ("repro.algorithms.transaction.lra", "LraAnonymizer", "anonymize"),
        ("repro.algorithms.transaction.vpa", "VpaAnonymizer", "anonymize"),
        ("repro.algorithms.transaction.coat", "Coat", "anonymize"),
        ("repro.algorithms.transaction.pcta", "Pcta", "anonymize"),
    ],
    "algorithms.rt.anonymize": [
        ("repro.algorithms.rt.bounding", "RtBoundingAnonymizer", "anonymize")
    ],
    "algorithms.relational.anonymize": [
        ("repro.algorithms.relational.incognito", "Incognito", "anonymize"),
        ("repro.algorithms.relational.cluster", "ClusterAnonymizer", "anonymize"),
        ("repro.algorithms.relational.cluster", "ClusterAnonymizer", "build_clusters"),
        ("repro.algorithms.relational.fullsubtree", "FullSubtreeBottomUp", "anonymize"),
    ],
    "datasets.subset": [("repro.datasets.dataset", "Dataset", "subset")],
    "datasets.map_column": [("repro.datasets.dataset", "Dataset", "map_column")],
    "engine.evaluate": [("repro.engine.evaluator", "MethodEvaluator", "evaluate")],
    "frontend.export": [
        ("repro.frontend.export", "DataExportModule", "export_evaluation")
    ],
    "columnar.shared_export": [
        ("repro.columnar.shared", "SharedDatasetExport", "__init__")
    ],
    "engine.pool.map": [("repro.engine.pool", "WorkerPool", "map")],
    "engine.checkpoint.store": [
        ("repro.engine.checkpoint", "CheckpointStore", "store")
    ],
    "engine.checkpoint.load": [("repro.engine.checkpoint", "CheckpointStore", "load")],
    # The module-level task functions the engine fans out.  Pickle finds a
    # task function by its module attribute, so the wrapper travels to the
    # workers in its place.
    "engine.task": [
        ("repro.engine.comparator", "_run_configuration"),
        ("repro.engine.experiment", "_evaluate_sweep_point"),
    ],
}

#: Counted (not timed) calls: ``Dataset.columnar()`` lookups and the column
#: builds behind its cache misses.
COUNTED_CALLS: dict[str, list[tuple[str, ...]]] = {
    "columnar.columnar_calls": [("repro.datasets.dataset", "Dataset", "columnar")],
    "columnar.column_builds": [
        ("repro.columnar.column", "TransactionColumn", "from_dataset"),
        ("repro.columnar.relational", "NumericColumn", "from_dataset"),
        ("repro.columnar.relational", "CategoricalColumn", "from_dataset"),
    ],
}


class Tracer:
    """Spans and counts of one benchmark run, kept in memory.

    Spans form a tree per process through their parent ids; a layer's self
    time is its span's duration minus the durations of its child spans.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.owner_pid = os.getpid()
        self.spans: list[tuple[str, str, float, float, str | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []
        self._serial = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with an empty record; it reports its own
        # spans through its flush file.
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def begin(self) -> tuple[str, str | None, float]:
        self._serial += 1
        span_id = f"{os.getpid()}.{self._serial}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: tuple[str, str | None, float]) -> float:
        span_id, parent, start = token
        finished = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, finished, parent))
        return finished - start

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def take(self) -> tuple[list, dict[str, float]]:
        """Hand over and clear everything recorded so far in this process."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def flush_worker(self) -> None:
        """Append this worker's record to its flush file (one JSON line)."""
        spans, counts = self.take()
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": spans, "counts": counts}) + "\n")

    def collect_workers(self) -> tuple[list, dict[str, float]]:
        """Read and remove the flush files the workers wrote."""
        spans: list = []
        counts: dict[str, float] = defaultdict(float)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                spans.extend(tuple(span) for span in record["spans"])
                for name, amount in record["counts"].items():
                    counts[name] += amount
            path.unlink()
        return spans, dict(counts)


def _after_call(tracer: Tracer, name: str, args: tuple, result: Any, seconds: float) -> None:
    """Counts measured where the work happens, from a call's arguments or result."""
    if name == "frontend.export":
        tracer.count(
            "frontend.export_bytes",
            sum(Path(path).stat().st_size for path in result.values()),
        )
    elif name == "columnar.shared_export":
        tracer.count("columnar.shared_export_bytes", args[0].payload_bytes)
    elif name == "engine.checkpoint.store":
        tracer.count("engine.checkpoint.bytes_written", Path(result).stat().st_size)
    elif name == "engine.checkpoint.load":
        tracer.count("engine.checkpoint.hits", result.status == "hit")
    elif name == "engine.task" and tracer.in_worker and not tracer._stack:
        # A task that returns to the pool: its busy time and the size of
        # the result the pool pickles back to the benchmark process.
        tracer.count("engine.pool.busy_s", seconds)
        tracer.count(
            "engine.pool.result_bytes",
            len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
        )


def _span_wrapper(tracer: Tracer, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.begin()
        try:
            result = function(*args, **kwargs)
        finally:
            seconds = tracer.end(name, token)
        _after_call(tracer, name, args, result, seconds)
        if tracer.in_worker and not tracer._stack:
            tracer.flush_worker()
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[name] += 1
        return function(*args, **kwargs)

    return wrapper


def _patch_function(module_name: str, attribute: str, make: Callable) -> None:
    """Replace a function in every ``repro`` module that holds a reference to it."""
    original = getattr(sys.modules[module_name], attribute)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is original:
                setattr(module, binding, wrapper)


def _patch_method(module_name: str, class_name: str, method: str, make: Callable) -> None:
    owner = getattr(sys.modules[module_name], class_name)
    raw = owner.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(owner, method, classmethod(make(raw.__func__)))
    else:
        setattr(owner, method, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point for the rest of the process."""
    import repro  # noqa: F401  (loads every layer the tables name)
    import repro.columnar.column  # noqa: F401
    import repro.columnar.relational  # noqa: F401

    tables = [(FUNCTION_SPANS, _span_wrapper), (COUNTED_CALLS, _count_wrapper)]
    for table, factory in tables:
        for name, targets in table.items():
            make = functools.partial(factory, tracer, name)
            for target in targets:
                if len(target) == 2:
                    _patch_function(*target, make)
                else:
                    _patch_method(*target, make)


# -- analysis ------------------------------------------------------------------


def layer_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and self seconds."""
    child_seconds: dict[str, float] = defaultdict(float)
    for _span_id, _name, start, end, parent in spans:
        if parent is not None:
            child_seconds[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _parent in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_seconds.get(span_id, 0.0)
    return dict(table)


def write_trace(path: Path, run_id: str, environment: dict, legs: dict) -> None:
    """Write the whole in-memory record of a traced run as one JSON file."""
    document = {
        "run_id": run_id,
        "environment": environment,
        "span_fields": ["id", "name", "start", "end", "parent"],
        "legs": legs,
    }
    path.write_text(json.dumps(document), encoding="utf-8")
