"""End-to-end workflow benchmark: Fig. 3 evaluation, Fig. 4 comparison and
checkpointed process-mode resume.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-compare-km --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the window untraced and half traced (wrappers
from ``tracing.py``), prints self time per layer, the per-layer metrics and
the tracing overhead, and writes the spans to
``.perfbench-work/trace/<workload>-seed<seed>.json``.  ``--scale tiny``
shrinks every input for the smoke test (``perfbench/smoke.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the program
cannot be imported.  See ``perfbench/README.md`` for the workloads, the
metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Passes made even when they overrun ``--seconds``: the warm-up pass plus
#: at least two measured ones.
MIN_PASSES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "warm_up": (
            "the first pass of every leg is a warm-up: it is checked but left "
            "out of cells_per_s and resume_s; setup_s is the median of "
            f"{SETUP_REPEATS} set-ups"
        ),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_window(workload, inputs, seconds: float) -> list:
    """Passes until the next one would overrun ``seconds`` (at least MIN_PASSES)."""
    passes: list = []
    walls: list[float] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + median(walls) <= seconds
    ):
        began = time.perf_counter()
        try:
            passes.append(workload.run_pass(inputs, time.perf_counter))
        except Exception:  # a failed pass counts its cells as failed
            traceback.print_exc()
            passes.append(None)
        walls.append(time.perf_counter() - began)
    return passes


def check_passes(workload, passes: list, seed: int, scale: str) -> tuple[int, int, str]:
    """Output checks, outside every timed region.

    Every pass must give the recorded digest for this seed when one exists
    (``digests.json``), otherwise the first pass's digest; the resume leg
    must give the cold leg's digest.  Returns (attempted, failed, digest).
    """
    recorded = json.loads((HERE / "digests.json").read_text())
    expected = recorded.get(workload.name, {}).get(scale, {}).get(str(seed))
    attempted = failed = 0
    for result in passes:
        attempted += workload.cells_per_pass
        if result is None:
            failed += workload.cells_per_pass
            continue
        digest = workload.digest(result.series)
        expected = expected or digest
        if digest != expected or workload.digest(result.resumed_series) != digest:
            failed += workload.cells_per_pass
        else:
            failed += result.failed
    return attempted, failed, expected or ""


def leg_metrics(workload, passes: list) -> dict[str, float]:
    """Cells per second of cold-leg time and mean resume time, warm-up excluded.

    Both are means over the window, not medians of passes: the reference
    machine's speed switches between two levels about 1.5x apart for
    seconds at a time, and a median then jumps from one level to the
    other where a mean moves in proportion to the time spent at each.
    """
    done = [result for result in passes[1:] if result is not None]
    if not done:
        return {"cells_per_s": 0.0, "resume_s": 0.0}
    resumes = [sample for result in done for sample in result.resume_s]
    return {
        "cells_per_s": workload.cells_per_pass * len(done) / sum(r.cold_s for r in done),
        "resume_s": statistics.mean(resumes),
    }


def print_table(rows: list[tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def untraced(args, workload, spec: dict) -> tuple[dict, int, int]:
    setups: list[float] = []
    inputs = None
    try:
        for _ in range(SETUP_REPEATS):
            if inputs is not None:
                workload.teardown(inputs)
                inputs = None
            began = time.perf_counter()
            inputs = workload.setup(args.seed)
            setups.append(time.perf_counter() - began)
        passes = run_window(workload, inputs, args.seconds)
    finally:
        if inputs is not None:
            workload.teardown(inputs)
    attempted, failed, digest = check_passes(workload, passes, args.seed, args.scale)
    values = {**leg_metrics(workload, passes), "setup_s": median(setups), "peak_rss_mb": peak_rss_mb()}
    done = [result for result in passes if result is not None]
    print(f"passes: {len(passes)} ({len(done)} completed, the first is the warm-up); digest {digest}")
    print("  set-up s:  " + " ".join(f"{value:.4f}" for value in setups))
    print("  cold s:    " + " ".join(f"{result.cold_s:.4f}" for result in done))
    print("  resume s:  " + " ".join(f"{x:.4f}" for result in done for x in result.resume_s))
    print("end-to-end metrics (tracing off):")
    rows = [(m["name"], values[m["name"]], m["unit"]) for m in spec["end_to_end"]]
    rows.append(("failed_frac", failed / attempted, "ratio"))
    print_table(rows)
    print(f"  (failed_frac = {failed} failed / {attempted} attempted cells)")
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}, attempted, failed


def traced(args, workload, spec: dict, env: dict) -> tuple[dict, int, int]:
    import tracing

    half = args.seconds / 2
    inputs = workload.setup(args.seed)
    try:
        plain = run_window(workload, inputs, half)
    finally:
        workload.teardown(inputs)

    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{workload.name}:seed{args.seed}:pid{os.getpid()}"
    tracer = tracing.Tracer(trace_dir)
    # The traced leg is the last one in this process, so the wrappers stay.
    tracing.install(tracer)
    inputs = workload.setup(args.seed)
    setup_spans, setup_counts = tracer.take()
    try:
        passes = run_window(workload, inputs, half)
    finally:
        workload.teardown(inputs)
    pass_spans, pass_counts = tracer.take()
    worker_spans, worker_counts = tracer.collect_workers()
    pass_spans += worker_spans
    for name, amount in worker_counts.items():
        pass_counts[name] = pass_counts.get(name, 0) + amount

    attempted, failed, digest = check_passes(workload, plain + passes, args.seed, args.scale)
    values = per_layer(workload, passes, plain, setup_spans, setup_counts, pass_spans, pass_counts)
    tracing.write_trace(
        trace_dir / f"{workload.name}-seed{args.seed}.json",
        run_id,
        env,
        {
            "setup": {"spans": setup_spans, "counts": setup_counts},
            "passes": {"spans": pass_spans, "counts": pass_counts, "n": len(passes)},
        },
    )
    n = max(1, sum(result is not None for result in passes))
    print(f"passes: {len(plain)} untraced + {len(passes)} traced; digest {digest} (both legs)")
    print("self time per layer (traced, per pass; set-up layers per set-up):")
    layers = tracing.layer_times(pass_spans)
    rows = [(name, row["self_s"] / n, "s") for name, row in layers.items()]
    rows += [
        (f"{name} [set-up]", row["self_s"], "s")
        for name, row in tracing.layer_times(setup_spans).items()
    ]
    print_table(sorted(rows, key=lambda row: -row[1]))
    print("per-layer metrics:")
    print_table([(m["name"], values[m["name"]], m["unit"]) for m in spec["per_layer"]])
    print(f"tracing overhead: {values['trace.overhead_cells_per_s']:+.4g} cells/s (traced - untraced)")
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}, attempted, failed


def per_layer(workload, passes, plain, setup_spans, setup_counts, pass_spans, pass_counts) -> dict:
    import tracing

    done = [result for result in passes if result is not None]
    n = max(1, len(done))
    layers = tracing.layer_times(pass_spans)
    setup_layers = tracing.layer_times(setup_spans)

    def self_s(name: str, table: dict = layers, per: int = n) -> float:
        return table.get(name, {}).get("self_s", 0.0) / per

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / n

    def count(name: str) -> float:
        return pass_counts.get(name, 0.0) / n

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    reports = [report for result in done for report in result.run_reports]
    rt = [stats for result in done for stats in result.rt_statistics]
    map_wall = layers.get("engine.pool.map", {}).get("total_s", 0.0)
    workers = getattr(workload, "workers", 1)
    return {
        "algorithms.transaction.itemcut_s": self_s("algorithms.transaction.itemcut"),
        "algorithms.transaction.itemcut_calls": calls("algorithms.transaction.itemcut"),
        "algorithms.transaction.anonymize_s": self_s("algorithms.transaction.anonymize"),
        "algorithms.transaction.anonymize_calls": calls("algorithms.transaction.anonymize"),
        "algorithms.rt.anonymize_s": self_s("algorithms.rt.anonymize"),
        "algorithms.rt.kept_cluster_ratio": ratio(
            sum(s["final_clusters"] for s in rt),
            sum(s["initial_clusters"] + s["merges"] for s in rt),
        ),
        "algorithms.relational.anonymize_s": self_s("algorithms.relational.anonymize"),
        "datasets.generate_s": self_s("datasets.generate", setup_layers, 1),
        "hierarchy.build_s": self_s("hierarchy.build", setup_layers, 1),
        "queries.workload_s": self_s("queries.workload", setup_layers, 1),
        "datasets.subset_calls": calls("datasets.subset"),
        "datasets.subset_s": self_s("datasets.subset"),
        "columnar.column_builds": count("columnar.column_builds"),
        "columnar.cache_hit_ratio": 1.0 - ratio(
            pass_counts.get("columnar.column_builds", 0.0),
            pass_counts.get("columnar.columnar_calls", 0.0),
        ) if pass_counts.get("columnar.columnar_calls") else 0.0,
        "datasets.map_column_s": self_s("datasets.map_column"),
        "policies.generate_s": self_s("policies.generate"),
        "policies.generate_calls": calls("policies.generate"),
        "queries.are_s": self_s("queries.are"),
        "queries.are_calls": calls("queries.are"),
        "metrics.utility_s": self_s("metrics.utility") + self_s("metrics.utility_loss"),
        "metrics.utility_loss_calls": calls("metrics.utility_loss"),
        "metrics.privacy_checks_s": self_s("metrics.privacy_checks"),
        "attacks.simulate_s": self_s("attacks.simulate"),
        "frontend.export_s": self_s("frontend.export"),
        "frontend.export_bytes": count("frontend.export_bytes"),
        "engine.evaluate_s": self_s("engine.evaluate"),
        "columnar.shared_export_s": self_s("columnar.shared_export", setup_layers, 1),
        "columnar.shared_export_bytes": setup_counts.get("columnar.shared_export_bytes", 0.0),
        "engine.pool.map_s": self_s("engine.pool.map"),
        "engine.pool.busy_frac": ratio(
            pass_counts.get("engine.pool.busy_s", 0.0), workers * map_wall
        ),
        "engine.pool.result_bytes": count("engine.pool.result_bytes"),
        "engine.checkpoint.store_s": self_s("engine.checkpoint.store"),
        "engine.checkpoint.stores": calls("engine.checkpoint.store"),
        "engine.checkpoint.bytes_written": count("engine.checkpoint.bytes_written"),
        "engine.checkpoint.load_s": self_s("engine.checkpoint.load"),
        "engine.checkpoint.lookups": calls("engine.checkpoint.load"),
        "engine.checkpoint.hit_ratio": ratio(
            pass_counts.get("engine.checkpoint.hits", 0.0),
            layers.get("engine.checkpoint.load", {}).get("calls", 0),
        ),
        "engine.retries": sum(report.total_retries for report in reports) / n,
        "engine.respawns": sum(report.respawns for report in reports) / n,
        "engine.degradations": sum(report.degradations for report in reports) / n,
        "trace.overhead_cells_per_s": (
            leg_metrics(workload, passes)["cells_per_s"]
            - leg_metrics(workload, plain)["cells_per_s"]
        ),
    }


def open_scratch() -> Path:
    """Point imports at ``src/`` and every write of the run at the checkout.

    Temp files, the shared-memory segment registry, checkpoint stores and
    exports go to a per-process directory under ``.perfbench-work/``.
    """
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_SHM_REGISTRY"] = str(WORK / "shm-registry")
    tempfile.tempdir = str(scratch)
    return scratch


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if shared memory started it.

    Every worker pool is closed by then; stopping the tracker here means no
    process of the run outlives it.  ``_stop`` is private but present from
    Python 3.11 on; without it the tracker exits on its own once this
    process does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = open_scratch()
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.scale, scratch)
    env = environment()
    print(f"workload {workload.name} (seed {args.seed}, scale {args.scale}, "
          f"{workload.n_records} records, {args.seconds:g} s window)")
    print("environment: " + json.dumps(env))
    try:
        if args.trace:
            metrics, attempted, failed = traced(args, workload, spec, env)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, attempted, failed = untraced(args, workload, spec)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
