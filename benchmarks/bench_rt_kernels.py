"""Micro-benchmark: relational columnar kernel speedup over the scalar paths.

Measures the two hot paths PR 3 vectorized, on a 50k-record RT-dataset:

* **GCP scoring** — ``global_certainty_penalty`` over a generalized output.
  Baseline: the per-record ``cell_ncp`` loop (the pre-kernel
  ``record_ncp``-based implementation, restated verbatim).  The kernel path
  builds one NCP lookup table per attribute over the anonymized column's
  distinct labels and gathers it with ``np.take``.  Both sides are measured
  steady-state (context memo and columnar views warm) — the engine's regime,
  where one experiment scores the same dataset pair many times.
* **RT bounding merge phase** — repeated merge-partner selection over
  thousands of clusters (strategy ``"rt"``: relational bound widening plus
  transaction Jaccard).  Baseline: the scalar ``merge_score`` loop of
  ``tests/property/rt_reference.py``, which re-walks every member record of
  both clusters per candidate partner.  The
  kernel path maintains per-cluster summaries (:class:`_MergeState`) and
  scores all partners in one vectorized pass per step.

Besides asserting the >= 5x acceptance bar, the run writes a machine-readable
``BENCH_rt.json`` at the repository root (seconds and speedups per workload)
so the repo carries a perf trajectory file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_rt_kernels.py

or through pytest (only collected when addressed explicitly)::

    python -m pytest benchmarks/bench_rt_kernels.py -m slow -s
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms import ClusterAnonymizer, RTmerger
from repro.algorithms.rt.bounding import _MergeState
from repro.datasets import generate_rt_dataset
from repro.hierarchy.builders import format_interval
from repro.metrics import RelationalLossContext, global_certainty_penalty

REPO_ROOT = Path(__file__).resolve().parent.parent
# The scalar merge reference lives with the property tests that pin the
# kernel to it.
sys.path.insert(0, str(REPO_ROOT / "tests" / "property"))
from rt_reference import merge_score  # noqa: E402
TRAJECTORY_FILE = REPO_ROOT / "BENCH_rt.json"

N_RECORDS = 50_000
CLUSTER_SIZE = 25
MERGE_STEPS = 20
REQUIRED_SPEEDUP = 5.0


# -- scalar baselines (pre-kernel hot paths, restated verbatim) -------------------
def scalar_gcp(context: RelationalLossContext, anonymized) -> float:
    """The pre-kernel GCP loop: one ``cell_ncp`` call per record per attribute."""
    total = 0.0
    for record in anonymized:
        total += sum(
            context.cell_ncp(attribute, record[attribute])
            for attribute in context.attributes
        ) / len(context.attributes)
    return total / len(anonymized)


def scalar_merge_phase(algorithm, helper, dataset, attributes, attribute, clusters, steps):
    """The pre-kernel merge loop: scalar ``merge_score`` over every partner."""
    clusters = [list(cluster) for cluster in clusters]
    chosen = []
    for _ in range(steps):
        worst = 0
        candidates = [p for p in range(len(clusters)) if p != worst]
        partner = min(
            candidates,
            key=lambda p: merge_score(
                algorithm.merge_strategy,
                helper, dataset, attributes, attribute, clusters[worst], clusters[p],
            ),
        )
        merged = sorted(clusters[worst] + clusters[partner])
        keep = [p for p in range(len(clusters)) if p not in (worst, partner)]
        clusters = [clusters[p] for p in keep] + [merged]
        chosen.append(partner)
    return chosen


def kernel_merge_phase(algorithm, helper, dataset, attributes, attribute, clusters, steps):
    """The PR 3 merge loop: summary build + vectorized partner selection."""
    clusters = [list(cluster) for cluster in clusters]
    state = _MergeState(
        algorithm.merge_strategy, helper, dataset, attributes, attribute, clusters
    )
    chosen = []
    for _ in range(steps):
        worst = 0
        partner = state.best_partner(worst)
        merged = sorted(clusters[worst] + clusters[partner])
        keep = [p for p in range(len(clusters)) if p not in (worst, partner)]
        clusters = [clusters[p] for p in keep] + [merged]
        state.merge(worst, partner)
        chosen.append(partner)
    return chosen


# -- workload construction --------------------------------------------------------
def generalized_copy(dataset, attributes):
    """A cluster-style generalized output: intervals, group labels, a root tail."""
    anonymized = dataset.copy(name=f"{dataset.name}[generalized]")
    for name in attributes:
        if dataset.schema[name].is_numeric:
            anonymized.map_column(
                name,
                lambda value: (
                    None
                    if value is None
                    else format_interval(10 * (int(value) // 10), 10 * (int(value) // 10) + 9)
                ),
            )
        else:
            domain = sorted(
                {str(v) for v in dataset.column(name) if v is not None}
            )
            groups = [domain[n : n + 3] for n in range(0, len(domain), 3)]
            mapping = {}
            for position, group in enumerate(groups):
                label = "*" if position == len(groups) - 1 else "(" + ",".join(group) + ")"
                for value in group:
                    mapping[value] = label
            anonymized.map_column(name, lambda value: mapping.get(value, value))
    return anonymized


def block_clusters(n_records: int, size: int) -> list[list[int]]:
    """Contiguous clusters of ``size`` records (the merge-phase starting point)."""
    return [
        list(range(start, min(start + size, n_records)))
        for start in range(0, n_records, size)
    ]


def timed_best(function, *args, repeats: int = 3):
    """(result, best-of-``repeats`` wall time) for a steady-state measurement."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


# -- main -------------------------------------------------------------------------
def run_benchmark(
    n_records: int = N_RECORDS,
    cluster_size: int = CLUSTER_SIZE,
    merge_steps: int = MERGE_STEPS,
    repeats: int = 3,
) -> dict:
    original = generate_rt_dataset(n_records=n_records, n_items=40, seed=2014)
    attributes = [a.name for a in original.schema.relational if a.quasi_identifier]
    anonymized = generalized_copy(original, attributes)

    # GCP scoring, steady-state: one context scores the pair repeatedly.
    context = RelationalLossContext(original, attributes)
    baseline_gcp, baseline_gcp_seconds = timed_best(
        scalar_gcp, context, anonymized, repeats=repeats
    )
    kernel_gcp, kernel_gcp_seconds = timed_best(
        global_certainty_penalty, original, anonymized, attributes, None, context,
        repeats=repeats,
    )
    assert kernel_gcp == pytest.approx(baseline_gcp)

    # Merge phase: partner selection + merge over the block clusters.
    clusters = block_clusters(n_records, cluster_size)
    algorithm = RTmerger(k=2)
    helper = ClusterAnonymizer(2, attributes=attributes)
    helper._prepare(original, attributes)
    baseline_partners, baseline_merge_seconds = timed_best(
        scalar_merge_phase,
        algorithm, helper, original, attributes, "Items", clusters, merge_steps,
        repeats=repeats,
    )
    kernel_partners, kernel_merge_seconds = timed_best(
        kernel_merge_phase,
        algorithm, helper, original, attributes, "Items", clusters, merge_steps,
        repeats=repeats,
    )
    assert baseline_partners == kernel_partners

    return {
        "dataset": {
            "n_records": n_records,
            "relational_attributes": len(attributes),
            "cluster_size": cluster_size,
            "clusters": len(clusters),
            "merge_steps": merge_steps,
        },
        "gcp_scoring": {
            "value": kernel_gcp,
            "baseline_seconds": baseline_gcp_seconds,
            "kernel_seconds": kernel_gcp_seconds,
            "speedup": baseline_gcp_seconds / kernel_gcp_seconds,
            "baseline_records_per_second": n_records / baseline_gcp_seconds,
            "kernel_records_per_second": n_records / kernel_gcp_seconds,
        },
        "merge_phase": {
            "baseline_seconds": baseline_merge_seconds,
            "kernel_seconds": kernel_merge_seconds,
            "speedup": baseline_merge_seconds / kernel_merge_seconds,
            "baseline_steps_per_second": merge_steps / baseline_merge_seconds,
            "kernel_steps_per_second": merge_steps / kernel_merge_seconds,
        },
    }


def write_trajectory(payload: dict) -> Path:
    TRAJECTORY_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return TRAJECTORY_FILE


@pytest.mark.slow
def test_rt_kernel_speedup(record):
    payload = run_benchmark()
    record("rt_kernels", payload)
    write_trajectory(payload)
    assert payload["gcp_scoring"]["speedup"] >= REQUIRED_SPEEDUP
    assert payload["merge_phase"]["speedup"] >= REQUIRED_SPEEDUP


def test_rt_kernel_equivalence_smoke():
    """Fast CI smoke: scalar and kernel paths agree on a small dataset.

    In CI (``CI`` set) the small-size payload is also written to
    ``BENCH_rt.json`` so the workflow can upload it as an artifact; local
    test runs leave the committed 50k-record trajectory untouched.
    """
    payload = run_benchmark(
        n_records=2_500, cluster_size=10, merge_steps=5, repeats=1
    )
    if os.environ.get("CI"):
        write_trajectory(payload)
    # run_benchmark asserts baseline/kernel equality internally; sanity-check
    # the payload shape here.
    assert payload["gcp_scoring"]["value"] > 0.0
    assert payload["merge_phase"]["baseline_seconds"] > 0.0


if __name__ == "__main__":
    result = run_benchmark()
    path = write_trajectory(result)
    gcp = result["gcp_scoring"]
    merge = result["merge_phase"]
    print(
        f"dataset: {result['dataset']['n_records']} records, "
        f"{result['dataset']['relational_attributes']} relational attributes, "
        f"{result['dataset']['clusters']} clusters"
    )
    print(
        f"gcp scoring: baseline {gcp['baseline_seconds']:.3f}s, "
        f"kernel {gcp['kernel_seconds']:.3f}s, speedup {gcp['speedup']:.1f}x"
    )
    print(
        f"merge phase: baseline {merge['baseline_seconds']:.3f}s, "
        f"kernel {merge['kernel_seconds']:.3f}s, speedup {merge['speedup']:.1f}x"
    )
    print(f"trajectory written to {path}")
