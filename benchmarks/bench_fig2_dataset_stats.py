"""FIG2 — Main screen: dataset editing and attribute histograms (Figure 2).

The main screen of SECRETA loads an RT-dataset, lets the user edit it and
plots histograms of the frequency of values in any attribute.  This benchmark
times the statistics computation behind those plots and records the histogram
series under ``benchmarks/results/``.
"""

from __future__ import annotations

from repro.datasets import (
    attribute_histogram,
    dataset_summary,
    save_csv,
    value_frequencies,
)
from repro.datasets.csv_io import write_csv_text


def test_attribute_histograms(benchmark, rt_dataset, record):
    """Histograms of every attribute (the bottom pane of Figure 2)."""

    def compute():
        return {
            attribute.name: attribute_histogram(rt_dataset, attribute.name, bins=10)
            for attribute in rt_dataset.schema
        }

    histograms = benchmark(compute)
    record(
        "fig2_histograms",
        {
            "records": len(rt_dataset),
            "attributes": list(histograms),
            "education_histogram": histograms["Education"],
            "items_top5": dict(
                sorted(value_frequencies(rt_dataset, "Items").items(),
                       key=lambda kv: -kv[1])[:5]
            ),
        },
    )
    assert sum(histograms["Education"]["counts"]) == len(rt_dataset)


def test_dataset_summary(benchmark, rt_dataset, record):
    """The per-attribute summary table of the Dataset Editor."""
    summary = benchmark(dataset_summary, rt_dataset)
    record("fig2_summary", summary)
    assert summary["records"] == len(rt_dataset)


def test_dataset_round_trip(benchmark, rt_dataset, tmp_path_factory):
    """CSV export of the (edited) dataset — the editor's store action."""
    directory = tmp_path_factory.mktemp("fig2")

    def round_trip():
        return save_csv(rt_dataset, directory / "dataset.csv")

    path = benchmark(round_trip)
    assert path.exists()


def test_csv_serialisation_throughput(benchmark, rt_dataset):
    """In-memory CSV serialisation (what every export call pays)."""
    text = benchmark(write_csv_text, rt_dataset)
    assert text.count("\n") == len(rt_dataset) + 1
