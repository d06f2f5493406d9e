"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one artefact of the SECRETA paper (a figure, a
demonstration scenario or a capability claim, named in each module's
docstring).  Besides timing the underlying operation with pytest-benchmark, each
benchmark writes the data series it produced to ``benchmarks/results/`` so
that paper-vs-measured shapes can be compared from a single run:

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Session
from repro.datasets import generate_rt_dataset
from repro.engine import ExperimentResources, transaction_config

RESULTS_DIRECTORY = Path(__file__).parent / "results"

#: Benchmark dataset sizes: large enough to show algorithmic behaviour,
#: small enough that the whole harness runs in a few minutes.
N_RECORDS = 300
N_ITEMS = 24


@pytest.fixture(scope="session")
def rt_dataset():
    """The benchmark RT-dataset (fixed seed: identical across benchmarks)."""
    return generate_rt_dataset(n_records=N_RECORDS, n_items=N_ITEMS, seed=2014)


@pytest.fixture(scope="session")
def session(rt_dataset):
    """A SECRETA session over the benchmark dataset with prepared resources."""
    secreta = Session(rt_dataset)
    secreta.configuration_editor.generate_hierarchies(fanout=4)
    secreta.queries_editor.generate(n_queries=40, seed=5)
    secreta.verify_privacy = False
    return secreta


@pytest.fixture(scope="session")
def prepared_resources(rt_dataset, session) -> ExperimentResources:
    """Resources shared by benchmarks that bypass the Session facade."""
    resources = session.resources()
    resources.ensure_for(rt_dataset, transaction_config("apriori", k=5, m=2))
    return resources


def record_result(name: str, payload: dict) -> Path:
    """Persist one benchmark's data series under ``benchmarks/results/``."""
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIRECTORY / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def record():
    """Fixture handing benchmarks the result-recording helper."""
    return record_result
