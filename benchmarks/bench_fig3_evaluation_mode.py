"""FIG3 / SCEN1 — Evaluation mode: "Evaluating a method for RT-datasets".

The Evaluation screen (Figure 3) shows, for one configured method:

(a) ARE scores for a varying parameter (here δ, with k and m fixed),
(b) the runtime of the algorithm and its phases,
(c) the frequency of generalized values in a selected relational attribute,
(d) the relative error of transaction item frequencies.

Each benchmark regenerates one of those series with the Cluster+Apriori
combination under RTmerger and records it under ``benchmarks/results/``.
"""

from __future__ import annotations

from repro.engine import (
    MethodEvaluator,
    ParameterSweep,
    VaryingParameterExperiment,
    rt_config,
)

CONFIG = rt_config(
    "cluster", "apriori", bounding="rtmerger", k=10, m=2, delta=0.5,
    label="Cluster+Apriori/RTmerger",
)


def test_a_are_vs_delta(benchmark, session, record):
    """(a) ARE against a varying δ with fixed k and m."""
    sweep = ParameterSweep("delta", (0.0, 0.25, 0.5, 0.75, 1.0))

    def run():
        experiment = VaryingParameterExperiment(
            session.dataset, session.resources(), verify_privacy=False
        )
        return experiment.run(CONFIG, sweep)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "fig3a_are_vs_delta",
        {
            "configuration": result.configuration["label"],
            "delta": list(result.values),
            "are": result.series["are"].y,
            "relational_gcp": result.series["relational_gcp"].y,
            "transaction_ul": result.series["transaction_ul"].y,
        },
    )
    assert len(result.series["are"]) == len(sweep)


def test_b_runtime_and_phases(benchmark, session, record):
    """(b) total runtime and the runtime of the algorithm's phases."""

    def run():
        evaluator = MethodEvaluator(session.dataset, session.resources(), verify_privacy=False)
        return evaluator.evaluate(CONFIG)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "fig3b_phase_runtime",
        {
            "total_seconds": report.runtime_seconds,
            "phase_seconds": report.phase_seconds,
        },
    )
    assert report.phase_seconds
    assert report.runtime_seconds >= max(report.phase_seconds.values())


def test_c_generalized_value_frequencies(benchmark, session, record):
    """(c) frequencies of generalized values in a relational attribute."""
    evaluator = MethodEvaluator(session.dataset, session.resources(), verify_privacy=False)
    report = evaluator.evaluate(CONFIG)

    def frequencies():
        return report.generalized_value_frequencies["Education"]

    education = benchmark(frequencies)
    record("fig3c_generalized_education", education)
    assert sum(education.values()) == len(session.dataset)


def test_d_item_frequency_error(benchmark, session, record):
    """(d) relative error between original and anonymized item frequencies."""
    evaluator = MethodEvaluator(session.dataset, session.resources(), verify_privacy=False)

    def run():
        return evaluator.evaluate(CONFIG).item_frequency_errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    finite = [error for error in errors.values() if error != float("inf")]
    record(
        "fig3d_item_frequency_error",
        {
            "items": len(errors),
            "mean_error": sum(finite) / len(finite) if finite else 0.0,
            "worst5": dict(sorted(errors.items(), key=lambda kv: -kv[1])[:5]),
        },
    )
    assert errors
