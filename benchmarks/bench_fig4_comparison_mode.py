"""FIG4 / SCEN2 — Comparison mode: "Comparing methods for RT-datasets".

The Comparison screen (Figure 4) executes several configurations across a
varying parameter and plots their utility and efficiency side by side.  The
benchmark compares three representative configurations across k and records
every indicator series under ``benchmarks/results/``; the expected *shape*
is that ARE and information loss grow with k and that local-recoding methods
retain more utility than full-domain ones.
"""

from __future__ import annotations

from repro.engine import MethodComparator, ParameterSweep, rt_config
from repro.frontend.plotting import comparison_figure

CONFIGURATIONS = [
    rt_config("cluster", "apriori", bounding="rtmerger", m=2, delta=0.6,
              label="Cluster+Apriori/RTmerger"),
    rt_config("incognito", "apriori", bounding="rmerger", m=2, delta=0.6,
              label="Incognito+Apriori/Rmerger"),
    rt_config("cluster", "lra", bounding="tmerger", m=2, delta=0.6,
              label="Cluster+LRA/Tmerger"),
]
SWEEP = ParameterSweep("k", (5, 15, 25))


def test_comparison_mode_sweep(benchmark, session, record):
    """Run the full Comparison-mode benchmark (3 configurations x 3 k values)."""

    def run():
        comparator = MethodComparator(
            session.dataset, session.resources(), verify_privacy=False
        )
        return comparator.compare(CONFIGURATIONS, SWEEP)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    payload = {
        "parameter": report.parameter,
        "values": report.values,
        "series": {},
        "are_table": report.table("are"),
    }
    for indicator in ("are", "relational_gcp", "transaction_ul", "runtime_seconds"):
        payload["series"][indicator] = {
            sweep.configuration["label"]: sweep.series[indicator].y
            for sweep in report.sweeps
            if indicator in sweep.series
        }
    record("fig4_comparison_mode", payload)

    # Shape assertions (who wins / how curves move), not absolute numbers.
    for sweep in report.sweeps:
        gcp = sweep.series["relational_gcp"].y
        assert gcp[-1] >= gcp[0] - 1e-9, "information loss must not shrink as k grows"
    figure = comparison_figure(report, "are")
    assert len(figure.series) == len(CONFIGURATIONS)


def test_comparison_figure_rendering(benchmark, session, record):
    """Rendering the comparison figures (the plotting area of Figure 4)."""
    comparator = MethodComparator(session.dataset, session.resources(), verify_privacy=False)
    report = comparator.compare(CONFIGURATIONS[:2], ParameterSweep("k", (5, 15)))

    def render():
        return [
            comparison_figure(report, indicator).to_text()
            for indicator in report.indicators()
        ]

    texts = benchmark(render)
    record("fig4_rendering", {"figures": len(texts)})
    assert all(isinstance(text, str) and text for text in texts)
