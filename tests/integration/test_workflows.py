"""Integration tests: full SECRETA workflows across module boundaries."""

import json

import pytest

from repro import Session, load_csv, relational_config, rt_config, transaction_config
from repro.algorithms import algorithm_names
from repro.engine import MethodEvaluator
from repro.metrics import is_k_anonymous, is_k_km_anonymous


@pytest.fixture(scope="module")
def session():
    secreta = Session.generate_rt(n_records=120, n_items=16, seed=61)
    secreta.configuration_editor.generate_hierarchies(fanout=3)
    secreta.queries_editor.generate(n_queries=15, seed=2)
    return secreta


class TestDemonstrationScenario:
    """The full demonstration plan of Section 3, end to end."""

    def test_scenario_one_evaluate_and_export(self, session, tmp_path):
        # Edit the dataset (Dataset Editor).
        session.dataset_editor.set_value(0, "Education", "Masters")
        # Evaluate a method for RT-datasets.
        config = rt_config(
            "cluster", "apriori", bounding="rtmerger", k=5, m=1, delta=0.6,
            label="scenario1",
        )
        report = session.evaluate(config)
        assert report.privacy["k_km_anonymous"] is True
        # Varying-delta visualization (Figure 3(a)).
        sweep = session.sweep(config, "delta", 0.0, 1.0, 0.5)
        assert len(sweep.series["are"]) == 3
        # Export everything and reload the anonymized dataset.
        exporter = session.exporter(tmp_path)
        written = exporter.export_evaluation(report, stem="scenario1")
        reloaded = load_csv(written["anonymized"], transaction_columns=["Items"])
        assert len(reloaded) == len(session.dataset)
        summary = json.loads(written["summary"].read_text())
        assert summary["configuration"]["label"] == "scenario1"

    def test_scenario_two_compare_and_export(self, session, tmp_path):
        report = session.compare(
            [
                rt_config("cluster", "apriori", bounding="rtmerger", m=1, delta=0.6, label="A"),
                rt_config("cluster", "lra", bounding="tmerger", m=1, delta=0.6, label="B"),
            ],
            "k",
            3,
            9,
            3,
        )
        assert report.values == [3, 6, 9]
        written = session.exporter(tmp_path).export_comparison(report, stem="scenario2")
        assert any(path.suffix == ".csv" for path in written.values())
        # Information loss should not decrease with k for either method.
        for sweep in report.sweeps:
            gcp = sweep.series["relational_gcp"].y
            assert gcp[-1] >= gcp[0] - 1e-9


class TestEveryAlgorithmThroughTheEngine:
    @pytest.mark.parametrize("name", algorithm_names("relational"))
    def test_relational_algorithms_protect_k(self, session, name):
        report = MethodEvaluator(
            session.dataset, session.resources(), verify_privacy=False
        ).evaluate(relational_config(name, k=5))
        assert is_k_anonymous(
            report.anonymized,
            5,
            [a.name for a in session.dataset.schema.relational if a.quasi_identifier],
        )

    @pytest.mark.parametrize("name", algorithm_names("transaction"))
    def test_transaction_algorithms_run_and_report(self, session, name):
        report = MethodEvaluator(
            session.dataset, session.resources(), verify_privacy=False
        ).evaluate(transaction_config(name, k=4, m=1))
        assert 0.0 <= report.utility["transaction_ul"] <= 1.0
        assert report.are >= 0.0

    @pytest.mark.parametrize("bounding", algorithm_names("rt"))
    def test_bounding_methods_protect_k_km(self, session, bounding):
        config = rt_config("cluster", "apriori", bounding=bounding, k=4, m=1, delta=0.7)
        report = MethodEvaluator(
            session.dataset, session.resources(), verify_privacy=False
        ).evaluate(config)
        resources = session.resources()
        assert is_k_km_anonymous(
            report.anonymized,
            4,
            1,
            hierarchy=resources.item_hierarchy,
            universe=session.dataset.item_universe("Items"),
        )


class TestCsvWorkflow:
    def test_csv_in_csv_out(self, tmp_path):
        source = Session.generate_rt(n_records=40, n_items=12, seed=77)
        csv_path = source.dataset_editor.save(tmp_path / "in.csv")
        session = Session.from_csv(csv_path, transaction_columns=["Items"])
        report = session.evaluate(transaction_config("apriori", k=3, m=1))
        out_path = session.exporter(tmp_path).export_dataset(
            report.anonymized, name="anonymized"
        )
        reloaded = load_csv(out_path, transaction_columns=["Items"])
        assert len(reloaded) == 40


class TestEncodedOutputs:
    """Evaluation mode measures, exports and stores an output without its rows."""

    @pytest.mark.parametrize("algorithm", ["coat", "pcta"])
    def test_evaluate_and_export_never_decode_the_output(self, algorithm, tmp_path):
        session = Session.generate_rt(n_records=300, n_items=20, skew=2.5, seed=5)
        report = session.evaluate(
            transaction_config(algorithm, k=5, m=1), simulate_attacks=True
        )
        written = session.exporter(tmp_path).export_evaluation(report, stem=algorithm)
        assert report.anonymized._rows is None
        assert report.privacy["km_anonymous"] is True
        reloaded = load_csv(written["anonymized"], transaction_columns=["Items"])
        assert [record["Items"] for record in reloaded] == [
            record["Items"] for record in report.anonymized
        ]
