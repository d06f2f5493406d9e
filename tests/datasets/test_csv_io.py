"""Tests for CSV dataset input/output."""

import csv
import io
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    Attribute,
    Dataset,
    Schema,
    load_csv,
    read_csv_text,
    save_csv,
    write_csv_text,
    toy_rt_dataset,
)
from repro.datasets.csv_io import _format_cell
from repro.exceptions import DatasetError

CSV_TEXT = """Age,Education,Items
25,Bachelors,bread milk
30,Masters,beer
41,HS-grad,bread beer wine
"""


class TestReadCsv:
    def test_schema_inference(self):
        dataset = read_csv_text(CSV_TEXT)
        assert dataset.schema["Age"].is_numeric
        assert dataset.schema["Education"].is_categorical
        assert dataset.schema["Items"].is_transaction
        assert dataset[0]["Items"] == frozenset({"bread", "milk"})
        assert dataset[0]["Age"] == 25

    def test_forced_columns_override_inference(self):
        text = "Code,Items\n12,a\n34,b\n"
        dataset = read_csv_text(
            text, transaction_columns=["Items"], numeric_columns=[]
        )
        assert dataset.schema["Items"].is_transaction
        # Code is inferred numeric because all values parse as numbers.
        assert dataset.schema["Code"].is_numeric

    def test_single_item_cells_need_forcing(self):
        text = "Items\napple\nbanana\n"
        inferred = read_csv_text(text)
        assert inferred.schema["Items"].is_categorical
        forced = read_csv_text(text, transaction_columns=["Items"])
        assert forced.schema["Items"].is_transaction
        assert forced[0]["Items"] == frozenset({"apple"})

    def test_explicit_schema_must_match_header(self):
        schema = Schema([Attribute.numeric("Other")])
        with pytest.raises(DatasetError):
            read_csv_text("Age\n1\n", schema=schema)

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetError):
            read_csv_text("")

    def test_field_count_mismatch_reports_line(self):
        with pytest.raises(DatasetError, match="line 3"):
            read_csv_text("A,B\n1,2\n3\n")

    def test_empty_cells_become_none(self):
        dataset = read_csv_text("Age,City\n25,\n,Athens\n")
        assert dataset[0]["City"] is None
        assert dataset[1]["Age"] is None


class TestWriteCsv:
    def test_round_trip_preserves_dataset(self, tmp_path):
        original = toy_rt_dataset()
        path = save_csv(original, tmp_path / "toy.csv")
        loaded = load_csv(path, transaction_columns=["Items"])
        assert loaded.schema.names == original.schema.names
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a["Age"] == b["Age"]
            assert a["Education"] == b["Education"]
            assert a["Items"] == b["Items"]

    def test_write_formats_transaction_cells_sorted(self):
        dataset = read_csv_text(CSV_TEXT)
        text = write_csv_text(dataset)
        assert "bread milk" in text
        assert "beer bread wine" in text  # sorted item order

    def test_write_formats_integral_floats_without_decimal(self):
        dataset = read_csv_text("X\n1.0\n2.5\n")
        text = write_csv_text(dataset)
        lines = text.strip().splitlines()
        assert lines[1] == "1"
        assert lines[2] == "2.5"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "missing.csv")


def reference_csv_text(dataset, delimiter=",", item_separator=" "):
    """Per-record reference writer: one formatted cell at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(dataset.schema.names)
    for record in dataset:
        writer.writerow(
            [
                _format_cell(attribute, record[attribute.name], item_separator)
                for attribute in dataset.schema
            ]
        )
    return buffer.getvalue()


EDGE_NUMBERS = st.one_of(
    st.sampled_from([25, 25.0, -0.0, 0.0, 0, 2.5, math.nan, math.inf, None]),
    st.sampled_from(["[20-40]", "*", "†"]),
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
)
EDGE_LABELS = st.one_of(st.none(), st.text(alphabet='ab,"\n *', max_size=4))
EDGE_ITEMSETS = st.frozensets(st.text(alphabet="ab*†,", min_size=1, max_size=3), max_size=3)


@st.composite
def edge_datasets(draw):
    names = draw(st.lists(st.sampled_from(["numeric", "categorical", "transaction"]), max_size=3))
    schema = Schema(
        getattr(Attribute, kind)(f"c{position}") for position, kind in enumerate(names)
    )
    cells = {"numeric": EDGE_NUMBERS, "categorical": EDGE_LABELS, "transaction": EDGE_ITEMSETS}
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {f"c{position}": cells[kind] for position, kind in enumerate(names)}
            ),
            max_size=20,
        )
    )
    return Dataset(schema, rows)


class TestWriteCsvByteIdentity:
    @given(dataset=edge_datasets(), separator=st.sampled_from([" ", ";"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_record_writer_on_live_and_encoded(self, dataset, separator):
        expected = reference_csv_text(dataset, item_separator=separator)
        encoded = dataset.copy()
        loaded = pickle.loads(pickle.dumps(dataset))
        for target in (dataset, encoded, loaded):
            assert write_csv_text(target, item_separator=separator) == expected
        assert encoded._rows is None and loaded._rows is None

    def test_zero_attribute_rows_are_empty_lines(self):
        dataset = Dataset(Schema([]), [{}, {}])
        assert write_csv_text(dataset) == reference_csv_text(dataset) == "\n\n\n"
        assert write_csv_text(dataset.copy()) == "\n\n\n"
