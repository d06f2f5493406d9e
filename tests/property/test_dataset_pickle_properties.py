"""Property tests for how a Dataset pickles: column-encoded, rows on demand.

A dataset pickles as per-attribute distinct cells plus one narrow code per
record, and an unpickled dataset builds its rows only on first row-level
access.  The round trip must be exact — per-cell type and repr, so ``25``
stays apart from ``25.0`` and ``-0.0`` from ``0.0`` — for ``pickle`` and
``copy.deepcopy`` alike, and the metadata calls (``len``, ``name``,
``schema``, ``version``, re-pickling) must not decode anything.
"""

from __future__ import annotations

import copy
import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import Attribute, Dataset, Schema, generate_rt_dataset
from repro.engine import ExperimentResources, transaction_config
from repro.engine.anonymizer import AnonymizationModule
from repro.hierarchy import build_item_hierarchy

GENERALIZED = ["[20-40]", "*", "†", "{a..b}"]

numeric_cells = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([25, 25.0, -0.0, 0.0, 0, math.nan, None]),
    st.sampled_from(GENERALIZED),
)
categorical_cells = st.one_of(
    st.none(), st.text(max_size=6), st.sampled_from(GENERALIZED)
)
transaction_cells = st.frozensets(st.text(alphabet="abcxyz†*", max_size=3), max_size=4)

KINDS = {
    "numeric": (Attribute.numeric, numeric_cells),
    "categorical": (Attribute.categorical, categorical_cells),
    "transaction": (Attribute.transaction, transaction_cells),
}


@st.composite
def datasets(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=4))
    names = [f"a{position}" for position in range(len(kinds))]
    n_records = draw(st.integers(min_value=0, max_value=25))
    rows = [
        {name: draw(KINDS[kind][1]) for name, kind in zip(names, kinds)}
        for _ in range(n_records)
    ]
    schema = Schema(KINDS[kind][0](name) for name, kind in zip(names, kinds))
    return Dataset(schema, rows, name="prop")


def exact(value) -> tuple:
    """A cell as type and repr: exact, and NaN-safe to compare.  Itemsets
    list their items sorted, since set iteration order is not content."""
    if isinstance(value, frozenset):
        return (type(value), sorted(value))
    return (type(value), repr(value))


def cells(dataset: Dataset) -> list[list[tuple]]:
    names = dataset.schema.names
    return [[exact(record[name]) for name in names] for record in dataset]


def has_nan(dataset: Dataset) -> bool:
    return any(is_nan(value) for record in dataset for _, value in record.items())


def is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def distinct_objects(dataset: Dataset, name: str, by_content: bool = False) -> int:
    """Distinct cell objects of a column, or (``by_content``) distinct cells:
    non-NaN cells by :func:`exact`, NaN cells by identity."""
    column = [record[name] for record in dataset]
    if not by_content:
        return len({id(value) for value in column})
    nan_objects = {id(value) for value in column if is_nan(value)}
    others = {repr(exact(value)) for value in column if not is_nan(value)}
    return len(nan_objects) + len(others)


def encoded_columns(dataset: Dataset) -> list[tuple]:
    """The pickled column payload: exact distinct cells, codes and dtype."""
    return [
        ([exact(value) for value in values], codes.tolist(), codes.dtype)
        for values, codes in dataset.__getstate__()["columns"]
    ]


def undecoded(dataset: Dataset) -> bool:
    return dataset._rows is None


def check_round_trip(source: Dataset, clone: Dataset) -> None:
    expected = cells(source)
    payload = encoded_columns(source)
    fingerprint = source.fingerprint()
    # Metadata and re-pickling never decode rows; a never-touched clone
    # re-emits the columns it was loaded from.
    assert undecoded(clone)
    assert len(clone) == len(source)
    assert clone.name == source.name
    assert clone.schema == source.schema
    assert clone.version == source.version
    assert encoded_columns(pickle.loads(pickle.dumps(clone))) == payload
    assert undecoded(clone)
    # Row-level access decodes, exactly.
    assert cells(clone) == expected
    assert not undecoded(clone)
    if not has_nan(source):
        # NaN never equals NaN, so == only holds without NaN cells.
        assert clone == source
    assert clone.fingerprint() == fingerprint
    assert clone.version == source.version
    # One shared object per distinct cell of a column; distinct NaN objects
    # stay distinct, since a column view keys NaN cells by identity.
    for name in clone.schema.names:
        assert distinct_objects(clone, name) == distinct_objects(source, name, by_content=True)
    # A mutation after load bumps the clone's version, never the source.
    version = clone.version
    clone.append({})
    assert clone.version == version + 1
    assert len(clone) == len(source) + 1
    assert cells(source) == expected
    assert source.fingerprint() == fingerprint


class TestDatasetPickleRoundTrip:
    @given(dataset=datasets())
    @settings(max_examples=150, deadline=None)
    def test_pickle_round_trip_is_exact_and_lazy(self, dataset):
        check_round_trip(dataset, pickle.loads(pickle.dumps(dataset)))

    @given(dataset=datasets())
    @settings(max_examples=100, deadline=None)
    def test_deepcopy_round_trip_is_exact_and_lazy(self, dataset):
        check_round_trip(dataset, copy.deepcopy(dataset))

    @given(dataset=datasets())
    @settings(max_examples=100, deadline=None)
    def test_never_touched_copy_round_trips_again(self, dataset):
        once = pickle.loads(pickle.dumps(dataset))
        twice = pickle.loads(pickle.dumps(once))
        assert undecoded(once)
        check_round_trip(dataset, twice)

    @given(dataset=datasets(), label=st.sampled_from(GENERALIZED))
    @settings(max_examples=100, deadline=None)
    def test_cached_columns_do_not_change_the_payload(self, dataset, label):
        # A cached relational column's codes are reused by the encoder; the
        # pickled payload (distinct cells, code order, dtype) must equal the
        # one encoded from the rows of a copy that caches nothing.
        for name in dataset.schema.names:
            dataset.columnar(name)
        assert encoded_columns(dataset) == encoded_columns(dataset.copy())
        # A mutation drops the cached column, so a stale one is never read.
        relational = [a.name for a in dataset.schema if not a.is_transaction]
        if len(dataset) and relational:
            dataset.set_value(0, relational[0], label)
            assert encoded_columns(dataset) == encoded_columns(dataset.copy())

    def test_zero_attribute_dataset_keeps_its_records(self):
        dataset = Dataset(Schema([]), [{}, {}, {}], name="empty-schema")
        clone = pickle.loads(pickle.dumps(dataset))
        assert len(clone) == 3
        assert clone == dataset
        assert clone.fingerprint() == dataset.fingerprint()


def test_anonymized_dataset_pickles_no_larger_than_row_tuples():
    """A 5k-record anonymized dataset against the positional-row encoding."""
    original = generate_rt_dataset(n_records=5_000, skew=2.5, seed=0)
    resources = ExperimentResources(
        item_hierarchy=build_item_hierarchy(
            original.item_universe("Items"), fanout=4, attribute="Items"
        )
    )
    anonymized = AnonymizationModule(original, resources).run(
        transaction_config("coat", k=50, m=1)
    ).dataset
    names = anonymized.schema.names
    row_tuples = {
        "schema": anonymized.schema,
        "name": anonymized.name,
        "version": anonymized.version,
        "rows": [record.values_for(names) for record in anonymized],
    }
    protocol = pickle.HIGHEST_PROTOCOL
    column_encoded = pickle.dumps(anonymized, protocol=protocol)
    assert len(column_encoded) <= len(pickle.dumps(row_tuples, protocol=protocol))
    assert cells(pickle.loads(column_encoded)) == cells(anonymized)
