"""Property tests for how a Dataset pickles: column-encoded, rows on demand.

A dataset pickles as per-attribute distinct cells plus one narrow code per
record, and an unpickled dataset builds its rows only on first row-level
access.  The round trip must be exact — per-cell type and repr, so ``25``
stays apart from ``25.0`` and ``-0.0`` from ``0.0`` — for ``pickle`` and
``copy.deepcopy`` alike, and the metadata calls (``len``, ``name``,
``schema``, ``version``, re-pickling) must not decode anything.

``Dataset.copy`` returns the same encoded form, and ``map_column`` and
``set_column`` rewrite it in place: a copy that is transformed must equal a
per-row reference on rows, fingerprint, version and pickled payload, and a
transform must run once per exact-distinct cell.
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


def live_copy(dataset: Dataset) -> Dataset:
    """The same cells in fresh live rows, with no cached column views."""
    return Dataset.from_rows(dataset.schema, dataset.to_rows(), name=dataset.name)


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
        # Cached column views must not leak into the pickled payload
        # (distinct cells, code order, dtype): it must equal the one encoded
        # from the rows of a copy that caches nothing.
        for name in dataset.schema.names:
            dataset.columnar(name)
        assert encoded_columns(dataset) == encoded_columns(live_copy(dataset))
        # A mutation drops the cached column, so a stale one is never read.
        relational = [a.name for a in dataset.schema if not a.is_transaction]
        if len(dataset) and relational:
            dataset.set_value(0, relational[0], label)
            assert encoded_columns(dataset) == encoded_columns(live_copy(dataset))

    def test_zero_attribute_dataset_keeps_its_records(self):
        dataset = Dataset(Schema([]), [{}, {}, {}], name="empty-schema")
        clone = pickle.loads(pickle.dumps(dataset))
        assert len(clone) == 3
        assert clone == dataset
        assert clone.fingerprint() == dataset.fingerprint()


#: Transforms per attribute kind.  Each is a pure function of the cell that
#: keeps NaN objects as they are, and several merge distinct cells (into a
#: label, across ``25``/``25.0``, ``-0.0``/``0.0``, or into the empty
#: itemset), so the rewritten column must be re-canonicalized.
TRANSFORMS = {
    "numeric": [
        lambda value: value,
        lambda value: "*",
        lambda value: float(value) if type(value) is int else value,
        lambda value: 0.0 if type(value) in (int, float) and value == 0 else value,
        lambda value: "[20-40]"
        if type(value) in (int, float) and 20 <= value <= 40
        else value,
        lambda value: "†" if value is None else value,
    ],
    "categorical": [
        lambda value: value,
        lambda value: "*",
        lambda value: None if value in GENERALIZED else value,
        lambda value: (value or "")[:1],
    ],
    "transaction": [
        lambda itemset: itemset,
        lambda itemset: [],
        lambda itemset: None,
        lambda itemset: sorted(item for item in itemset if item != "a"),
        lambda itemset: ["(a,b)" if item in ("a", "b") else item for item in itemset],
    ],
}


def kind_of(attribute: Attribute) -> str:
    if attribute.is_transaction:
        return "transaction"
    return "numeric" if attribute.is_numeric else "categorical"


@st.composite
def column_edits(draw):
    """A dataset, one of its attributes, and a transform for its kind."""
    dataset = draw(datasets())
    if not dataset.schema.names:
        dataset = Dataset(
            Schema([Attribute.numeric("a0")]),
            [{"a0": draw(numeric_cells)} for _ in range(draw(st.integers(0, 12)))],
            name="prop",
        )
    attribute = draw(st.sampled_from(list(dataset.schema)))
    transform = draw(st.sampled_from(TRANSFORMS[kind_of(attribute)]))
    return dataset, attribute.name, transform


def per_row_reference(dataset: Dataset, name: str, transform) -> Dataset:
    """The transform applied row by row to fresh rows of the same cells."""
    position = dataset.schema.names.index(name)
    rows = dataset.to_rows()
    for row in rows:
        row[position] = transform(row[position])
    return Dataset.from_rows(dataset.schema, rows, name=dataset.name)


class TestEncodedCopyAndMapColumn:
    @given(edit=column_edits(), cache=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_copy_then_map_column_matches_per_row_reference(self, edit, cache):
        dataset, name, transform = edit
        if cache:
            for attribute in dataset.schema.names:
                dataset.columnar(attribute)
        source_cells = cells(dataset)
        reference = per_row_reference(dataset, name, transform)
        for mapped in (dataset.copy(), live_copy(dataset)):
            encoded = undecoded(mapped)
            version = mapped.version
            mapped.map_column(name, transform)
            assert undecoded(mapped) == encoded
            assert mapped.version == version + 1
            assert encoded_columns(mapped) == encoded_columns(reference)
            assert mapped.fingerprint() == reference.fingerprint()
            assert undecoded(mapped) == encoded
            assert [[exact(cell) for cell in row] for row in mapped.to_rows()] == [
                [exact(cell) for cell in row] for row in reference.to_rows()
            ]
        assert dataset.copy().version == 0
        # The source never changes.
        assert cells(dataset) == source_cells

    @given(edit=column_edits())
    @settings(max_examples=100, deadline=None)
    def test_set_column_on_a_copy_stays_encoded(self, edit):
        dataset, name, transform = edit
        values = [transform(value) for value in dataset.column(name)]
        clone = dataset.copy()
        clone.set_column(name, values)
        assert undecoded(clone)
        reference = live_copy(dataset)
        reference.set_column(name, values)
        assert encoded_columns(clone) == encoded_columns(reference)
        assert clone.fingerprint() == reference.fingerprint()
        assert cells(clone) == cells(reference)

    @given(edit=column_edits())
    @settings(max_examples=100, deadline=None)
    def test_cached_encoding_follows_every_mutation(self, edit):
        dataset, name, transform = edit
        n_records = len(dataset)
        for target in (dataset, pickle.loads(pickle.dumps(dataset))):
            # A live dataset encodes once per version; a loaded one keeps its
            # encoding cached after the rows are decoded.
            assert target.copy()._encoded is target.copy()._encoded
            assert len(target.records) == n_records
            assert target.copy()._encoded is target.copy()._encoded
            assert encoded_columns(target) == encoded_columns(live_copy(target))
            target.map_column(name, transform)
            assert encoded_columns(target.copy()) == encoded_columns(live_copy(target))
            target.append({})
            assert encoded_columns(target) == encoded_columns(live_copy(target))

    @given(dataset=datasets())
    @settings(max_examples=100, deadline=None)
    def test_transform_runs_once_per_exact_distinct_cell(self, dataset):
        for name in dataset.schema.names:
            for target in (dataset.copy(), live_copy(dataset)):
                seen: list = []

                def counting(value, seen=seen):
                    seen.append(value)
                    return value

                target.map_column(name, counting)
                assert len(seen) == distinct_objects(dataset, name, by_content=True)
                assert sorted(repr(exact(value)) for value in seen) == sorted(
                    repr(exact(value)) for value in target.column_codes(name)[0]
                )

    @given(dataset=datasets())
    @settings(max_examples=100, deadline=None)
    def test_encoded_accessors_do_not_decode(self, dataset):
        clone = dataset.copy()
        for name in dataset.schema.names:
            assert [exact(cell) for cell in clone.column(name)] == [
                exact(cell) for cell in dataset.column(name)
            ]
            assert encoded_columns(clone) == encoded_columns(live_copy(dataset))
        for name in dataset.schema.transaction_names:
            assert clone.item_universe(name) == dataset.item_universe(name)
        assert clone.fingerprint() == dataset.fingerprint()
        assert undecoded(clone)


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
