"""Property tests: the postings-built candidate matrix equals a per-record scan.

:meth:`TransactionColumn.candidate_matrix` ORs the posting rows of every
label that may stand for an item.  :func:`reference_candidate_matrix` is the
per-record loop it replaced: resolve each record's itemset to the items it
covers and set the record's bit in each covered item's row.  Both must give
the same ``uint64`` matrix on any labels an output can hold — plain items,
explicit ``(a,b)`` groups, hierarchy nodes, the root, the suppression marker
and labels outside the universe — with and without a hierarchy, and a
second call with the same interpreter and items must hit the cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.bitset import posting_matrix
from repro.datasets import Attribute, Dataset, Schema
from repro.hierarchy import build_item_hierarchy
from repro.index import LabelInterpreter, interpreter_for
from repro.metrics import SUPPRESSED, candidate_matrix

ITEMS = [f"i{n}" for n in range(8)]
HIERARCHY = build_item_hierarchy(ITEMS, fanout=3)
LABELS = ITEMS + [
    "(i0,i1)",
    "(i2,i5,i7)",
    "(i1,zz)",
    "zz",
    "*",
    SUPPRESSED,
    "{i0..i7}",
    "{i2..i5}",
]


def reference_candidate_matrix(
    dataset: Dataset,
    attribute: str,
    interpreter: LabelInterpreter,
    ordered_items: Sequence[str],
) -> np.ndarray:
    """Per-record reference: each record's covered items set its bit per item row."""
    token_of = {item: token for token, item in enumerate(ordered_items)}
    tokens: list[int] = []
    records: list[int] = []
    for position, record in enumerate(dataset):
        for item in interpreter.covered_items(record[attribute]):
            if item in token_of:
                tokens.append(token_of[item])
                records.append(position)
    return posting_matrix(
        np.asarray(tokens, dtype=np.int64),
        np.asarray(records, dtype=np.int64),
        len(ordered_items),
        len(dataset),
    )


@st.composite
def instances(draw):
    itemsets = draw(
        st.lists(st.sets(st.sampled_from(LABELS), max_size=4), max_size=70)
    )
    dataset = Dataset(
        Schema([Attribute.transaction("Items")]),
        [{"Items": sorted(itemset)} for itemset in itemsets],
    )
    hierarchy = draw(st.sampled_from([None, HIERARCHY]))
    universe = draw(
        st.one_of(st.none(), st.sets(st.sampled_from(ITEMS + ["zz"]), min_size=1))
    )
    ordered = sorted(
        draw(st.sets(st.sampled_from(ITEMS + ["zz", "yy"]), max_size=len(ITEMS) + 2))
    )
    return dataset, hierarchy, universe, ordered


@given(instance=instances(), encoded=st.booleans())
@settings(max_examples=120, deadline=None)
def test_postings_build_matches_per_record_reference(instance, encoded):
    dataset, hierarchy, universe, ordered = instance
    # A copy is column-encoded, the source has live rows: both must agree.
    target = dataset.copy() if encoded else dataset
    interpreter = interpreter_for(hierarchy, universe)
    expected = reference_candidate_matrix(dataset, "Items", interpreter, ordered)
    built = candidate_matrix(target, "Items", interpreter, ordered)
    assert built.dtype == expected.dtype == np.uint64
    assert built.shape == expected.shape
    assert np.array_equal(built, expected)
    assert not built.flags.writeable
    # Same interpreter and items: the cached build, not a new one.
    assert candidate_matrix(target, "Items", interpreter, list(ordered)) is built
    if encoded:
        assert target._rows is None


def test_cache_is_keyed_by_interpreter_and_items():
    dataset = Dataset(
        Schema([Attribute.transaction("Items")]),
        [{"Items": ["(i0,i1)"]}, {"Items": ["*"]}, {"Items": []}, {"Items": ["i2"]}],
    )
    wide = interpreter_for(None, ITEMS)
    narrow = interpreter_for(None, ["i0", "i2"])
    first = candidate_matrix(dataset, "Items", wide, ITEMS)
    assert candidate_matrix(dataset, "Items", wide, ITEMS) is first
    for interpreter, ordered in ((narrow, ITEMS), (wide, ITEMS[:3])):
        rebuilt = candidate_matrix(dataset, "Items", interpreter, ordered)
        assert rebuilt is not first
        assert np.array_equal(
            rebuilt,
            reference_candidate_matrix(dataset, "Items", interpreter, ordered),
        )
