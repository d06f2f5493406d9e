"""CSR-style tokenized view of one transaction attribute.

A :class:`TransactionColumn` is the columnar twin of the row-oriented
``Record`` storage: the attribute's itemsets are tokenized against an
:class:`~repro.columnar.vocabulary.ItemVocabulary` and laid out as two flat
arrays — ``indptr`` (``int64``, ``n_records + 1`` row offsets) and ``tokens``
(``int32``, one entry per item occurrence) — exactly a CSR sparse-matrix
pattern.  Derived structures the hot paths need are computed lazily and
cached on the column:

* :meth:`bitset_postings` — per-token record bitsets (the inverted index),
* :meth:`occurrence_join` — the record-aligned (occurrence, label) pair
  expansion the transaction metrics reduce over with ``minimum.reduceat``,
* :meth:`candidate_matrix` — per original item, the records whose labels may
  stand for it (the k^m check's and the attacks' view of an output).

A column is a snapshot: :meth:`repro.datasets.dataset.Dataset.columnar`
caches one per attribute and drops it on any dataset mutation.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.bitset import posting_matrix, word_count
from repro.columnar.vocabulary import ItemVocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset ↔ columnar)
    from repro.datasets.dataset import Dataset
    from repro.index.interpreter import LabelInterpreter


class TransactionColumn:
    """Tokenized CSR layout of a transaction attribute plus cached kernels."""

    __slots__ = (
        "vocabulary",
        "indptr",
        "tokens",
        "attribute",
        "_postings",
        "_join",
        "_candidates",
    )

    def __init__(
        self,
        vocabulary: ItemVocabulary,
        indptr: np.ndarray,
        tokens: np.ndarray,
        attribute: str = "",
    ) -> None:
        self.vocabulary = vocabulary
        self.indptr = indptr
        self.tokens = tokens
        self.attribute = attribute
        self._postings: np.ndarray | None = None
        self._join: tuple["TransactionColumn", tuple] | None = None
        self._candidates: (
            tuple["LabelInterpreter", tuple[str, ...], np.ndarray] | None
        ) = None

    @classmethod
    def from_dataset(
        cls, dataset: "Dataset", attribute: str | None = None
    ) -> "TransactionColumn":
        """Tokenize ``attribute`` of ``dataset`` (default: its only transaction one).

        Each distinct itemset (:meth:`Dataset.column_codes`) is tokenized
        once, and its row is gathered for every record holding it.
        """
        attribute = attribute or dataset.single_transaction_attribute()
        itemsets, codes = dataset.column_codes(attribute)
        vocabulary = ItemVocabulary(
            item for itemset in itemsets for item in itemset
        )
        lookup = vocabulary.token
        # Sorted within the row: frozenset iteration order follows the
        # per-process hash seed, and any float reduction in occurrence order
        # (e.g. the UL charge sum) would differ by ulps between interpreters
        # — breaking byte-identical checkpoint resume.
        rows = [sorted(lookup(item) for item in itemset) for itemset in itemsets]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=np.int32, count=int(lengths.sum())
        )
        row_lengths = lengths[codes]
        indptr = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        # Position p of record r's row reads flat[start of its itemset + p - indptr[r]].
        shift = (np.cumsum(lengths) - lengths)[codes] - indptr[:-1]
        positions = np.arange(indptr[-1], dtype=np.int64) + np.repeat(shift, row_lengths)
        return cls(vocabulary, indptr, flat[positions], attribute=attribute)

    def __repr__(self) -> str:
        return (
            f"TransactionColumn(attribute={self.attribute!r}, "
            f"records={self.n_records}, items={len(self.vocabulary)}, "
            f"occurrences={self.total_items})"
        )

    @property
    def n_records(self) -> int:
        return len(self.indptr) - 1

    @property
    def total_items(self) -> int:
        """Total item occurrences (sum of itemset sizes)."""
        return len(self.tokens)

    def row_lengths(self) -> np.ndarray:
        """Itemset size per record."""
        return np.diff(self.indptr)

    def row_tokens(self, index: int) -> np.ndarray:
        """Token ids of record ``index`` (a view into the CSR array)."""
        return self.tokens[self.indptr[index] : self.indptr[index + 1]]

    def record_ids(self) -> np.ndarray:
        """The record index of every occurrence (parallel to ``tokens``)."""
        return np.repeat(np.arange(self.n_records, dtype=np.int64), self.row_lengths())

    def bitset_postings(self) -> np.ndarray:
        """Per-token posting bitsets: ``(n_items, ceil(n_records/64))`` ``uint64``."""
        if self._postings is None:
            self._postings = posting_matrix(
                self.tokens, self.record_ids(), len(self.vocabulary), self.n_records
            )
        return self._postings

    def occurrence_join(
        self, source: "TransactionColumn"
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Record-aligned cross join of ``source`` occurrences with this column.

        For every item occurrence of ``source`` record ``r``, pair it with
        every token of *this* column's record ``r``.  Returns
        ``(flat, segment_starts, unpaired)``:

        * ``flat`` — per pair, ``this_token * len(source.vocabulary) +
          source_token``, ready to gather from the raveled charge matrix of a
          ``(len(self.vocabulary), len(source.vocabulary))`` table,
        * ``segment_starts`` — start offset of each paired occurrence's pair
          segment (for ``ufunc.reduceat`` reductions),
        * ``unpaired`` — occurrences of records whose row here is empty.

        The join depends only on the two CSR layouts, so it is cached per
        ``source`` column (the repeated-metric-evaluation regime).  Both
        columns must cover the same records in the same order.
        """
        cached = self._join
        if cached is not None and cached[0] is source:
            return cached[1]
        source_lengths = source.row_lengths()
        own_lengths = self.row_lengths()
        pairs_per_occurrence = np.repeat(own_lengths, source_lengths)
        paired = pairs_per_occurrence > 0
        unpaired = int(np.count_nonzero(~paired))
        counts = pairs_per_occurrence[paired]
        segment_starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        own_row_starts = np.repeat(self.indptr[:-1], source_lengths)[paired]
        positions = (
            np.arange(total, dtype=np.int64)
            - np.repeat(segment_starts, counts)
            + np.repeat(own_row_starts, counts)
        )
        flat = self.tokens[positions].astype(np.int64) * len(
            source.vocabulary
        ) + np.repeat(source.tokens.astype(np.int64)[paired], counts)
        result = (flat, segment_starts, unpaired)
        self._join = (source, result)
        return result

    def candidate_matrix(
        self, interpreter: "LabelInterpreter", ordered_items: Sequence[str]
    ) -> np.ndarray:
        """Per-item candidate-record bitsets of this (anonymized) column.

        Row ``t`` is the bitset of records whose itemset holds a label that
        may stand for ``ordered_items[t]`` — the attacker's view of who could
        hold the item: the OR of the posting rows of every label whose
        ``interpreter.restricted_leaves`` contain the item.  Items outside
        ``ordered_items`` are ignored.  Returns a read-only
        ``(len(ordered_items), ceil(n_records/64))`` ``uint64`` matrix.

        The matrix depends only on this column and the pair, so it is cached
        per ``(interpreter, ordered_items)``: the k^m check and the attacks
        over one output share a single build.
        """
        items = tuple(ordered_items)
        cached = self._candidates
        if cached is not None and cached[0] is interpreter and cached[1] == items:
            return cached[2]
        token_of = {item: token for token, item in enumerate(items)}
        postings = self.bitset_postings()
        matrix = np.zeros((len(items), word_count(self.n_records)), dtype=np.uint64)
        for label_token, label in enumerate(self.vocabulary.items):
            rows = [
                token_of[item]
                for item in interpreter.restricted_leaves(label)
                if item in token_of
            ]
            if rows:
                matrix[rows] |= postings[label_token]
        matrix.flags.writeable = False
        self._candidates = (interpreter, items, matrix)
        return matrix
