"""The RT-dataset model used throughout the SECRETA reproduction.

A :class:`Dataset` is a table whose schema may mix relational (single-valued)
and transaction (set-valued) attributes — what the SECRETA paper calls an
*RT-dataset*.  Purely relational and purely transactional datasets are the two
degenerate cases of the same model, so a single class serves all nine
anonymization algorithms.

Anonymization algorithms group, generalize and merge *records*, so records
are first-class (:class:`Record`), while column views are derived on demand.
A dataset pickles column-encoded instead (distinct cells plus one narrow
code per record, see :func:`exact_cell_codes`), and an unpickled dataset
decodes its rows on first row-level access: checkpoint loads and
process-mode result transfer that never read the rows never build them.
:meth:`Dataset.copy` returns such an encoded dataset too, and
:meth:`~Dataset.column`, :meth:`~Dataset.map_column`,
:meth:`~Dataset.set_column` and the columnar views work on the encoding, so
an anonymized output that is only measured, exported and stored never
builds its rows.
"""

from __future__ import annotations

import copy as _copy
import hashlib
import re
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.datasets.attributes import Attribute, AttributeKind, Schema
from repro.exceptions import DatasetError, SchemaError

#: The type of a single relational cell (categorical label or number).
RelationalValue = Any

#: The type of a transaction cell: an immutable set of item labels.
ItemSet = frozenset

#: Strings accepted in numeric columns even though they are not numbers:
#: generalized interval labels ("[20-40]"), group labels ("{a..b}"), the
#: generic root "*" and the suppression marker.  Anonymization coarsens a
#: numeric domain into such labels while the schema keeps calling the
#: attribute numeric (the original, truthful domain).
_GENERALIZED_NUMERIC = re.compile(
    r"^(\*|†|\[.+-.+\]|\{.+\})$"
)


class Record:
    """One row of an RT-dataset.

    Relational attribute values are stored as-is (strings or numbers);
    transaction attribute values are stored as ``frozenset`` of item labels.
    Records are owned by their dataset; mutate them through
    :class:`Dataset` / :class:`~repro.datasets.editor.DatasetEditor` so that
    schema consistency is preserved.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]):
        self._values: dict[str, Any] = dict(values)

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise SchemaError(f"record has no attribute {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"Record({self._values!r})"

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def items(self) -> Iterable[tuple[str, Any]]:
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """A copy of the record's values keyed by attribute name."""
        return dict(self._values)

    def values_for(self, names: Sequence[str]) -> tuple:
        """The record's values for ``names``, in the given order."""
        return tuple(self._values[name] for name in names)

    # Internal mutators used by Dataset -------------------------------------
    def _set(self, name: str, value: Any) -> None:
        self._values[name] = value

    def _delete(self, name: str) -> None:
        self._values.pop(name, None)

    def _rename(self, old_name: str, new_name: str) -> None:
        if old_name in self._values:
            self._values[new_name] = self._values.pop(old_name)


def _normalise_cell(attribute: Attribute, value: Any) -> Any:
    """Coerce ``value`` to the storage form required by ``attribute``."""
    if attribute.is_transaction:
        if value is None:
            return frozenset()
        if isinstance(value, str):
            raise DatasetError(
                f"transaction attribute {attribute.name!r} expects an iterable "
                f"of items, got the string {value!r}; split it first"
            )
        return frozenset(str(item) for item in value)
    if attribute.is_numeric:
        if value is None or value == "":
            return None
        if isinstance(value, bool):
            raise DatasetError(
                f"numeric attribute {attribute.name!r} cannot store booleans"
            )
        if isinstance(value, (int, float)):
            return value
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            if isinstance(value, str) and _GENERALIZED_NUMERIC.match(value.strip()):
                return value.strip()
            raise DatasetError(
                f"numeric attribute {attribute.name!r} cannot store {value!r}"
            ) from None
        return int(as_float) if as_float.is_integer() else as_float
    # Categorical: keep strings; generalized interval labels are strings too.
    if value is None:
        return None
    return str(value)


def _owning_record(values: dict[str, Any]) -> Record:
    """A :class:`Record` that takes ownership of ``values`` (no copy).

    Every path that makes rows goes through here: callers hand over a dict
    made for this record alone, so it is never copied a second time.
    """
    record = object.__new__(Record)
    record._values = values
    return record


def records_from_columns(
    names: Sequence[str], columns: Sequence[Sequence[Any]], n_records: int
) -> list[Record]:
    """One record per row of per-attribute cell lists given in ``names`` order.

    Cells are shared, never copied: each distinct cell object of a column
    lands in every row that holds it, and each row gets one fresh dict.
    """
    if not names:
        return [_owning_record({}) for _ in range(n_records)]
    return [_owning_record(dict(zip(names, row))) for row in zip(*columns)]


#: Cell types whose dictionary-key equality is exact (equal keys have the
#: same type and repr).  Any other cell — ``float`` above all, where ``25``
#: equals ``25.0`` and ``-0.0`` equals ``0.0`` — is keyed by type and repr,
#: except NaN, which is keyed by identity just as a dict matches it.
_KEYED_BY_VALUE = frozenset({str, int, frozenset, type(None)})


def _code_dtype(n_distinct: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding codes below ``n_distinct``."""
    if n_distinct <= 1 << 8:
        return np.dtype(np.uint8)
    if n_distinct <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _gather(values: tuple, codes: np.ndarray) -> list[Any]:
    """The per-record cells ``values[codes[i]]`` of one encoded column."""
    return list(map(values.__getitem__, codes.tolist()))


def exact_cell_codes(cells: Sequence[Any]) -> tuple[np.ndarray, tuple]:
    """Per-cell codes over the distinct cells in first-seen order, type-exact.

    Returns ``(codes, values)``: ``values`` holds the first-seen object of
    each distinct cell, so ``values[codes[i]]`` has the type and repr of
    ``cells[i]``.  Dictionary-key equality would merge ``25`` with ``25.0``
    and ``-0.0`` with ``0.0``, whose string forms differ; such cells are
    keyed by ``(type, repr)`` instead, so they keep distinct codes.  A NaN
    cell equals nothing, itself included, so distinct NaN objects stay
    distinct, as they are in a dict-keyed column view (and the dataset's
    fingerprint).  Codes use the narrowest unsigned dtype that fits
    (:func:`_code_dtype`).
    """
    index: dict[Any, int] = {}
    distinct: list[Any] = []
    codes = []
    for value in cells:
        kind = type(value)
        if kind in _KEYED_BY_VALUE:
            key = value
        elif value != value:  # NaN
            key = (kind, id(value))
        else:
            key = (kind, repr(value))
        code = index.get(key)
        if code is None:
            code = index[key] = len(distinct)
            distinct.append(value)
        codes.append(code)
    return np.array(codes, dtype=_code_dtype(len(distinct))), tuple(distinct)


class Dataset:
    """An in-memory RT-dataset: a schema plus an ordered list of records."""

    def __init__(
        self,
        schema: Schema | Iterable[Attribute],
        records: Iterable[Mapping[str, Any]] = (),
        name: str = "dataset",
    ):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.name = name
        #: ``(names, n_records, columns)`` of a dataset whose rows are not
        #: decoded yet (unpickled, or made by :meth:`copy`); each column is
        #: ``(distinct cells, codes)`` as :func:`exact_cell_codes` makes it.
        #: ``None`` once the rows are live.
        self._encoded: tuple[tuple[str, ...], int, tuple] | None = None
        #: The live rows behind :attr:`_records`; ``None`` while encoded.
        self._rows: list[Record] | None = []
        #: attribute -> cached TransactionColumn; dropped on any mutation.
        self._columnar: dict[str, Any] = {}
        #: Monotonic mutation counter; every mutator bumps it, so cached
        #: derivations (the content fingerprint today, MVCC snapshots later)
        #: can tell whether they are still current.
        self._version = 0
        #: ``(version, digest)`` cache behind :meth:`fingerprint`.
        self._fingerprint: tuple[int, str] | None = None
        #: ``(version, encoding)`` cache behind :meth:`_encoding` for live rows.
        self._encoding_cache: tuple[int, tuple] | None = None
        for row in records:
            self.append(row)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema | Iterable[Attribute],
        rows: Iterable[Sequence[Any]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from positional rows aligned with the schema order."""
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        names = schema.names
        dicts = []
        for row in rows:
            row = list(row)
            if len(row) != len(names):
                raise DatasetError(
                    f"row has {len(row)} values but schema has {len(names)} attributes"
                )
            dicts.append(dict(zip(names, row)))
        return cls(schema, dicts, name=name)

    # -- basic container protocol ---------------------------------------------
    def __len__(self) -> int:
        if self._encoded is not None:
            return self._encoded[1]
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and self._records == other._records

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, records={len(self)}, "
            f"attributes={self._schema.names})"
        )

    # -- pickling -------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Column-encoded instead of per-row: each attribute pickles its
        # distinct cells once plus one narrow code per record, so repeated
        # cells (generalized labels, shared itemsets) cost a byte or two and
        # the unpickling side can defer building rows.  Derived caches are
        # dropped and rebuilt on demand.
        _, n_records, columns = self._encoding()
        return {
            "schema": self._schema,
            "name": self.name,
            "version": self._version,
            "n_records": n_records,
            "columns": columns,
        }

    def __setstate__(self, state: dict) -> None:
        self._schema = state["schema"]
        self.name = state["name"]
        self._version = state["version"]
        self._columnar = {}
        self._fingerprint = None
        self._encoding_cache = None
        # No Record is built here: the first row-level access decodes them
        # (see _records), so callers that only pass the dataset on, count it
        # or pickle it again never pay for the rows.
        self._rows = None
        self._encoded = (self._schema.names, state["n_records"], state["columns"])

    def _encoding(self) -> tuple[tuple[str, ...], int, tuple]:
        """``(names, n_records, columns)``, each column ``(distinct cells, codes)``.

        An encoded dataset returns its encoding; live rows are encoded once
        per version (every mutator bumps it) and the result is cached.
        """
        if self._encoded is not None:
            return self._encoded
        cached = self._encoding_cache
        if cached is None or cached[0] != self._version:
            encoding = (
                tuple(self._schema.names),
                len(self._records),
                tuple(self._encode_column(attribute) for attribute in self._schema),
            )
            cached = self._encoding_cache = (self._version, encoding)
        return cached[1]

    def _encode_column(self, attribute: Attribute) -> tuple[tuple, np.ndarray]:
        """``(distinct cells, codes)`` of one attribute (see exact_cell_codes)."""
        codes, values = exact_cell_codes(
            [record._values[attribute.name] for record in self._records]
        )
        return values, codes

    @property
    def _records(self) -> list[Record]:
        """The live rows; an unpickled dataset decodes them on first access."""
        if self._rows is None:
            if self._encoded is None:  # pragma: no cover - one is always set
                raise DatasetError("dataset rows are neither live nor encoded")
            names, n_records, columns = self._encoded
            self._rows = records_from_columns(
                names, [_gather(values, codes) for values, codes in columns], n_records
            )
            # The rows hold exactly the encoding: it stays valid until the
            # next mutation, so pickling or copying them encodes nothing.
            self._encoding_cache = (self._version, self._encoded)
            self._encoded = None
        return self._rows

    @_records.setter
    def _records(self, records: list[Record]) -> None:
        self._rows = records
        self._encoded = None
        self._encoding_cache = None

    def _encoded_column(self, name: str) -> tuple[tuple, np.ndarray] | None:
        """``(distinct cells, codes)`` of ``name`` while the rows are encoded."""
        if self._encoded is None:
            return None
        names, _, columns = self._encoded
        return columns[list(names).index(name)]

    def _replace_encoded_column(self, name: str, column: tuple[tuple, np.ndarray]) -> None:
        """Swap the ``(distinct cells, codes)`` of ``name`` in the encoding."""
        if self._encoded is None:  # pragma: no cover - callers check first
            raise DatasetError("dataset rows are not encoded")
        names, n_records, columns = self._encoded
        position = list(names).index(name)
        self._encoded = (
            names,
            n_records,
            columns[:position] + (column,) + columns[position + 1 :],
        )

    # -- accessors -------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def records(self) -> list[Record]:
        """The dataset's records (the live list; treat as read-only)."""
        return self._records

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def is_rt_dataset(self) -> bool:
        """Whether the dataset mixes relational and transaction attributes."""
        return self._schema.is_rt_schema()

    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 for a freshly built dataset)."""
        return self._version

    def fingerprint(self) -> str:
        """A cached content digest of the dataset, stable across processes.

        The digest covers the schema (names, kinds, quasi-identifier flags)
        and every cell, computed over the columnar views so it shares their
        cost model: ``int32`` code arrays plus the distinct cell values.
        Hash-randomised structures never leak in — transaction tokens are
        re-sorted within each record (their per-row order is ``frozenset``
        iteration order, which varies with ``PYTHONHASHSEED``) and distinct
        values are walked in code order, which is first-seen record order.
        The result is identical for a shared-memory view and its original,
        so checkpoint keys agree across execution modes.

        Any mutation bumps :attr:`version` and invalidates the cache; the
        digest is recomputed lazily on next use.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n_records = len(self)
        digest = hashlib.blake2b(digest_size=20)
        digest.update(f"dataset-fingerprint:v1:{n_records}".encode())
        for attribute in self._schema:
            digest.update(
                f"\x1e{attribute.name}\x1f{attribute.kind.value}"
                f"\x1f{int(attribute.quasi_identifier)}\x1f".encode()
            )
            if not n_records:
                continue
            column = self.columnar(attribute.name)
            if attribute.is_transaction:
                digest.update("\x1f".join(column.vocabulary.items).encode())
                indptr = np.ascontiguousarray(column.indptr, dtype=np.int64)
                digest.update(indptr.tobytes())
                tokens = np.ascontiguousarray(column.tokens, dtype=np.int64)
                counts = np.diff(indptr)
                record_ids = np.repeat(np.arange(len(counts)), counts)
                order = np.lexsort((tokens, record_ids))
                digest.update(tokens[order].tobytes())
            else:
                codes = np.ascontiguousarray(column.codes, dtype=np.int64)
                digest.update(codes.tobytes())
                for value in column.values:
                    digest.update(f"{type(value).__name__}:{value!r}\x1f".encode())
                string_codes, labels = column.string_codes()
                digest.update(np.ascontiguousarray(string_codes).tobytes())
                digest.update("\x1f".join(labels).encode())
        result = digest.hexdigest()
        self._fingerprint = (self._version, result)
        return result

    def column(self, name: str) -> list[Any]:
        """All values of attribute ``name``, in record order.

        An encoded dataset gathers them from its codes without decoding rows.
        """
        self._require_attribute(name)
        encoded = self._encoded_column(name)
        if encoded is not None:
            return _gather(*encoded)
        return [record[name] for record in self._records]

    def column_codes(self, name: str) -> tuple[tuple, np.ndarray]:
        """``(distinct cells, codes)`` of attribute ``name``.

        The distinct cells are in first-seen record order and told apart
        type-exactly, with one narrow code per record: the pickled form of
        the column (see :func:`exact_cell_codes`).  An encoded dataset
        returns its own encoding without decoding rows; live rows are encoded
        once per version.  Treat the result as read-only.
        """
        self._require_attribute(name)
        cached = self._encoding_cache
        if self._encoded is None and (cached is None or cached[0] != self._version):
            return self._encode_column(self._schema[name])
        names, _, columns = self._encoding()
        return columns[list(names).index(name)]

    def relational_tuple(self, index: int, names: Sequence[str] | None = None) -> tuple:
        """The relational quasi-identifier values of record ``index``."""
        names = list(names) if names is not None else self._schema.relational_names
        return self._records[index].values_for(names)

    def itemset(self, index: int, attribute: str | None = None) -> frozenset:
        """The transaction itemset of record ``index``.

        If ``attribute`` is omitted the dataset must have exactly one
        transaction attribute.
        """
        attribute = attribute or self.single_transaction_attribute()
        value = self._records[index][attribute]
        return value if isinstance(value, frozenset) else frozenset(value)

    def single_transaction_attribute(self) -> str:
        """The name of the dataset's only transaction attribute."""
        names = self._schema.transaction_names
        if len(names) != 1:
            raise SchemaError(
                f"expected exactly one transaction attribute, found {names}"
            )
        return names[0]

    def item_universe(self, attribute: str | None = None) -> set[str]:
        """The set of all items appearing in a transaction attribute.

        When a columnar view of the attribute has been built (see
        :meth:`columnar`) its vocabulary is reused instead of re-scanning
        every record.
        """
        attribute = attribute or self.single_transaction_attribute()
        self._require_attribute(attribute)
        column = self._columnar.get(attribute)
        if column is not None:
            return column.vocabulary.universe()
        encoded = self._encoded_column(attribute)
        itemsets = (
            encoded[0]
            if encoded is not None
            else (record[attribute] for record in self._records)
        )
        universe: set[str] = set()
        for itemset in itemsets:
            universe.update(itemset)
        return universe

    def columnar(self, attribute: str | None = None):
        """The cached columnar view of one attribute.

        Transaction attributes yield a
        :class:`~repro.columnar.column.TransactionColumn` (CSR tokens +
        posting bitsets); numeric and categorical relational attributes yield
        a :class:`~repro.columnar.relational.NumericColumn` /
        :class:`~repro.columnar.relational.CategoricalColumn` (one ``int32``
        code per record over the distinct cell values).  Each view is built
        on first use and invalidated by any dataset mutation; the inverted
        index, the metrics and the clustering/merge kernels run on it.  With
        no ``attribute`` the dataset's single transaction attribute is used.
        """
        from repro.columnar import CategoricalColumn, NumericColumn, TransactionColumn

        attribute = attribute or self.single_transaction_attribute()
        self._require_attribute(attribute)
        column = self._columnar.get(attribute)
        if column is None:
            spec = self._schema[attribute]
            if spec.is_transaction:
                column = TransactionColumn.from_dataset(self, attribute)
            elif spec.is_numeric:
                column = NumericColumn.from_dataset(self, attribute)
            else:
                column = CategoricalColumn.from_dataset(self, attribute)
            self._columnar[attribute] = column
        return column

    def domain(self, name: str) -> list[Any]:
        """Sorted distinct values of a relational attribute."""
        self._require_attribute(name)
        attribute = self._schema[name]
        if attribute.is_transaction:
            return sorted(self.item_universe(name))
        values = {record[name] for record in self._records if record[name] is not None}
        try:
            return sorted(values)
        except TypeError:
            return sorted(values, key=str)

    def group_by(self, names: Sequence[str]) -> dict[tuple, list[int]]:
        """Group record indices by their values on ``names``.

        This is the equivalence-class view used by the k-anonymity checks and
        by several algorithms.
        """
        for name in names:
            self._require_attribute(name)
        groups: dict[tuple, list[int]] = {}
        for index, record in enumerate(self._records):
            key = record.values_for(names)
            groups.setdefault(key, []).append(index)
        return groups

    # -- mutation ---------------------------------------------------------------
    def append(self, values: Mapping[str, Any]) -> None:
        """Append a record given as a mapping from attribute name to value."""
        unknown = set(values) - set(self._schema.names)
        if unknown:
            raise SchemaError(f"unknown attributes in record: {sorted(unknown)}")
        normalised: dict[str, Any] = {}
        for attribute in self._schema:
            raw = values.get(attribute.name)
            normalised[attribute.name] = _normalise_cell(attribute, raw)
        self._records.append(Record(normalised))
        self._columnar.clear()
        self._version += 1

    def remove_record(self, index: int) -> None:
        try:
            del self._records[index]
        except IndexError:
            raise DatasetError(f"no record at index {index}") from None
        self._columnar.clear()
        self._version += 1

    def set_value(self, index: int, name: str, value: Any) -> None:
        """Set attribute ``name`` of record ``index`` to ``value``."""
        self._require_attribute(name)
        try:
            record = self._records[index]
        except IndexError:
            raise DatasetError(f"no record at index {index}") from None
        record._set(name, _normalise_cell(self._schema[name], value))
        self._columnar.pop(name, None)
        self._version += 1

    def set_column(self, name: str, values: Sequence[Any]) -> None:
        """Set attribute ``name`` of every record, in record order.

        An encoded dataset stays encoded: the new cells are encoded instead
        of written into rows.
        """
        self._require_attribute(name)
        if len(values) != len(self):
            raise DatasetError(f"got {len(values)} values for {len(self)} records")
        attribute = self._schema[name]
        cells = [_normalise_cell(attribute, value) for value in values]
        if self._encoded is not None:
            codes, distinct = exact_cell_codes(cells)
            self._replace_encoded_column(name, (distinct, codes))
        else:
            for record, cell in zip(self._records, cells):
                record._values[name] = cell
        self._columnar.pop(name, None)
        self._version += 1

    def add_attribute(
        self,
        attribute: Attribute,
        values: Sequence[Any] | None = None,
        default: Any = None,
    ) -> None:
        """Add a column, filling it from ``values`` or with ``default``."""
        if attribute.name in self._schema:
            raise SchemaError(f"attribute {attribute.name!r} already exists")
        if values is not None and len(values) != len(self._records):
            raise DatasetError(
                f"got {len(values)} values for {len(self._records)} records"
            )
        self._schema = self._schema.with_attribute(attribute)
        for position, record in enumerate(self._records):
            raw = values[position] if values is not None else default
            record._set(attribute.name, _normalise_cell(attribute, raw))
        self._columnar.pop(attribute.name, None)
        self._version += 1

    def remove_attribute(self, name: str) -> None:
        """Drop a column from the schema and every record."""
        self._schema = self._schema.without_attribute(name)
        for record in self._records:
            record._delete(name)
        self._columnar.pop(name, None)
        self._version += 1

    def rename_attribute(self, old_name: str, new_name: str) -> None:
        """Rename a column in the schema and every record."""
        self._schema = self._schema.renamed(old_name, new_name)
        for record in self._records:
            record._rename(old_name, new_name)
        self._columnar.pop(old_name, None)
        self._columnar.pop(new_name, None)
        self._version += 1

    # -- transformation -----------------------------------------------------------
    def copy(self, name: str | None = None) -> "Dataset":
        """An independent, column-encoded copy over shared cell values.

        The copy holds the source's encoding (see :meth:`column_codes`) and
        builds rows only on first row-level access.  It starts with the
        source's cached columnar views: they are immutable derivations of
        equal content, and each mutator drops only the views it affects.
        Mutating the copy (or the original) never affects the other; the cell
        values themselves are safe to share because they are immutable
        (strings, numbers, ``frozenset`` itemsets).
        """
        clone = Dataset(self._schema, name=name or self.name)
        clone._rows = None
        clone._encoded = self._encoding()
        clone._columnar = dict(self._columnar)
        return clone

    def project(self, names: Sequence[str], name: str | None = None) -> "Dataset":
        """A new dataset containing only the attributes in ``names``."""
        attributes = [self._schema[n] for n in names]
        projected = Dataset(Schema(attributes), name=name or f"{self.name}[projected]")
        for record in self._records:
            projected.append({n: record[n] for n in names})
        return projected

    def select(
        self, predicate: Callable[[Record], bool], name: str | None = None
    ) -> "Dataset":
        """A new dataset containing the records for which ``predicate`` holds."""
        selected = Dataset(self._schema, name=name or f"{self.name}[selected]")
        selected._records = [
            _owning_record(record._values.copy())
            for record in self._records
            if predicate(record)
        ]
        return selected

    def subset(self, indices: Sequence[int], name: str | None = None) -> "Dataset":
        """A new dataset containing the records at ``indices`` (in that order)."""
        selected = Dataset(self._schema, name=name or f"{self.name}[subset]")
        records = self._records
        try:
            selected._records = [
                _owning_record(records[i]._values.copy()) for i in indices
            ]
        except IndexError:
            raise DatasetError("subset index out of range") from None
        return selected

    def map_column(self, name: str, transform: Callable[[Any], Any]) -> None:
        """Apply ``transform`` to every value of attribute ``name`` in place.

        ``transform`` runs once per distinct cell, cells told apart as
        :func:`exact_cell_codes` does, and every record holding that cell
        gets the one result: the transform must be a pure function of the
        cell.  An encoded dataset stays encoded; its new column is
        re-canonicalized (first-seen order, narrowest code dtype), so it
        pickles exactly as the same dataset with live rows would.
        """
        self._require_attribute(name)
        attribute = self._schema[name]
        encoded = self._encoded_column(name)
        if encoded is not None:
            values, codes = encoded
        else:
            codes, values = exact_cell_codes(
                [record._values[name] for record in self._records]
            )
        images = [_normalise_cell(attribute, transform(value)) for value in values]
        if encoded is not None:
            remap, distinct = exact_cell_codes(images)
            self._replace_encoded_column(name, (distinct, remap[codes]))
        else:
            for record, code in zip(self._records, codes.tolist()):
                record._values[name] = images[code]
        self._columnar.pop(name, None)
        self._version += 1

    def to_rows(self) -> list[list[Any]]:
        """Positional rows aligned with the schema order (deep copies)."""
        names = self._schema.names
        return [
            [_copy.copy(record[name]) for name in names] for record in self._records
        ]

    # -- internal helpers -----------------------------------------------------------
    def _require_attribute(self, name: str) -> None:
        if name not in self._schema:
            raise SchemaError(f"unknown attribute {name!r}")
