"""Headless counterpart of SECRETA's Dataset Editor.

The GUI Dataset Editor lets a data publisher load a dataset, "edit attribute
names and values, add/delete rows and attributes", store the changes and plot
attribute histograms.  :class:`DatasetEditor` exposes the same operations as a
programmatic API with undo support, so example scripts and tests can replay
exactly the interactions described in the paper's demonstration plan.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro.datasets.attributes import Attribute
from repro.datasets.csv_io import load_csv, save_csv
from repro.datasets.dataset import Dataset
from repro.datasets.statistics import attribute_histogram
from repro.exceptions import DatasetError


class DatasetEditor:
    """Interactive-style editing of a :class:`Dataset` with undo history."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._history: list[Dataset] = []
        self._redo: list[Dataset] = []

    # -- loading / saving ----------------------------------------------------
    @classmethod
    def open(cls, path: str | Path, **load_kwargs: Any) -> "DatasetEditor":
        """Open a CSV dataset in the editor."""
        return cls(load_csv(path, **load_kwargs))

    def save(self, path: str | Path) -> Path:
        """Store the (possibly modified) dataset to a CSV file."""
        return save_csv(self._dataset, path)

    # -- state ----------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The dataset being edited (live object)."""
        return self._dataset

    @property
    def can_undo(self) -> bool:
        return bool(self._history)

    @property
    def can_redo(self) -> bool:
        return bool(self._redo)

    def _checkpoint(self) -> None:
        self._history.append(self._dataset.copy())
        self._redo.clear()

    def undo(self) -> None:
        """Revert the most recent editing operation."""
        if not self._history:
            raise DatasetError("nothing to undo")
        self._redo.append(self._dataset)
        self._dataset = self._history.pop()

    def redo(self) -> None:
        """Re-apply the most recently undone operation."""
        if not self._redo:
            raise DatasetError("nothing to redo")
        self._history.append(self._dataset)
        self._dataset = self._redo.pop()

    # -- editing operations (each is one undoable step) -----------------------
    def rename_attribute(self, old_name: str, new_name: str) -> None:
        self._checkpoint()
        self._dataset.rename_attribute(old_name, new_name)

    def set_value(self, record_index: int, attribute: str, value: Any) -> None:
        self._checkpoint()
        self._dataset.set_value(record_index, attribute, value)

    def add_record(self, values: dict[str, Any]) -> None:
        self._checkpoint()
        self._dataset.append(values)

    def delete_record(self, record_index: int) -> None:
        self._checkpoint()
        self._dataset.remove_record(record_index)

    def add_attribute(
        self,
        attribute: Attribute,
        values: Sequence[Any] | None = None,
        default: Any = None,
    ) -> None:
        self._checkpoint()
        self._dataset.add_attribute(attribute, values=values, default=default)

    def delete_attribute(self, name: str) -> None:
        self._checkpoint()
        self._dataset.remove_attribute(name)

    def transform_column(self, name: str, transform: Callable[[Any], Any]) -> None:
        """Apply ``transform`` to every value of a column (one undo step).

        ``transform`` runs once per distinct cell and its result goes to
        every record holding that cell (see :meth:`Dataset.map_column`), so
        it must be a pure function of the cell.
        """
        self._checkpoint()
        self._dataset.map_column(name, transform)

    # -- analysis --------------------------------------------------------------
    def histogram(self, attribute: str, bins: int = 10) -> dict:
        """Histogram of ``attribute`` (see :func:`attribute_histogram`)."""
        return attribute_histogram(self._dataset, attribute, bins=bins)
