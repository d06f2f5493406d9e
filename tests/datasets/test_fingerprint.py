"""Dataset content fingerprints: the identity half of checkpoint keys.

``Dataset.fingerprint()`` must be a pure function of the dataset's *content*
(schema + cell values) — independent of the process hash seed, of whether the
dataset lives in local memory or an attached shared-memory view, and of
incidental object identity — while every mutator must advance ``version`` so
the cached digest can never go stale.  Stale fingerprints would let a
checkpoint resume serve cells computed from different data, which is the one
failure the content-addressed design exists to rule out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.columnar.shared import SharedDatasetExport, attach
from repro.datasets import Attribute, Dataset, Schema, generate_rt_dataset


def make_dataset(name="fp-test") -> Dataset:
    schema = Schema(
        [
            Attribute.numeric("Age"),
            Attribute.categorical("City"),
            Attribute.transaction("Items"),
        ]
    )
    rows = [
        {"Age": 30 + n, "City": f"c{n % 3}", "Items": {f"i{n % 4}", f"i{(n * 3) % 5}"}}
        for n in range(10)
    ]
    return Dataset(schema, rows, name=name)


class TestFingerprintContent:
    def test_equal_content_equal_fingerprint(self):
        assert make_dataset().fingerprint() == make_dataset(name="other").fingerprint()

    def test_copy_preserves_fingerprint(self):
        dataset = make_dataset()
        assert dataset.copy().fingerprint() == dataset.fingerprint()

    def test_cell_change_changes_fingerprint(self):
        dataset = make_dataset()
        reference = dataset.fingerprint()
        dataset.set_value(3, "Age", 99)
        assert dataset.fingerprint() != reference

    def test_value_type_distinguished(self):
        """25 and 25.0 are different bytes — exactly the distinction the
        shared-memory layer preserves, so the key must preserve it too."""
        a = make_dataset()
        b = make_dataset()
        a.set_value(0, "Age", 25)
        b.set_value(0, "Age", 25.0)
        assert a.fingerprint() != b.fingerprint()

    def test_record_order_matters(self):
        dataset = make_dataset()
        reordered = dataset.subset(list(reversed(range(len(dataset)))))
        assert dataset.fingerprint() != reordered.fingerprint()

    def test_schema_rename_changes_fingerprint(self):
        dataset = make_dataset()
        reference = dataset.fingerprint()
        dataset.rename_attribute("City", "Town")
        assert dataset.fingerprint() != reference

    def test_empty_dataset(self):
        schema = Schema([Attribute.numeric("Age")])
        empty = Dataset(schema, [], name="empty")
        assert empty.fingerprint() == Dataset(schema, [], name="eh").fingerprint()


class TestVersionCounter:
    def test_every_mutator_bumps_version(self):
        dataset = make_dataset()
        mutations = [
            lambda d: d.append({"Age": 50, "City": "c9", "Items": {"i0"}}),
            lambda d: d.remove_record(0),
            lambda d: d.set_value(0, "Age", 77),
            lambda d: d.add_attribute(Attribute.categorical("Zip"), default="z"),
            lambda d: d.rename_attribute("Zip", "Postal"),
            lambda d: d.map_column("Age", lambda v: v + 1),
            lambda d: d.set_column("Age", list(range(len(d)))),
            lambda d: d.remove_attribute("Postal"),
        ]
        for mutate in mutations:
            before = dataset.version
            mutate(dataset)
            assert dataset.version == before + 1, mutate

    def test_reads_do_not_bump_version(self):
        dataset = make_dataset()
        before = dataset.version
        dataset.fingerprint()
        dataset.to_rows()
        dataset.columnar("Items")
        dataset.item_universe("Items")
        assert dataset.version == before

    def test_cache_invalidated_by_mutation(self):
        dataset = make_dataset()
        first = dataset.fingerprint()
        assert dataset.fingerprint() is first  # cached string, same object
        dataset.set_value(0, "City", "elsewhere")
        second = dataset.fingerprint()
        assert second != first

    def test_mutate_back_restores_fingerprint(self):
        """The fingerprint keys on content, not on history."""
        dataset = make_dataset()
        original_value = dataset[0]["Age"]
        reference = dataset.fingerprint()
        dataset.set_value(0, "Age", 1234)
        dataset.set_value(0, "Age", original_value)
        assert dataset.version > 0
        assert dataset.fingerprint() == reference


class TestFingerprintStability:
    def test_hash_seed_independence(self):
        """Frozenset itemsets iterate in hash order; the fingerprint must
        not — a restart would orphan every checkpoint cell otherwise."""
        script = (
            "from repro.datasets import generate_rt_dataset\n"
            "print(generate_rt_dataset(n_records=30, n_items=12, seed=7)"
            ".fingerprint())\n"
        )
        digests = set()
        for seed in ("0", "1", "977"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(__file__).resolve().parents[2] / "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    def test_attached_shared_view_matches_original(self):
        """A worker keying cells on its attached shared-memory view derives
        the same keys as the orchestrating process."""
        dataset = generate_rt_dataset(n_records=40, n_items=12, seed=19)
        with SharedDatasetExport(dataset) as export:
            attached = attach(export.manifest)
            assert attached.fingerprint() == dataset.fingerprint()
