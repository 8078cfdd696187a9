"""Unit tests for the validation subsystem's canonical forms and
state snapshots."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.validation import (
    SECTIONS,
    canonical_json,
    canonicalize,
    diff_results,
    diff_snapshots,
    digest,
    snapshot_catalog,
    snapshot_digest,
    snapshot_store,
)


@dataclass(frozen=True)
class _Row:
    person_id: int
    name: str
    tags: tuple


class TestCanonicalize:
    def test_dataclass_to_dict(self):
        row = _Row(7, "Ada", ("a", "b"))
        assert canonicalize(row) == {
            "person_id": 7, "name": "Ada", "tags": ["a", "b"]}

    def test_none_and_scalars_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(3) == 3

    def test_list_of_dataclasses(self):
        rows = [_Row(1, "x", ()), _Row(2, "y", (1,))]
        assert canonicalize(rows) == [
            {"person_id": 1, "name": "x", "tags": []},
            {"person_id": 2, "name": "y", "tags": [1]}]

    def test_canonical_json_is_key_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_is_stable_and_content_sensitive(self):
        assert digest([1, 2]) == digest([1, 2])
        assert digest([1, 2]) != digest([2, 1])
        assert digest([1, 2]).startswith("sha256:")

    def test_digest_hashes_exactly_the_canonical_json(self):
        # digest() encodes in pieces (a key, a block of rows at a time);
        # committed golden digests depend on the bytes staying those of
        # canonical_json, across block boundaries and nesting.
        rows = [[i, f"né{i}", (i, None)] for i in range(5000)]
        for value in (None, 3, "x", [], {}, [[]], _Row(1, "x", (2,)),
                      rows, tuple(rows[:2048]), rows[:2049],
                      {"b": rows, "a": [], 1: {"z": (1, 2), "y": rows[:3]}},
                      [_Row(i, "r", ()) for i in range(3)]):
            expected = "sha256:" + hashlib.sha256(
                canonical_json(value).encode("utf-8")).hexdigest()
            assert digest(value) == expected


class TestDiffResults:
    def test_equal_results(self):
        diff = diff_results([_Row(1, "x", ())], [_Row(1, "x", ())])
        assert diff.equal

    def test_differing_column_is_named(self):
        diff = diff_results([_Row(1, "x", ())], [_Row(1, "y", ())])
        assert not diff.equal
        assert diff.column_diffs[0].column == "name"
        assert diff.column_diffs[0].left == "x"
        assert diff.column_diffs[0].right == "y"

    def test_missing_row(self):
        diff = diff_results([_Row(1, "x", ())], [])
        assert diff.left_rows == 1 and diff.right_rows == 0
        assert diff.column_diffs[0].column == "<missing>"

    def test_scalar_results(self):
        diff = diff_results(None, _Row(1, "x", ()))
        assert diff.left_rows == 0 and diff.right_rows == 1

    def test_overflow_is_counted_not_dropped(self):
        left = [_Row(i, "a", ()) for i in range(10)]
        right = [_Row(i, "b", ()) for i in range(10)]
        diff = diff_results(left, right, max_diffs=3)
        assert len(diff.column_diffs) == 3
        assert diff.truncated == 7
        assert "(+9 more differing cells)" in diff.describe()


class TestSnapshots:
    def test_store_and_catalog_snapshots_agree(self, loaded_store,
                                               loaded_catalog):
        """The bulk-loaded network projects onto the same canonical
        state from both SUTs — the foundation of the state oracle."""
        left = snapshot_store(loaded_store)
        right = snapshot_catalog(loaded_catalog)
        diffs = diff_snapshots(left, right)
        assert not diffs, "\n".join(d.describe() for d in diffs)
        assert snapshot_digest(left) == snapshot_digest(right)

    def test_snapshot_covers_all_sections(self, loaded_store):
        snap = snapshot_store(loaded_store)
        assert set(snap) == set(SECTIONS)
        assert all(snap[s] for s in ("person", "knows", "message",
                                     "likes", "forum"))

    def test_diff_detects_one_sided_row(self, loaded_store,
                                        loaded_catalog, network):
        left = snapshot_store(loaded_store)
        right = snapshot_catalog(loaded_catalog)
        # Inject a like that only the catalog saw.
        right["likes"] = right["likes"] + [[999999, 1, 0, True]]
        diffs = diff_snapshots(left, right)
        assert len(diffs) == 1
        assert diffs[0].section == "likes"
        assert diffs[0].only_right and not diffs[0].only_left
        assert "999999" in diffs[0].describe("store", "engine")

    def test_diff_truncates_with_count(self, loaded_store,
                                       loaded_catalog):
        left = snapshot_store(loaded_store)
        right = snapshot_catalog(loaded_catalog)
        right["likes"] = right["likes"] + [
            [1000000 + i, 1, 0, True] for i in range(10)]
        diffs = diff_snapshots(left, right, max_rows=3)
        assert diffs[0].truncated == 7
        assert "more differing rows" in diffs[0].describe()
