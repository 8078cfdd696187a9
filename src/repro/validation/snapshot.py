"""Canonical full-graph state snapshots of both SUTs.

A snapshot maps the *entire* visible database state — whichever SUT it
came from — onto one canonical relational shape: a dict of section name
→ sorted list of rows (rows are plain lists).  The graph store's
vertices/edges and the relational catalog's tables project onto the same
sections, so ``snapshot_store(store) == snapshot_catalog(catalog)``
holds exactly when the two systems hold the same social network — the
state oracle the differential runner checks at checkpoints.

Canonicalization choices (all documented, all shared):

* undirected ``knows`` edges (stored twice in both systems) keep only
  the ``person1 < person2`` direction;
* posts and comments merge into one ``message`` section with the
  relational conventions — ``forum_id`` 0 and ``language`` ``""`` for
  comments, ``root_post_id`` = own id and ``reply_of_id`` 0 for posts,
  photo posts fall back to their image file as content;
* message ``location_ip`` / ``browser_used`` are excluded: the columnar
  schema genuinely does not store them (a layout decision the paper
  permits), so they cannot be part of a cross-system oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.catalog import Catalog
from ..store.graph import GraphStore
from ..store.loader import EdgeLabel, VertexLabel
from .canonical import canonical_json, digest

#: Section order of a canonical snapshot (stable for rendering).
SECTIONS = (
    "person", "person_email", "person_language", "person_interest",
    "study_at", "work_at", "knows", "forum", "forum_tag", "membership",
    "message", "message_tag", "likes",
    "place", "organisation", "tag", "tagclass",
)


def _sorted(rows) -> list[list]:
    return sorted(rows, key=canonical_json)


def snapshot_store(store: GraphStore) -> dict[str, list]:
    """Canonical state snapshot of the graph store (one read txn)."""
    with store.transaction() as txn:
        snap: dict[str, list] = {}
        snap["person"] = _sorted(
            [vid, p["first_name"], p["last_name"], p["gender"],
             p["birthday"], p["creation_date"], p["city_id"],
             p["country_id"], p["browser_used"], p["location_ip"]]
            for vid, p in txn.vertices(VertexLabel.PERSON))
        snap["person_email"] = _sorted(
            [vid, seq, email]
            for vid, p in txn.vertices(VertexLabel.PERSON)
            for seq, email in enumerate(p["emails"]))
        snap["person_language"] = _sorted(
            [vid, seq, language]
            for vid, p in txn.vertices(VertexLabel.PERSON)
            for seq, language in enumerate(p["languages"]))
        snap["person_interest"] = _sorted(
            [src, dst]
            for src, dst, __ in txn.edges(EdgeLabel.HAS_INTEREST))
        snap["study_at"] = _sorted(
            [src, dst, p["class_year"]]
            for src, dst, p in txn.edges(EdgeLabel.STUDY_AT))
        snap["work_at"] = _sorted(
            [src, dst, p["work_from"]]
            for src, dst, p in txn.edges(EdgeLabel.WORK_AT))
        snap["knows"] = _sorted(
            [src, dst, p["creation_date"]]
            for src, dst, p in txn.edges(EdgeLabel.KNOWS) if src < dst)
        snap["forum"] = _sorted(
            [vid, p["title"], p["creation_date"], p["moderator_id"]]
            for vid, p in txn.vertices(VertexLabel.FORUM))
        snap["forum_tag"] = _sorted(
            [src, dst]
            for src, dst, __ in txn.edges(EdgeLabel.FORUM_HAS_TAG))
        snap["membership"] = _sorted(
            [src, dst, p["joined_date"]]
            for src, dst, p in txn.edges(EdgeLabel.HAS_MEMBER))
        messages = [
            [vid, True, p["author_id"], p["forum_id"],
             p["creation_date"], p["content"] or (p["image_file"] or ""),
             p["length"], p["country_id"], vid, 0, p["language"]]
            for vid, p in txn.vertices(VertexLabel.POST)]
        messages += [
            [vid, False, p["author_id"], 0, p["creation_date"],
             p["content"], p["length"], p["country_id"],
             p["root_post_id"], p["reply_of_id"], ""]
            for vid, p in txn.vertices(VertexLabel.COMMENT)]
        snap["message"] = _sorted(messages)
        snap["message_tag"] = _sorted(
            [src, dst] for src, dst, __ in txn.edges(EdgeLabel.HAS_TAG))
        snap["likes"] = _sorted(
            [src, dst, p["creation_date"], p["is_post"]]
            for src, dst, p in txn.edges(EdgeLabel.LIKES))
        snap["place"] = _sorted(
            [vid, p["name"], p["type"], p["part_of"]]
            for vid, p in txn.vertices(VertexLabel.PLACE))
        snap["organisation"] = _sorted(
            [vid, p["name"], p["type"], p["location_id"]]
            for vid, p in txn.vertices(VertexLabel.ORGANISATION))
        snap["tag"] = _sorted(
            [vid, p["name"], p["class_id"]]
            for vid, p in txn.vertices(VertexLabel.TAG))
        snap["tagclass"] = _sorted(
            [vid, p["name"], p["parent_id"]]
            for vid, p in txn.vertices(VertexLabel.TAG_CLASS))
        return snap


def snapshot_catalog(catalog: Catalog) -> dict[str, list]:
    """Canonical state snapshot of the relational catalog."""
    def rows(table: str) -> list[list]:
        return [list(row) for row in catalog.table(table).rows]

    snap: dict[str, list] = {}
    snap["person"] = _sorted(rows("person"))
    snap["person_email"] = _sorted(rows("person_email"))
    snap["person_language"] = _sorted(rows("person_language"))
    snap["person_interest"] = _sorted(rows("person_tag"))
    snap["study_at"] = _sorted(rows("study_at"))
    snap["work_at"] = _sorted(rows("work_at"))
    snap["knows"] = _sorted(
        list(row) for row in catalog.table("knows").rows
        if row[0] < row[1])
    snap["forum"] = _sorted(rows("forum"))
    snap["forum_tag"] = _sorted(rows("forum_tag"))
    snap["membership"] = _sorted(rows("membership"))
    # MESSAGE columns: (id, creator_id, forum_id, creation_date, content,
    # length, language, country_id, is_post, root_post_id, reply_of_id)
    # → canonical [id, is_post, creator, forum, date, content, length,
    #              country, root, reply_of, language].
    snap["message"] = _sorted(
        [row[0], bool(row[8]), row[1], row[2], row[3], row[4], row[5],
         row[7], row[9], row[10], row[6]]
        for row in catalog.table("message").rows)
    snap["message_tag"] = _sorted(rows("message_tag"))
    snap["likes"] = _sorted(
        [row[0], row[1], row[2], bool(row[3])]
        for row in catalog.table("likes").rows)
    snap["place"] = _sorted(rows("place"))
    snap["organisation"] = _sorted(rows("organisation"))
    snap["tag"] = _sorted(rows("tag"))
    snap["tagclass"] = _sorted(rows("tagclass"))
    return snap


def snapshot_digest(snapshot: dict[str, list]) -> str:
    """Stable content digest of a canonical snapshot."""
    return digest(snapshot)


@dataclass
class SectionDiff:
    """Disagreement within one snapshot section."""

    section: str
    left_count: int
    right_count: int
    #: Example rows present on exactly one side (truncated).
    only_left: list = field(default_factory=list)
    only_right: list = field(default_factory=list)
    #: Rows on one side only, beyond the examples kept.
    truncated: int = 0

    def describe(self, left_name: str = "left",
                 right_name: str = "right") -> str:
        parts = [f"{self.section}: {left_name}={self.left_count} rows, "
                 f"{right_name}={self.right_count} rows"]
        if self.only_left:
            parts.append(f"only in {left_name}: {self.only_left[0]}")
        if self.only_right:
            parts.append(f"only in {right_name}: {self.only_right[0]}")
        more = max(len(self.only_left) - 1, 0) \
            + max(len(self.only_right) - 1, 0) + self.truncated
        if more:
            parts.append(f"(+{more} more differing rows)")
        return "; ".join(parts)


def diff_snapshots(left: dict[str, list], right: dict[str, list],
                   max_rows: int = 3) -> list[SectionDiff]:
    """Per-section row diff of two canonical snapshots."""
    diffs = []
    for section in SECTIONS:
        left_rows = left.get(section, [])
        right_rows = right.get(section, [])
        if left_rows == right_rows:
            continue
        left_set = {canonical_json(row) for row in left_rows}
        right_set = {canonical_json(row) for row in right_rows}
        only_left = sorted(left_set - right_set)
        only_right = sorted(right_set - left_set)
        truncated = max(len(only_left) - max_rows, 0) \
            + max(len(only_right) - max_rows, 0)
        diffs.append(SectionDiff(
            section=section,
            left_count=len(left_rows), right_count=len(right_rows),
            only_left=only_left[:max_rows],
            only_right=only_right[:max_rows],
            truncated=truncated))
    return diffs
