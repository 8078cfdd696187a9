"""Placement rules of the sharded store.

Everything the router and the workers must agree on lives here, and all
of it is derivable from entity ids alone (the id spaces of
:mod:`repro.ids` encode the entity kind in the top byte):

* **vertex ownership** — persons and content (forums, posts, comments)
  hash to ``serial % num_shards``, the same person-hash discipline the
  driver's partitioning and the parallel DATAGEN use.  Static entities
  (tags, tag classes, places, organisations) are a small, read-only
  dimension table; they live on shard 0 only, not replicated.
* **edge-half placement** — each directed adjacency record is *anchored*
  at one endpoint (OUT at ``src``, IN at ``dst``) and lives on the shard
  owning its anchor.  When the anchor is static the half follows the
  other, non-static endpoint, so ``neighbors(label, person, OUT)`` for
  e.g. *has_interest* stays a single-shard call; a static↔static edge
  (``is_part_of``, ``has_type``, organisation ``is_located_in``) lives
  on shard 0 with its vertices.

The digest invariant follows from these rules: every vertex row and
every OUT adjacency record exists on exactly one shard, so the union of
per-shard canonical snapshots is a partition of the single-store
snapshot — merging the section row-sets and re-sorting reproduces it
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..ids import EntityKind, serial_of
from ..schema.dataset import SocialNetwork
from ..store.loader import VertexLabel, create_snb_indexes, load_network

_SERIAL_BITS = 56

#: Kinds of the small read-only dimension tables pinned to shard 0.
STATIC_KINDS = frozenset({
    int(EntityKind.TAG), int(EntityKind.TAG_CLASS),
    int(EntityKind.PLACE), int(EntityKind.ORGANISATION),
})

#: The vertex labels of those kinds (``VertexLabel`` names its constants
#: after ``EntityKind``'s members): a whole-label scan of one is served
#: by shard 0 alone.
STATIC_LABELS = frozenset(
    getattr(VertexLabel, EntityKind(kind).name) for kind in STATIC_KINDS)


def is_static(vid: int) -> bool:
    """Does the id belong to a dimension kind pinned to shard 0?"""
    return (vid >> _SERIAL_BITS) in STATIC_KINDS


def owner_of(vid: int, num_shards: int) -> int:
    """The shard owning a vertex (serving its row and anchored halves)."""
    if is_static(vid):
        return 0
    return serial_of(vid) % num_shards


def anchor_shard(anchor: int, other: int, num_shards: int) -> int:
    """The shard storing the adjacency half anchored at ``anchor``.

    Static anchors delegate to the other endpoint so person/message
    adjacency over dimension edges stays co-located with the entity.
    """
    if not is_static(anchor):
        return serial_of(anchor) % num_shards
    if not is_static(other):
        return serial_of(other) % num_shards
    return 0


# ---------------------------------------------------------------------------
# write-set partitioning (the router side of an update)
# ---------------------------------------------------------------------------

@dataclass
class ShardWrites:
    """The slice of one update's write-set bound for one shard."""

    #: ``(label, vid, props)`` vertex inserts owned by the shard.
    vertices: list[tuple[str, int, dict]] = field(default_factory=list)
    #: ``(label, direction value, anchor, other, props)`` halves.
    halves: list[tuple[str, str, int, int, dict | None]] = \
        field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.vertices or self.halves)


def partition_writes(new_vertices: dict[tuple[str, int], dict],
                     new_edges: list[tuple[str, int, int, dict | None]],
                     num_shards: int) -> dict[int, ShardWrites]:
    """Split a recorded write-set by the placement rules.

    Input shapes match :class:`repro.store.graph.Transaction`'s write
    set; output maps shard index → its (possibly empty) slice.  Only
    shards with work appear in the result.
    """
    per_shard: dict[int, ShardWrites] = {}

    def writes(shard: int) -> ShardWrites:
        found = per_shard.get(shard)
        if found is None:
            found = per_shard[shard] = ShardWrites()
        return found

    for (label, vid), props in new_vertices.items():
        writes(owner_of(vid, num_shards)).vertices.append(
            (label, vid, props))
    for label, src, dst, props in new_edges:
        writes(anchor_shard(src, dst, num_shards)).halves.append(
            (label, "out", src, dst, props))
        writes(anchor_shard(dst, src, num_shards)).halves.append(
            (label, "in", dst, src, props))
    return per_shard


# ---------------------------------------------------------------------------
# bulk-load partitioning (ships to workers at spawn, so keep it picklable)
# ---------------------------------------------------------------------------

@dataclass
class ShardLoad:
    """One shard's bulk load: loader calls replayed in original order.

    ``calls`` entries are ``("vertices", label, rows)`` with rows of
    ``(vid, props)``, or ``("edge_halves", label, halves)`` with halves
    of ``(direction value, anchor, other, props)``.  Replaying the full
    call sequence (empty slices included) keeps per-shard insertion
    order — and therefore adjacency order and ordered-index tie
    order — identical to the single store's, restricted to this shard.
    """

    shard_index: int
    num_shards: int
    calls: list[tuple] = field(default_factory=list)


class _RecordingStore:
    """Duck-typed stand-in for :class:`GraphStore` under ``load_network``.

    Captures the loader's bulk calls verbatim so partitioning reuses
    the real entity→row converters instead of duplicating them; index
    registration is replayed worker-side via ``create_snb_indexes``.
    """

    def __init__(self) -> None:
        self.vertex_calls: list[tuple[str, list]] = []
        self.edge_calls: list[tuple[str, list]] = []
        self.order: list[tuple[str, int]] = []

    def create_hash_index(self, label: str, prop: str) -> None:
        pass

    def create_ordered_index(self, label: str, prop: str) -> None:
        pass

    def bulk_insert_vertices(self, label: str, rows: list) -> None:
        self.order.append(("vertices", len(self.vertex_calls)))
        self.vertex_calls.append((label, rows))

    def bulk_insert_edges(self, label: str, rows: list) -> None:
        self.order.append(("edges", len(self.edge_calls)))
        self.edge_calls.append((label, rows))


def partition_bulk(network: SocialNetwork,
                   num_shards: int) -> list[ShardLoad]:
    """Route a generated network's bulk load across ``num_shards``."""
    recorder = _RecordingStore()
    load_network(network, store=recorder)  # type: ignore[arg-type]

    loads = [ShardLoad(shard, num_shards) for shard in range(num_shards)]
    for kind, position in recorder.order:
        if kind == "vertices":
            label, rows = recorder.vertex_calls[position]
            grouped: list[list] = [[] for __ in range(num_shards)]
            for vid, props in rows:
                grouped[owner_of(vid, num_shards)].append((vid, props))
            for shard, load in enumerate(loads):
                load.calls.append(("vertices", label, grouped[shard]))
        else:
            label, rows = recorder.edge_calls[position]
            grouped = [[] for __ in range(num_shards)]
            for src, dst, props in rows:
                grouped[anchor_shard(src, dst, num_shards)].append(
                    ("out", src, dst, props))
                grouped[anchor_shard(dst, src, num_shards)].append(
                    ("in", dst, src, props))
            for shard, load in enumerate(loads):
                load.calls.append(("edge_halves", label, grouped[shard]))
    return loads


def load_shard(load: ShardLoad):
    """Build one shard's local :class:`GraphStore` from its slice."""
    from ..store.graph import GraphStore

    store = GraphStore()
    create_snb_indexes(store)
    for call in load.calls:
        if call[0] == "vertices":
            store.bulk_insert_vertices(call[1], call[2])
        else:
            store.bulk_insert_edge_halves(call[1], call[2])
    return store
