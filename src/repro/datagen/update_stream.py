"""Splitting DATAGEN output into bulk-load data and the update stream.

Paper §4: "DATAGEN can divide its output in two parts, splitting all data
at one particular timestamp: all data before this point is output in the
requested bulk-load format, the data with a timestamp after the split is
formatted as input files for the query driver."  The default split is 32 of
36 simulated months (:func:`repro.sim_time.bulk_load_cut`).

Each update operation carries the metadata the driver's dependency tracking
needs (paper §4.2):

* ``due_time`` — T_DUE, the simulation time the operation is scheduled at;
* ``depends_on_time`` — T_DEP, the due time of the latest operation this
  one depends on (0 if none);
* whether the operation is in the **Dependencies** set (others may wait on
  it), the **Dependents** set (it waits on others), or both;
* ``partition_key`` — the forum id for intra-forum (tree-structured)
  operations, enabling the driver's sequential per-forum execution mode;
  ``None`` for person-graph operations, which are non-partitionable and
  must use global (GCT) tracking.

The eight update types match the SNB Interactive specification (and the
eight columns of the paper's Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from ..errors import DatagenError
from ..schema.dataset import SocialNetwork
from ..schema.entities import ForumMembership, Knows, Like
from ..sim_time import bulk_load_cut


class UpdateKind(Enum):
    """The 8 transactional update types of SNB Interactive."""

    ADD_PERSON = 1
    ADD_LIKE_POST = 2
    ADD_LIKE_COMMENT = 3
    ADD_FORUM = 4
    ADD_FORUM_MEMBERSHIP = 5
    ADD_POST = 6
    ADD_COMMENT = 7
    ADD_FRIENDSHIP = 8


#: Update kinds whose completion other operations may depend on.
DEPENDENCY_KINDS = frozenset({
    UpdateKind.ADD_PERSON,
    UpdateKind.ADD_FORUM,
    UpdateKind.ADD_POST,
    UpdateKind.ADD_COMMENT,
    UpdateKind.ADD_FRIENDSHIP,
})

#: Update kinds that wait on at least one earlier operation.
DEPENDENT_KINDS = frozenset({
    UpdateKind.ADD_LIKE_POST,
    UpdateKind.ADD_LIKE_COMMENT,
    UpdateKind.ADD_FORUM,
    UpdateKind.ADD_FORUM_MEMBERSHIP,
    UpdateKind.ADD_POST,
    UpdateKind.ADD_COMMENT,
    UpdateKind.ADD_FRIENDSHIP,
})


@dataclass(frozen=True)
class UpdateOperation:
    """One DML statement of the update stream."""

    kind: UpdateKind
    due_time: int
    depends_on_time: int
    payload: object
    #: Forum id for tree-structured ops (sequential-mode partitioning);
    #: ``None`` for person-graph ops.
    partition_key: int | None = None
    #: The person-graph component of ``depends_on_time`` (creation of the
    #: involved persons/friendships).  The paper's sequential execution
    #: mode captures intra-forum dependencies by stream order and only
    #: synchronizes on GCT for these person-graph dependencies ("For
    #: dependencies between users and their generated content TGC tracking
    #: is used, as it is impossible to partition the social graph").
    global_depends_on_time: int = 0

    @property
    def natural_key(self) -> tuple:
        """What this update inserts, as a hashable key: ``"vertex"``
        plus the new vertex's id (ids are unique across entity kinds,
        :mod:`repro.ids`), or the edge label plus its endpoint ids.
        Every SNB update inserts exactly one vertex or one edge, so the
        key is unique in a stream, and a SUT that has applied it treats
        the same key again as a replay.  It is the only update key: the
        shard WALs, the coordinator log, the spent markers and the shard
        fault draws use it too."""
        payload = self.payload
        kind = type(payload)
        if kind is Like:  # half of a stream's updates
            return ("likes", payload.person_id, payload.message_id)
        if kind is ForumMembership:
            return ("hasMember", payload.forum_id, payload.person_id)
        if kind is Knows:
            return ("knows", payload.person1_id, payload.person2_id)
        return ("vertex", payload.id)

    @property
    def is_dependency(self) -> bool:
        return self.kind in DEPENDENCY_KINDS

    @property
    def is_dependent(self) -> bool:
        return self.kind in DEPENDENT_KINDS

    @property
    def op_class(self) -> str:
        return self.kind.name


@dataclass
class SplitDataset:
    """Result of splitting a network at the bulk-load cut."""

    bulk: SocialNetwork
    updates: list[UpdateOperation]
    cut: int

    def update_counts(self) -> dict[UpdateKind, int]:
        counts: dict[UpdateKind, int] = {kind: 0 for kind in UpdateKind}
        for op in self.updates:
            counts[op.kind] += 1
        return counts


def split_network(network: SocialNetwork, cut: int | None = None,
                  ) -> SplitDataset:
    """Split a generated network into bulk-load part and update stream.

    Timestamp filtering is consistent by construction: every entity's
    creation date is at or after the creation dates of everything it
    references, so entities before the cut never reference entities after
    it.
    """
    if cut is None:
        cut = bulk_load_cut()
    bulk = SocialNetwork(
        tags=list(network.tags),
        tag_classes=list(network.tag_classes),
        places=list(network.places),
        organisations=list(network.organisations),
    )
    updates: list[UpdateOperation] = []
    persons_by_id = network.person_by_id()
    forums_by_id = network.forum_by_id()
    posts_by_id = network.post_by_id()
    comments_by_id = network.comment_by_id()
    #: person id → (forum id → join date), for post/comment T_DEP.
    join_dates: dict[tuple[int, int], int] = {}
    for membership in network.memberships:
        join_dates[(membership.person_id, membership.forum_id)] = \
            membership.joined_date

    for person in network.persons:
        if person.creation_date < cut:
            bulk.persons.append(person)
        else:
            updates.append(UpdateOperation(
                UpdateKind.ADD_PERSON, person.creation_date, 0, person))

    for edge in network.knows:
        if edge.creation_date < cut:
            bulk.knows.append(edge)
        else:
            dep = max(persons_by_id[edge.person1_id].creation_date,
                      persons_by_id[edge.person2_id].creation_date)
            updates.append(UpdateOperation(
                UpdateKind.ADD_FRIENDSHIP, edge.creation_date, dep, edge,
                global_depends_on_time=dep))

    for forum in network.forums:
        if forum.creation_date < cut:
            bulk.forums.append(forum)
        else:
            dep = persons_by_id[forum.moderator_id].creation_date
            updates.append(UpdateOperation(
                UpdateKind.ADD_FORUM, forum.creation_date, dep, forum,
                partition_key=forum.id, global_depends_on_time=dep))

    for membership in network.memberships:
        if membership.joined_date < cut:
            bulk.memberships.append(membership)
        else:
            dep = max(forums_by_id[membership.forum_id].creation_date,
                      persons_by_id[membership.person_id].creation_date)
            updates.append(UpdateOperation(
                UpdateKind.ADD_FORUM_MEMBERSHIP, membership.joined_date,
                dep, membership, partition_key=membership.forum_id,
                global_depends_on_time=persons_by_id[
                    membership.person_id].creation_date))

    for post in network.posts:
        if post.creation_date < cut:
            bulk.posts.append(post)
        else:
            join = join_dates.get((post.author_id, post.forum_id), 0)
            dep = max(forums_by_id[post.forum_id].creation_date, join)
            updates.append(UpdateOperation(
                UpdateKind.ADD_POST, post.creation_date, dep, post,
                partition_key=post.forum_id,
                global_depends_on_time=persons_by_id[
                    post.author_id].creation_date))

    for comment in network.comments:
        if comment.creation_date < cut:
            bulk.comments.append(comment)
        else:
            parent = posts_by_id.get(comment.reply_of_id) \
                or comments_by_id.get(comment.reply_of_id)
            if parent is None:
                raise DatagenError(
                    f"comment {comment.id} parent {comment.reply_of_id} "
                    "missing during split")
            root = posts_by_id[comment.root_post_id]
            updates.append(UpdateOperation(
                UpdateKind.ADD_COMMENT, comment.creation_date,
                parent.creation_date, comment,
                partition_key=root.forum_id,
                global_depends_on_time=persons_by_id[
                    comment.author_id].creation_date))

    for like in network.likes:
        if like.creation_date < cut:
            bulk.likes.append(like)
        else:
            if like.is_post:
                message = posts_by_id[like.message_id]
                forum_id = message.forum_id
                kind = UpdateKind.ADD_LIKE_POST
            else:
                message = comments_by_id[like.message_id]
                forum_id = posts_by_id[message.root_post_id].forum_id
                kind = UpdateKind.ADD_LIKE_COMMENT
            dep = max(message.creation_date,
                      persons_by_id[like.person_id].creation_date)
            updates.append(UpdateOperation(
                kind, like.creation_date, dep, like,
                partition_key=forum_id,
                global_depends_on_time=persons_by_id[
                    like.person_id].creation_date))

    updates.sort(key=lambda op: (op.due_time, op.kind.value))
    return SplitDataset(bulk=bulk, updates=updates, cut=cut)


def partition_updates(updates: Iterable[UpdateOperation],
                      num_partitions: int) -> list[list[UpdateOperation]]:
    """Assign updates to parallel streams (paper §4.2).

    Tree-structured operations of one forum always land in the same stream
    (hash by forum id) so the sequential mode can keep intra-forum causal
    order with no cross-stream synchronization; person-graph operations are
    spread round-robin and rely on GCT tracking.
    """
    if num_partitions < 1:
        raise DatagenError("need at least one partition")
    partitions: list[list[UpdateOperation]] = \
        [[] for __ in range(num_partitions)]
    round_robin = 0
    for op in updates:
        if op.partition_key is not None:
            index = op.partition_key % num_partitions
        else:
            index = round_robin % num_partitions
            round_robin += 1
        partitions[index].append(op)
    return partitions
