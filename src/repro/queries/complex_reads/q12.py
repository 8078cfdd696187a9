"""Q12 — Expert Search.

"Find friends of a Person who have replied the most to posts with a tag in
a given TagCategory.  Return top 20 persons, sorted descending by number
of replies."

The tag category matches the tag's class or any descendant class
(the *isSubclassOf* hierarchy).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...store.graph import Transaction
from ...store.loader import VertexLabel
from ..helpers import (
    friends_of,
    is_post,
    messages_of_many,
    persons_many,
    require_many,
    tags_of_many,
)

QUERY_ID = 12
LIMIT = 20


@dataclass(frozen=True)
class Q12Params:
    """Start person and the tag class (category)."""

    person_id: int
    tag_class_id: int


@dataclass(frozen=True)
class Q12Result:
    """An expert friend with reply count and the tags they replied to."""

    person_id: int
    first_name: str
    last_name: str
    reply_count: int
    tag_names: tuple[str, ...]


def _descendant_classes(txn: Transaction, class_id: int) -> set[int]:
    """The class and every (transitive) subclass of it."""
    all_classes = {}
    # The hierarchy is small; materialize parent links once.
    for vid, props in txn.vertices(VertexLabel.TAG_CLASS):
        all_classes[vid] = props.get("parent_id")
    result = {class_id}
    changed = True
    while changed:
        changed = False
        for vid, parent in all_classes.items():
            if parent in result and vid not in result:
                result.add(vid)
                changed = True
    return result


def run(txn: Transaction, params: Q12Params) -> list[Q12Result]:
    """Execute Q12: friends ranked by replies to in-category posts."""
    friends = friends_of(txn, params.person_id)
    if not friends:
        return []
    classes = _descendant_classes(txn, params.tag_class_id)
    created = messages_of_many(txn, friends)
    replies = {friend_id: [message_id for message_id in created[friend_id]
                           if not is_post(message_id)]
               for friend_id in friends}
    comments = require_many(txn, VertexLabel.COMMENT, (
        comment_id for friend_id in friends
        for comment_id in replies[friend_id]))
    # Only direct replies to posts count.
    post_tags = tags_of_many(txn, {
        comment["reply_of_id"] for comment in comments.values()
        if is_post(comment["reply_of_id"])})
    tags = require_many(txn, VertexLabel.TAG, {
        tag_id for tag_ids in post_tags.values() for tag_id in tag_ids})
    ranked = []
    for friend_id in friends:
        reply_count = 0
        tag_ids: set[int] = set()
        for comment_id in replies[friend_id]:
            matching = {tag_id for tag_id in post_tags.get(
                comments[comment_id]["reply_of_id"], ())
                if tags[tag_id]["class_id"] in classes}
            if matching:
                reply_count += 1
                tag_ids |= matching
        if reply_count > 0:
            ranked.append((-reply_count, friend_id, tag_ids))
    ranked.sort(key=lambda row: row[:2])
    ranked = ranked[:LIMIT]
    persons = persons_many(txn, [friend_id for __, friend_id, __ in ranked])
    return [Q12Result(
        friend_id, persons[friend_id]["first_name"],
        persons[friend_id]["last_name"], -neg_count,
        tuple(sorted(tags[tag_id]["name"] for tag_id in tag_ids)),
    ) for neg_count, friend_id, tag_ids in ranked]
