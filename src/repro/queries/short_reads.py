"""The 7 simple read-only queries (paper §4, Table 7).

"The bulk of the user queries are simpler and perform lookups: (i) Profile
view ... (ii) Post view ..."  The SNB specification refines these views
into seven short reads, S1-S7; profile lookups provide inputs for post
lookups and vice versa, which the workload's random walk
(:mod:`repro.workload.random_walk`) exploits.

All are ``O(log n)`` point lookups plus constant-size neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..store.graph import Direction, Transaction
from ..store.loader import EdgeLabel, VertexLabel
from .helpers import (
    creator_of,
    creators_of_many,
    friends_of,
    is_post,
    message_label,
    message_props,
    message_props_many,
    messages_of,
    persons_many,
    require_many,
)


@dataclass(frozen=True)
class S1Result:
    """S1 — person profile."""

    first_name: str
    last_name: str
    birthday: int
    location_ip: str
    browser_used: str
    city_id: int
    gender: str
    creation_date: int


def s1_person_profile(txn: Transaction, person_id: int) -> S1Result | None:
    """S1: basic profile of a person."""
    props = txn.vertex(VertexLabel.PERSON, person_id)
    if props is None:
        return None
    return S1Result(
        first_name=props["first_name"],
        last_name=props["last_name"],
        birthday=props["birthday"],
        location_ip=props["location_ip"],
        browser_used=props["browser_used"],
        city_id=props["city_id"],
        gender=props["gender"],
        creation_date=props["creation_date"],
    )


@dataclass(frozen=True)
class S2Result:
    """S2 — one recent message with its discussion root."""

    message_id: int
    content: str
    creation_date: int
    root_post_id: int
    root_author_id: int
    root_author_first_name: str
    root_author_last_name: str


def s2_recent_messages(txn: Transaction, person_id: int,
                       limit: int = 10) -> list[S2Result]:
    """S2: the person's 10 most recent messages with root-post info."""
    message_ids = messages_of(txn, person_id)
    messages = message_props_many(txn, message_ids)
    candidates = sorted(
        (-messages[message_id]["creation_date"], message_id)
        for message_id in message_ids if message_id in messages)[:limit]
    root_ids = {message_id: message_id if is_post(message_id)
                else messages[message_id]["root_post_id"]
                for __, message_id in candidates}
    root_authors = creators_of_many(txn, set(root_ids.values()))
    authors = persons_many(txn, set(root_authors.values()))
    results = []
    for neg_date, message_id in candidates:
        props = messages[message_id]
        root_id = root_ids[message_id]
        root_author = root_authors[root_id]
        author = authors[root_author]
        results.append(S2Result(
            message_id=message_id,
            content=props["content"] or (props.get("image_file") or ""),
            creation_date=-neg_date,
            root_post_id=root_id,
            root_author_id=root_author,
            root_author_first_name=author["first_name"],
            root_author_last_name=author["last_name"],
        ))
    return results


@dataclass(frozen=True)
class S3Result:
    """S3 — one friend with the friendship date."""

    person_id: int
    first_name: str
    last_name: str
    friendship_date: int


def s3_friends(txn: Transaction, person_id: int) -> list[S3Result]:
    """S3: all friends, newest friendships first."""
    friendships = list(txn.neighbors(EdgeLabel.KNOWS, person_id))
    persons = persons_many(txn, [friend_id for friend_id, __ in friendships])
    rows = [S3Result(friend_id, persons[friend_id]["first_name"],
                     persons[friend_id]["last_name"], props["creation_date"])
            for friend_id, props in friendships]
    rows.sort(key=lambda r: (-r.friendship_date, r.person_id))
    return rows


@dataclass(frozen=True)
class S4Result:
    """S4 — message content."""

    creation_date: int
    content: str


def s4_message_content(txn: Transaction, message_id: int) -> S4Result | None:
    """S4: creation date and content of a message."""
    props = message_props(txn, message_id)
    if props is None:
        return None
    return S4Result(props["creation_date"],
                    props["content"] or (props.get("image_file") or ""))


@dataclass(frozen=True)
class S5Result:
    """S5 — message creator."""

    person_id: int
    first_name: str
    last_name: str


def s5_message_creator(txn: Transaction, message_id: int) -> S5Result | None:
    """S5: the author of a message."""
    if txn.vertex(message_label(message_id), message_id) is None:
        return None
    author_id = creator_of(txn, message_id)
    person = txn.require_vertex(VertexLabel.PERSON, author_id)
    return S5Result(author_id, person["first_name"], person["last_name"])


@dataclass(frozen=True)
class S6Result:
    """S6 — forum of a message."""

    forum_id: int
    forum_title: str
    moderator_id: int
    moderator_first_name: str
    moderator_last_name: str


def s6_message_forum(txn: Transaction, message_id: int) -> S6Result | None:
    """S6: the forum containing the message's discussion."""
    props = message_props(txn, message_id)
    if props is None:
        return None
    if is_post(message_id):
        forum_id = props["forum_id"]
    else:
        root = txn.vertex(VertexLabel.POST, props["root_post_id"])
        if root is None:
            return None
        forum_id = root["forum_id"]
    forum = txn.require_vertex(VertexLabel.FORUM, forum_id)
    moderator = txn.require_vertex(VertexLabel.PERSON,
                                   forum["moderator_id"])
    return S6Result(forum_id, forum["title"], forum["moderator_id"],
                    moderator["first_name"], moderator["last_name"])


@dataclass(frozen=True)
class S7Result:
    """S7 — one reply with author and friendship flag."""

    comment_id: int
    content: str
    creation_date: int
    author_id: int
    author_first_name: str
    author_last_name: str
    #: Whether the reply author knows the original message's author.
    knows_original_author: bool


def s7_message_replies(txn: Transaction, message_id: int) -> list[S7Result]:
    """S7: direct replies to a message, newest first."""
    if txn.vertex(message_label(message_id), message_id) is None:
        return []
    comment_ids = [comment_id for comment_id, __ in txn.neighbors(
        EdgeLabel.REPLY_OF, message_id, Direction.IN)]
    if not comment_ids:
        return []
    author_friends = friends_of(txn, creator_of(txn, message_id))
    comments = require_many(txn, VertexLabel.COMMENT, comment_ids)
    authors = persons_many(txn, {comment["author_id"]
                                 for comment in comments.values()})
    rows = []
    for comment_id in comment_ids:
        comment = comments[comment_id]
        author = authors[comment["author_id"]]
        rows.append(S7Result(
            comment_id=comment_id,
            content=comment["content"],
            creation_date=comment["creation_date"],
            author_id=comment["author_id"],
            author_first_name=author["first_name"],
            author_last_name=author["last_name"],
            knows_original_author=comment["author_id"] in author_friends,
        ))
    rows.sort(key=lambda r: (-r.creation_date, r.author_id))
    return rows
