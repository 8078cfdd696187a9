"""The SNB relational schema and catalog (the "Virtuoso" table layout).

Messages (posts and comments) share one ``message`` table, as a columnar
RDBMS would store them; graph relations become foreign-key tables with
hash indexes ("indices are created on foreign key columns where needed,
otherwise all is in primary key order").  The ordered index on
``message.creation_date`` reflects the paper's observation that systems
can assign message ids increasing in time to give date selections high
locality.
"""

from __future__ import annotations

import threading

from ..errors import EngineError
from ..schema.dataset import SocialNetwork
from ..schema.entities import Comment, Forum, ForumMembership, Knows, \
    Like, Person, Post
from .rows import Schema, Table

PERSON = Schema(("id", "first_name", "last_name", "gender", "birthday",
                 "creation_date", "city_id", "country_id",
                 "browser_used", "location_ip"))
KNOWS = Schema(("person1_id", "person2_id", "creation_date"))
# The multi-valued person attributes, normalized the way a relational
# schema stores them; ``seq`` preserves the original value order so the
# denormalized tuples rebuild exactly (Q1's emails/languages columns).
PERSON_EMAIL = Schema(("person_id", "seq", "email"))
PERSON_LANGUAGE = Schema(("person_id", "seq", "language"))
PERSON_TAG = Schema(("person_id", "tag_id"))
STUDY_AT = Schema(("person_id", "organisation_id", "class_year"))
WORK_AT = Schema(("person_id", "organisation_id", "work_from"))
ORGANISATION = Schema(("id", "name", "type", "location_id"))
PLACE = Schema(("id", "name", "type", "part_of"))
TAG = Schema(("id", "name", "class_id"))
TAG_CLASS = Schema(("id", "name", "parent_id"))
FORUM = Schema(("id", "title", "creation_date", "moderator_id"))
FORUM_TAG = Schema(("forum_id", "tag_id"))
MEMBERSHIP = Schema(("forum_id", "person_id", "joined_date"))
MESSAGE = Schema(("id", "creator_id", "forum_id", "creation_date",
                  "content", "length", "language", "country_id",
                  "is_post", "root_post_id", "reply_of_id"))
MESSAGE_TAG = Schema(("message_id", "tag_id"))
LIKES = Schema(("person_id", "message_id", "creation_date", "is_post"))


class Catalog:
    """All tables of the relational SUT plus a coarse write lock.

    The write lock serializes update transactions — trivially
    serializable, satisfying the benchmark's ACID requirement for this
    insert-only workload (reads scan append-only structures).
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.write_lock = threading.Lock()
        self._create_tables()

    def _create_tables(self) -> None:
        def add(name: str, schema: Schema, pk: str | None = None) -> Table:
            table = Table(name, schema, primary_key=pk)
            self.tables[name] = table
            return table

        add("person", PERSON, pk="id").create_hash_index("first_name")
        add("person_email", PERSON_EMAIL).create_hash_index("person_id")
        add("person_language",
            PERSON_LANGUAGE).create_hash_index("person_id")
        knows = add("knows", KNOWS)
        knows.create_hash_index("person1_id")
        knows.create_adjacency("person1_id", "person2_id")
        add("person_tag", PERSON_TAG).create_hash_index("person_id")
        study = add("study_at", STUDY_AT)
        study.create_hash_index("person_id")
        work = add("work_at", WORK_AT)
        work.create_hash_index("person_id")
        work.create_hash_index("organisation_id")
        add("organisation", ORGANISATION, pk="id")
        add("place", PLACE, pk="id").create_hash_index("name")
        add("tag", TAG, pk="id").create_hash_index("name")
        add("tagclass", TAG_CLASS, pk="id")
        add("forum", FORUM, pk="id")
        add("forum_tag", FORUM_TAG).create_hash_index("forum_id")
        membership = add("membership", MEMBERSHIP)
        membership.create_hash_index("forum_id")
        membership.create_hash_index("person_id")
        message = add("message", MESSAGE, pk="id")
        message.create_hash_index("creator_id")
        message.create_hash_index("forum_id")
        message.create_hash_index("reply_of_id")
        message.create_hash_index("root_post_id")
        message.create_ordered_index("creation_date")
        message_tag = add("message_tag", MESSAGE_TAG)
        message_tag.create_hash_index("message_id")
        message_tag.create_hash_index("tag_id")
        likes = add("likes", LIKES)
        likes.create_hash_index("person_id")
        likes.create_hash_index("message_id")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError as exc:
            raise EngineError(f"no table {name!r}") from exc

    # -- row converters (shared by bulk load and updates) -----------------

    @staticmethod
    def person_row(person: Person) -> tuple:
        return (person.id, person.first_name, person.last_name,
                person.gender, person.birthday, person.creation_date,
                person.city_id, person.country_id, person.browser_used,
                person.location_ip)

    @staticmethod
    def post_row(post: Post) -> tuple:
        # Photos carry their image file as the displayable content, the
        # same fallback the graph-store queries apply at read time.
        content = post.content or (post.image_file or "")
        return (post.id, post.author_id, post.forum_id,
                post.creation_date, content, post.length,
                post.language, post.country_id, True, post.id, 0)

    @staticmethod
    def comment_row(comment: Comment) -> tuple:
        return (comment.id, comment.author_id, 0, comment.creation_date,
                comment.content, comment.length, "", comment.country_id,
                False, comment.root_post_id, comment.reply_of_id)

    # -- transactional inserts (Table 9's engine row) ----------------------

    def insert_person(self, person: Person) -> None:
        with self.write_lock:
            self.table("person").insert(self.person_row(person))
            for seq, email in enumerate(person.emails):
                self.table("person_email").insert(
                    (person.id, seq, email))
            for seq, language in enumerate(person.languages):
                self.table("person_language").insert(
                    (person.id, seq, language))
            for tag_id in person.interests:
                self.table("person_tag").insert((person.id, tag_id))
            for study in person.study_at:
                self.table("study_at").insert(
                    (person.id, study.organisation_id, study.class_year))
            for work in person.work_at:
                self.table("work_at").insert(
                    (person.id, work.organisation_id, work.work_from))

    def insert_friendship(self, edge: Knows) -> None:
        with self.write_lock:
            table = self.table("knows")
            table.insert((edge.person1_id, edge.person2_id,
                          edge.creation_date))
            table.insert((edge.person2_id, edge.person1_id,
                          edge.creation_date))

    def insert_forum(self, forum: Forum) -> None:
        with self.write_lock:
            self.table("forum").insert((forum.id, forum.title,
                                        forum.creation_date,
                                        forum.moderator_id))
            for tag_id in forum.tag_ids:
                self.table("forum_tag").insert((forum.id, tag_id))

    def insert_membership(self, membership: ForumMembership) -> None:
        with self.write_lock:
            self.table("membership").insert(
                (membership.forum_id, membership.person_id,
                 membership.joined_date))

    def insert_post(self, post: Post) -> None:
        with self.write_lock:
            self.table("message").insert(self.post_row(post))
            for tag_id in post.tag_ids:
                self.table("message_tag").insert((post.id, tag_id))

    def insert_comment(self, comment: Comment) -> None:
        with self.write_lock:
            self.table("message").insert(self.comment_row(comment))
            for tag_id in comment.tag_ids:
                self.table("message_tag").insert((comment.id, tag_id))

    def insert_like(self, like: Like) -> None:
        with self.write_lock:
            self.table("likes").insert(
                (like.person_id, like.message_id, like.creation_date,
                 like.is_post))


def load_catalog(network: SocialNetwork) -> Catalog:
    """Bulk-load a generated network into a fresh catalog."""
    catalog = Catalog()
    catalog.table("person").bulk_load(
        Catalog.person_row(p) for p in network.persons)
    catalog.table("person_email").bulk_load(
        (p.id, seq, email) for p in network.persons
        for seq, email in enumerate(p.emails))
    catalog.table("person_language").bulk_load(
        (p.id, seq, language) for p in network.persons
        for seq, language in enumerate(p.languages))
    catalog.table("person_tag").bulk_load(
        (p.id, tag_id) for p in network.persons for tag_id in p.interests)
    catalog.table("study_at").bulk_load(
        (p.id, s.organisation_id, s.class_year)
        for p in network.persons for s in p.study_at)
    catalog.table("work_at").bulk_load(
        (p.id, w.organisation_id, w.work_from)
        for p in network.persons for w in p.work_at)
    catalog.table("knows").bulk_load(
        row for edge in network.knows
        for row in ((edge.person1_id, edge.person2_id,
                     edge.creation_date),
                    (edge.person2_id, edge.person1_id,
                     edge.creation_date)))
    catalog.table("organisation").bulk_load(
        (o.id, o.name, o.type.value, o.location_id)
        for o in network.organisations)
    catalog.table("place").bulk_load(
        (p.id, p.name, p.type.value, p.part_of) for p in network.places)
    catalog.table("tag").bulk_load(
        (t.id, t.name, t.class_id) for t in network.tags)
    catalog.table("tagclass").bulk_load(
        (tc.id, tc.name, tc.parent_id) for tc in network.tag_classes)
    catalog.table("forum").bulk_load(
        (f.id, f.title, f.creation_date, f.moderator_id)
        for f in network.forums)
    catalog.table("forum_tag").bulk_load(
        (f.id, tag_id) for f in network.forums for tag_id in f.tag_ids)
    catalog.table("membership").bulk_load(
        (m.forum_id, m.person_id, m.joined_date)
        for m in network.memberships)
    # Messages must be loaded in creation-date order for the ordered
    # index's bulk path; posts/comments are already time-ordered, so a
    # single merge suffices.
    message_rows = sorted(
        [Catalog.post_row(p) for p in network.posts]
        + [Catalog.comment_row(c) for c in network.comments],
        key=lambda row: row[3])
    catalog.table("message").bulk_load(message_rows)
    catalog.table("message_tag").bulk_load(
        (m.id, tag_id) for m in network.messages()
        for tag_id in m.tag_ids)
    catalog.table("likes").bulk_load(
        (like.person_id, like.message_id, like.creation_date,
         like.is_post) for like in network.likes)
    return catalog
