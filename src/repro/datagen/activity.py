"""Person activity generation: forums, posts, comment trees, likes.

Paper §2.4 "person activity generation": *"this involves filling the forums
with posts comments and likes.  This data is mostly tree-structured and is
therefore easily parallelized by the person who owns the forum."*

Accordingly, all activity of a forum is generated from random streams keyed
on the forum owner's serial: owners can be processed in any order and
produce identical output (tested).

Temporal rules enforced here (paper Table 1 and §4.2):

* forums are created after their moderator joined;
* members join after both the forum exists and the friendship that pulled
  them in was created;
* nobody posts/comments/likes in a forum before **T_SAFE** after joining —
  the guaranteed gap DATAGEN provides so the driver's windowed execution
  mode is sound;
* comments strictly follow their parent, likes strictly follow the liked
  message.

Message topics follow author interests (and the forum's tags); message text
is drawn from the topic's vocabulary; timestamps optionally spike around
world events (:mod:`repro.datagen.events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ids import EntityKind, IdAllocator, make_id, serial_of
from ..rng import RandomStream, ZipfSampler
from ..schema.entities import (
    Comment,
    Forum,
    ForumMembership,
    Like,
    Person,
    Post,
)
from ..sim_time import MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MINUTE
from .config import DatagenConfig
from .dictionaries import Dictionaries
from .events import EventCalendar
from .universe import Universe

#: Probability that a wall post is written by the owner (vs a friend).
_OWNER_POST_SHARE = 0.7
#: Probability a post is geo-tagged in a foreign country ("travel").
_TRAVEL_PROBABILITY = 0.08
#: Probability a person keeps a photo album.
_ALBUM_PROBABILITY = 0.3
#: Probability that one non-friend likes a message (Q7's "outside direct
#: connections" flag needs such likes to exist).
_STRANGER_LIKE_PROBABILITY = 0.05
#: Mean delay of a comment after its parent message.
_COMMENT_LAG_MEAN = 2 * MILLIS_PER_DAY
#: Mean delay of a like after the liked message.
_LIKE_LAG_MEAN = 1 * MILLIS_PER_DAY
#: Forum-id slots reserved per owner (wall + groups + album).  Keeping the
#: forum-id function of (owner serial, slot) makes activity generation
#: independent of the order owners are processed in.
_FORUM_SLOTS_PER_OWNER = 32
#: Cap on moderated groups per person (bounds the geometric draw).
_MAX_GROUPS_PER_OWNER = _FORUM_SLOTS_PER_OWNER - 2


@dataclass
class _DraftMessage:
    """A post or comment before global time-ordered id assignment."""

    creation_date: int
    author_id: int
    forum: Forum
    tags: tuple[int, ...]
    content: str
    language: str
    country_id: int
    location_ip: str
    browser_used: str
    image_file: str | None = None
    #: Photo geolocation (photos only).
    latitude: float | None = None
    longitude: float | None = None
    #: None for posts; the parent draft for comments.
    parent: "_DraftMessage | None" = None
    #: The root post draft (self for posts).
    root: "_DraftMessage | None" = None
    #: (person_id, like timestamp) pairs.
    likes: list[tuple[int, int]] = field(default_factory=list)
    #: Assigned during finalization.
    final_id: int = 0

    @property
    def is_post(self) -> bool:
        return self.parent is None


@dataclass
class ActivityResult:
    """Everything the activity stage produces."""

    forums: list[Forum]
    memberships: list[ForumMembership]
    posts: list[Post]
    comments: list[Comment]
    likes: list[Like]


@dataclass
class _Membership:
    """In-flight membership info used for eligibility checks."""

    person: Person
    joined_date: int


class ActivityGenerator:
    """Generates all forums/messages/likes for a set of persons."""

    def __init__(self, config: DatagenConfig, dictionaries: Dictionaries,
                 universe: Universe, calendar: EventCalendar) -> None:
        self.config = config
        self.dictionaries = dictionaries
        self.universe = universe
        self.calendar = calendar

    @staticmethod
    def _forum_id(owner: Person, slot: int) -> int:
        """Deterministic forum id from (owner serial, slot)."""
        return make_id(EntityKind.FORUM,
                       serial_of(owner.id) * _FORUM_SLOTS_PER_OWNER + slot)

    def generate(self, persons: list[Person],
                 adjacency: dict[int, list[tuple[int, int]]],
                 ) -> ActivityResult:
        """Run the activity stage for all persons, owner by owner.

        ``adjacency`` maps a person id to ``(friend id, friendship date)``
        pairs.  Raw activity comes out in owner order;
        :func:`finalize_activity` then assigns the time-ordered ids.
        """
        self._person_by_id = {p.id: p for p in persons}
        forums: list[Forum] = []
        memberships: list[ForumMembership] = []
        drafts: list[_DraftMessage] = []
        for person in persons:
            self._generate_for_owner(person, adjacency.get(person.id, []),
                                     forums, memberships, drafts)
        return finalize_activity(forums, memberships, drafts)

    # ------------------------------------------------------------------
    # per-owner generation
    # ------------------------------------------------------------------

    def _generate_for_owner(self, owner: Person, friends, forums,
                            memberships, drafts) -> None:
        stream = RandomStream.for_key(self.config.seed, "activity",
                                      serial_of(owner.id))
        wall, wall_members = self._make_wall(stream, owner, friends,
                                             memberships)
        forums.append(wall)
        self._fill_forum(stream, wall, wall_members, owner, drafts,
                         wall_mode=True)

        group_count = min(stream.geometric(
            1.0 / (1.0 + self.config.mean_groups_per_person)),
            _MAX_GROUPS_PER_OWNER)
        for group_index in range(group_count):
            group, group_members = self._make_group(
                stream, owner, friends, memberships, slot=2 + group_index)
            if group is None:
                continue
            forums.append(group)
            self._fill_forum(stream, group, group_members, owner, drafts,
                             wall_mode=False)

        if stream.random() < _ALBUM_PROBABILITY:
            album, album_members = self._make_album(
                stream, owner, friends, memberships)
            forums.append(album)
            self._fill_album(stream, album, album_members, owner, drafts)

    def _make_wall(self, stream, owner, friends, memberships):
        creation = owner.creation_date + stream.randint(
            MILLIS_PER_HOUR, MILLIS_PER_DAY)
        creation = self.config.window.clamp(creation)
        wall = Forum(self._forum_id(owner, 0),
                     f"Wall of {owner.first_name} {owner.last_name}",
                     creation, owner.id, owner.interests[:3])
        # The owner joins strictly after creation: the update stream needs
        # every dependent operation's T_DUE to strictly exceed its T_DEP,
        # or the driver's GCT wait would block on itself.
        owner_join = creation + MILLIS_PER_MINUTE
        members = [_Membership(owner, owner_join)]
        memberships.append(ForumMembership(wall.id, owner.id, owner_join))
        for friend_id, friendship_date in friends:
            join = max(creation, friendship_date) + stream.randint(
                MILLIS_PER_HOUR, 3 * MILLIS_PER_DAY)
            if join >= self.config.window.end:
                continue
            friend = self._person_by_id[friend_id]
            members.append(_Membership(friend, join))
            memberships.append(ForumMembership(wall.id, friend_id, join))
        return wall, members

    def _make_group(self, stream, owner, friends, memberships,
                    slot: int):
        """A topical group: members drawn from friends and their friends."""
        if not owner.interests:
            return None, []
        topic = stream.choice(owner.interests)
        topic_name = self.universe.tag_name_by_id[topic]
        creation = owner.creation_date + stream.randint(
            MILLIS_PER_DAY, 120 * MILLIS_PER_DAY)
        if creation >= self.config.window.end:
            return None, []
        group = Forum(self._forum_id(owner, slot),
                      f"Group for {topic_name}",
                      creation, owner.id, (topic,))
        owner_join = creation + MILLIS_PER_MINUTE
        members = [_Membership(owner, owner_join)]
        memberships.append(ForumMembership(group.id, owner.id, owner_join))
        pool = [self._person_by_id[friend_id] for friend_id, __ in friends]
        if pool:
            size = min(len(pool), 1 + stream.geometric(0.15))
            for member in stream.sample(pool, size):
                join = max(creation, member.creation_date) + stream.randint(
                    MILLIS_PER_HOUR, 30 * MILLIS_PER_DAY)
                if join >= self.config.window.end:
                    continue
                members.append(_Membership(member, join))
                memberships.append(
                    ForumMembership(group.id, member.id, join))
        return group, members

    def _make_album(self, stream, owner, friends, memberships):
        creation = owner.creation_date + stream.randint(
            MILLIS_PER_DAY, 200 * MILLIS_PER_DAY)
        creation = self.config.window.clamp(creation)
        album = Forum(self._forum_id(owner, 1),
                      f"Album of {owner.first_name} {owner.last_name}",
                      creation, owner.id, ())
        owner_join = creation + MILLIS_PER_MINUTE
        members = [_Membership(owner, owner_join)]
        memberships.append(ForumMembership(album.id, owner.id, owner_join))
        for friend_id, friendship_date in friends:
            join = max(creation, friendship_date) + MILLIS_PER_HOUR
            if join >= self.config.window.end:
                continue
            members.append(_Membership(self._person_by_id[friend_id], join))
            memberships.append(ForumMembership(album.id, friend_id, join))
        return album, members

    # ------------------------------------------------------------------
    # posts, comment trees, likes
    # ------------------------------------------------------------------

    def _fill_forum(self, stream, forum, members, owner, drafts,
                    wall_mode: bool) -> None:
        friend_count = max(len(members) - 1, 0)
        mean_posts = self.config.posts_per_friendship * max(friend_count, 1)
        post_count = stream.geometric(1.0 / (1.0 + mean_posts))
        for _ in range(post_count):
            draft = self._make_post(stream, forum, members, owner,
                                    wall_mode)
            if draft is None:
                continue
            drafts.append(draft)
            self._grow_comment_tree(stream, draft, members, drafts)
            self._add_likes(stream, draft, members)

    def _pick_author(self, stream, members, owner, wall_mode: bool,
                     when: int):
        """An author eligible (join + T_SAFE) at ``when``; wall posts are
        owner-authored ~70% of the time."""
        eligible = [m for m in members
                    if m.joined_date + self.config.t_safe_millis <= when]
        if not eligible:
            return None
        if wall_mode and stream.random() < _OWNER_POST_SHARE:
            for member in eligible:
                if member.person.id == owner.id:
                    return member
        return stream.choice(eligible)

    def _make_post(self, stream, forum, members, owner,
                   wall_mode: bool) -> _DraftMessage | None:
        # Post times are uniform over the forum lifetime (then an
        # eligible author is chosen), keeping overall post density
        # roughly proportional to network size over time — per-author
        # uniform draws would pile posts up at the window end.
        earliest = forum.creation_date + self.config.t_safe_millis
        end = self.config.window.end
        if earliest >= end:
            return None
        creation = earliest + stream.randint(0, end - earliest - 1)
        author = self._pick_author(stream, members, owner, wall_mode,
                                   creation)
        if author is None:
            return None
        person = author.person
        event = self.calendar.maybe_event_post(
            stream, person.interests,
            author.joined_date + self.config.t_safe_millis, end) \
            if self.config.event_driven_posts else None
        if event is not None:
            creation, tag_id = event
            tags = (tag_id,)
        else:
            tags = self._pick_post_tags(stream, forum, person)
        content = self._make_text(stream, tags, 20, 120)
        language = stream.choice(person.languages) if person.languages \
            else "en"
        country_id = self._post_country(stream, person)
        return _DraftMessage(
            creation_date=creation,
            author_id=person.id,
            forum=forum,
            tags=tags,
            content=content,
            language=language,
            country_id=country_id,
            location_ip=person.location_ip,
            browser_used=person.browser_used,
        )

    def _pick_post_tags(self, stream, forum, person) -> tuple[int, ...]:
        """Post topics: author interests mixed with the forum's tags."""
        pool = list(dict.fromkeys(person.interests + forum.tag_ids))
        if not pool:
            pool = [self.universe.tags[
                stream.zipf_index(len(self.universe.tags), 1.1)].id]
        count = min(len(pool), 1 + stream.geometric(0.6))
        return tuple(stream.sample(pool, count))

    def _post_country(self, stream, person) -> int:
        if stream.random() < _TRAVEL_PROBABILITY:
            country = stream.choice(self.universe.countries)
            return country.country_place_id
        return person.country_id

    def _make_text(self, stream, tags: tuple[int, ...], min_words: int,
                   max_words: int) -> str:
        """Topic-correlated message text (Table 1: post.topic → post.text)."""
        tag_name = (self.universe.tag_name_by_id[tags[0]] if tags
                    else "general")
        vocabulary = self.dictionaries.words_for_tag(tag_name)
        sampler = self._word_sampler(len(vocabulary))
        count = stream.randint(min_words, max_words)
        words = [vocabulary[sampler.sample(stream)]
                 for _ in range(count)]
        sentence = " ".join(words)
        return f"About {tag_name}: {sentence}."

    #: Word-rank samplers are pure functions of the vocabulary size, so
    #: one table per size is shared by every generator instance.
    _word_samplers: dict[int, ZipfSampler] = {}

    @classmethod
    def _word_sampler(cls, vocabulary_size: int) -> ZipfSampler:
        sampler = cls._word_samplers.get(vocabulary_size)
        if sampler is None:
            sampler = ZipfSampler(vocabulary_size, skew=1.05)
            cls._word_samplers[vocabulary_size] = sampler
        return sampler

    def _grow_comment_tree(self, stream, post: _DraftMessage, members,
                           drafts) -> None:
        mean = self.config.mean_comments_per_post
        count = stream.geometric(1.0 / (1.0 + mean))
        tree: list[_DraftMessage] = [post]
        for _ in range(count):
            # Recency bias: reply to the latest messages more often.
            parent = tree[-1 - min(stream.geometric(0.5), len(tree) - 1)]
            when = parent.creation_date + 1 + int(
                stream.exponential(_COMMENT_LAG_MEAN))
            if when >= self.config.window.end:
                continue
            author = self._eligible_member(stream, members, when)
            if author is None:
                continue
            tags = post.tags[:1] if stream.random() < 0.7 else ()
            comment = _DraftMessage(
                creation_date=when,
                author_id=author.person.id,
                forum=post.forum,
                tags=tags,
                content=self._make_text(stream, post.tags, 5, 40),
                language="",
                country_id=self._post_country(stream, author.person),
                location_ip=author.person.location_ip,
                browser_used=author.person.browser_used,
                parent=parent,
                root=post,
            )
            drafts.append(comment)
            tree.append(comment)
            self._add_likes(stream, comment, members)

    def _eligible_member(self, stream, members, when: int):
        """A member whose join + T_SAFE precedes ``when`` (or None)."""
        eligible = [m for m in members
                    if m.joined_date + self.config.t_safe_millis <= when]
        if not eligible:
            return None
        return stream.choice(eligible)

    def _add_likes(self, stream, draft: _DraftMessage, members) -> None:
        pool = [m for m in members
                if m.person.id != draft.author_id
                and m.joined_date + self.config.t_safe_millis
                <= draft.creation_date]
        if pool:
            mean = self.config.like_probability * len(pool)
            count = min(len(pool), stream.geometric(1.0 / (1.0 + mean)))
            for member in stream.sample(pool, count) if count else []:
                when = draft.creation_date + 1 + int(
                    stream.exponential(_LIKE_LAG_MEAN))
                if when < self.config.window.end:
                    draft.likes.append((member.person.id, when))
        if stream.random() < _STRANGER_LIKE_PROBABILITY:
            self._stranger_like(stream, draft, members)

    def _stranger_like(self, stream, draft: _DraftMessage, members) -> None:
        """A like from outside the forum's membership (Q7 flags these)."""
        num_persons = self.config.num_persons
        member_ids = {m.person.id for m in members}
        for _ in range(4):
            serial = stream.randint(0, num_persons - 1)
            candidate = make_id(EntityKind.PERSON, serial)
            if candidate in member_ids:
                continue
            when = draft.creation_date + 1 + int(
                stream.exponential(_LIKE_LAG_MEAN))
            stranger = self._person_by_id[candidate]
            if stranger.creation_date > draft.creation_date:
                continue  # the stranger had not joined the network yet
            if when < self.config.window.end:
                draft.likes.append((candidate, when))
            return

    def _fill_album(self, stream, album, members, owner, drafts) -> None:
        """Albums hold photos: image posts without text or comment trees."""
        earliest = album.creation_date + self.config.t_safe_millis
        end = self.config.window.end
        if earliest >= end:
            return
        photo_count = 1 + stream.geometric(0.15)
        session_start = earliest + stream.randint(0, end - earliest - 1)
        for index in range(photo_count):
            when = session_start + index * stream.randint(
                1000, MILLIS_PER_HOUR)
            if when >= end:
                break
            # Table 1: post.photoLocation → latitude/longitude match
            # the location — photos geotag near the owner's home city.
            lat, lon = self.universe.city_coords.get(owner.city_id,
                                                     (0.0, 0.0))
            photo = _DraftMessage(
                creation_date=when,
                author_id=owner.id,
                forum=album,
                tags=(),
                content="",
                language="",
                country_id=owner.country_id,
                location_ip=owner.location_ip,
                browser_used=owner.browser_used,
                image_file=f"photo{serial_of(album.id)}_{index}.jpg",
                latitude=round(lat + (stream.random() - 0.5) * 0.5, 4),
                longitude=round(lon + (stream.random() - 0.5) * 0.5, 4),
            )
            drafts.append(photo)
            self._add_likes(stream, photo, members)

def finalize_activity(forums, memberships, drafts) -> ActivityResult:
    """Assign ids in creation-time order and materialize entities.

    The paper (footnote 3) ensures message identifiers increase with
    creation time, which §3 notes gives high locality to date-range
    selections — we reproduce that property here, which is nontrivial
    because generation happens in owner order, not time order.

    The sorts below are stable and generation order only breaks their
    ties, so the entities do not depend on the order owners were
    generated in.
    """
    posts_drafts = sorted((d for d in drafts if d.is_post),
                          key=lambda d: (d.creation_date, d.author_id))
    comment_drafts = sorted((d for d in drafts if not d.is_post),
                            key=lambda d: (d.creation_date, d.author_id))
    post_ids = IdAllocator(EntityKind.POST)
    comment_ids = IdAllocator(EntityKind.COMMENT)
    for draft in posts_drafts:
        draft.final_id = post_ids.allocate()
    for draft in comment_drafts:
        draft.final_id = comment_ids.allocate()

    posts = [Post(
        id=d.final_id, creation_date=d.creation_date,
        author_id=d.author_id, forum_id=d.forum.id, content=d.content,
        length=len(d.content), language=d.language,
        country_id=d.country_id, tag_ids=d.tags,
        image_file=d.image_file, location_ip=d.location_ip,
        browser_used=d.browser_used, latitude=d.latitude,
        longitude=d.longitude,
    ) for d in posts_drafts]
    comments = [Comment(
        id=d.final_id, creation_date=d.creation_date,
        author_id=d.author_id, content=d.content,
        length=len(d.content), country_id=d.country_id,
        root_post_id=d.root.final_id, reply_of_id=d.parent.final_id,
        tag_ids=d.tags, location_ip=d.location_ip,
        browser_used=d.browser_used,
    ) for d in comment_drafts]
    likes = [Like(person_id, d.final_id, when, d.is_post)
             for d in drafts for person_id, when in d.likes]
    likes.sort(key=lambda like: (like.creation_date, like.person_id,
                                 like.message_id))
    memberships = sorted(memberships,
                         key=lambda m: (m.joined_date, m.forum_id,
                                        m.person_id))
    forums = sorted(forums, key=lambda f: f.id)
    return ActivityResult(forums, memberships, posts, comments, likes)
