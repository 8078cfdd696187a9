"""SNB-Interactive queries as explicit relational plans (the Virtuoso SUT).

The paper's Virtuoso runs used "SQL with vendor-specific extensions for
graph algorithms" and explicit plans; accordingly every complex read is
a linear join pipeline planned by the cost-based
:class:`~repro.engine.optimizer.Optimizer` (with
:class:`~repro.engine.operators.TransitiveExpand` playing the transitive
SQL extension as the pipeline source for the circle-shaped queries),
followed by a thin column-wise finishing pass (sort/limit/enrichment).

``PIPELINES`` maps every query id 1–14 to its plan builder, so the
Figure 4 bench and the plan-coverage tests cover the full read mix.
Every operation plans afresh: join algorithms follow the estimated
input cardinality of *this* binding, which is the paper's Fig. 4
point.  The Fig. 4 *leg* pipelines (:func:`q5_pipeline`,
:func:`q9_pipeline` — the knows ⨝ knows ⨝ … shapes the paper's
choke-point analysis dissects) are kept verbatim beside the
circle-sourced plans the production queries use.

All functions return the *same result dataclasses* as the graph-store
implementations in :mod:`repro.queries`, so the test suite can assert the
two systems under test agree answer-for-answer.
"""

from __future__ import annotations

from ..datagen.update_stream import UpdateKind
from ..ids import EntityKind, is_kind
from ..queries.complex_reads import (
    q1 as g1,
    q2 as g2,
    q3 as g3,
    q4 as g4,
    q5 as g5,
    q6 as g6,
    q7 as g7,
    q8 as g8,
    q9 as g9,
    q10 as g10,
    q11 as g11,
    q12 as g12,
    q13 as g13,
    q14 as g14,
)
from ..queries import short_reads as gs
from ..sim_time import MILLIS_PER_MINUTE
from .cardinality import CardinalityEstimator
from .catalog import Catalog
from .operators import TransitiveExpand
from .optimizer import (
    ExpandSource,
    JoinSpec,
    JoinStep,
    Optimizer,
    PlannedPipeline,
)
from .predicates import All, Compare, InSet, Where


# ---------------------------------------------------------------------------
# shared relational helpers
# ---------------------------------------------------------------------------

def friend_ids(catalog: Catalog, person_id: int) -> list[int]:
    return [row[1] for row in catalog.table("knows").probe("person1_id",
                                                           person_id)]


def circle(catalog: Catalog, person_id: int, depth: int) -> dict[int, int]:
    """person id → distance for 1..depth hops (TransitiveExpand)."""
    expand = TransitiveExpand(catalog.table("knows"), person_id, depth)
    return {node: distance for node, distance in expand}


def _person(catalog: Catalog, person_id: int) -> tuple:
    return catalog.table("person").by_pk(person_id)


def _messages_by(catalog: Catalog, person_id: int) -> list[tuple]:
    return catalog.table("message").probe("creator_id", person_id)


def _message_content(row: tuple) -> str:
    return row[4]


def _tag_name(catalog: Catalog, tag_id: int) -> str:
    return catalog.table("tag").by_pk(tag_id)[1]


def _message_tags(catalog: Catalog, message_id: int) -> set[int]:
    return {row[1] for row in catalog.table("message_tag").probe(
        "message_id", message_id)}


def _columns(pipeline: PlannedPipeline):
    """Execute a pipeline and return ``(columns, position_fn)``."""
    return (pipeline.execute_columns(),
            pipeline.root.schema.position)


def _plan(catalog: Catalog, source: JoinSpec, steps: list[JoinStep],
          force: dict[int, str] | None) -> PlannedPipeline:
    """Plan the pipeline ``source`` ⨝ ``steps``.

    ``force`` maps step index → "inl"/"hash"; unforced steps are costed.
    """
    if force:
        for index, step in enumerate(steps):
            step.force = force.get(index)
    source.steps = steps
    return Optimizer(catalog).plan(source)


def _friends_of(person_id: int) -> JoinSpec:
    """Pipeline source: the knows rows of one person."""
    return JoinSpec(source_table="knows", source_keys=[person_id],
                    source_column="person1_id")


def _circle_of(person_id: int, depth: int) -> JoinSpec:
    """Pipeline source: the ``depth``-hop circle of one person."""
    return JoinSpec(
        source_expand=ExpandSource("knows", person_id, depth))


def _messages_of(person_ids: list[int]) -> JoinSpec:
    """Pipeline source: every message created by ``person_ids``."""
    return JoinSpec(source_table="message", source_keys=person_ids,
                    source_column="creator_id")


# ---------------------------------------------------------------------------
# the 14 complex reads — plan builders + finishing passes
# ---------------------------------------------------------------------------

def q1_plan(catalog: Catalog, params: g1.Q1Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q1: 3-hop circle expansion ⨝ person (pk), first-name residual."""
    source = _circle_of(params.person_id, g1.MAX_DISTANCE)
    return _plan(catalog, source, [
        JoinStep("person", outer_key="node", inner_column=None,
                 residual=Compare("first_name", "eq", params.first_name),
                 selectivity=0.01),
    ], force)


def q1(catalog: Catalog, params: g1.Q1Params) -> list[g1.Q1Result]:
    columns, position = _columns(q1_plan(catalog, params))
    records = sorted(zip(
        columns[position("distance")], columns[position("last_name")],
        columns[position("id")], columns[position("gender")],
        columns[position("birthday")],
        columns[position("creation_date")],
        columns[position("city_id")],
        columns[position("browser_used")],
        columns[position("location_ip")]),
        key=lambda r: r[:3])
    results = []
    for (distance, last_name, person_id, gender, birthday,
         creation_date, city_id, browser, ip) in records[:g1.LIMIT]:
        city = catalog.table("place").by_pk(city_id)
        universities = tuple(sorted(
            (catalog.table("organisation").by_pk(s[1])[1], s[2],
             catalog.table("place").by_pk(
                 catalog.table("organisation").by_pk(s[1])[3])[1])
            for s in catalog.table("study_at").probe("person_id",
                                                     person_id)))
        companies = tuple(sorted(
            (catalog.table("organisation").by_pk(w[1])[1], w[2],
             catalog.table("place").by_pk(
                 catalog.table("organisation").by_pk(w[1])[3])[1])
            for w in catalog.table("work_at").probe("person_id",
                                                    person_id)))
        emails = tuple(row[2] for row in sorted(
            catalog.table("person_email").probe("person_id", person_id),
            key=lambda row: row[1]))
        languages = tuple(row[2] for row in sorted(
            catalog.table("person_language").probe("person_id",
                                                   person_id),
            key=lambda row: row[1]))
        results.append(g1.Q1Result(
            person_id=person_id, last_name=last_name, distance=distance,
            birthday=birthday, creation_date=creation_date,
            gender=gender, browser_used=browser,
            location_ip=ip, emails=emails, languages=languages,
            city_name=city[1], universities=universities,
            companies=companies))
    return results


def q2_pipeline(catalog: Catalog, params: g2.Q2Params,
                force: dict[int, str] | None = None) -> PlannedPipeline:
    """The optimizer-planned pipeline for Q2 (knows ⨝ message)."""
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("message", outer_key="person2_id",
                 inner_column="creator_id",
                 residual=Compare("inner_creation_date", "le",
                                  params.max_date),
                 selectivity=0.5),
    ], force)


def q2(catalog: Catalog, params: g2.Q2Params) -> list[g2.Q2Result]:
    pipeline = q2_pipeline(catalog, params)
    rows = pipeline.execute()
    # Joined row: knows(person1,person2,date) ++ message columns.
    rows.sort(key=lambda r: (-r[6], r[3 + 0]))
    results = []
    for row in rows[:g2.LIMIT]:
        friend = _person(catalog, row[1])
        results.append(g2.Q2Result(
            person_id=row[1], first_name=friend[1], last_name=friend[2],
            message_id=row[3], content=_message_content(row[3:]),
            creation_date=row[6], is_post=row[11]))
    return results


def q3_plan(catalog: Catalog, params: g3.Q3Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q3: 2-hop circle ⨝ person (country residual) ⨝ message
    (date-window + x/y-country residual)."""
    window = CardinalityEstimator(catalog).date_selectivity(
        "message", "creation_date", params.start_date, params.end_date)
    countries = (params.country_x_id, params.country_y_id)
    return _plan(catalog, _circle_of(params.person_id, 2), [
        JoinStep("person", outer_key="node", inner_column=None,
                 residual=InSet("country_id", countries, negate=True),
                 selectivity=0.9),
        JoinStep("message", outer_key="node", inner_column="creator_id",
                 residual=All(
                     Compare("inner_creation_date", "ge",
                             params.start_date),
                     Compare("inner_creation_date", "lt",
                             params.end_date),
                     InSet("inner_country_id", countries)),
                 selectivity=max(window, 0.01) * 0.2),
    ], force)


def q3(catalog: Catalog, params: g3.Q3Params) -> list[g3.Q3Result]:
    columns, position = _columns(q3_plan(catalog, params))
    counts: dict[int, list[int]] = {}
    names: dict[int, tuple[str, str]] = {}
    for person_id, first_name, last_name, country in zip(
            columns[position("node")],
            columns[position("first_name")],
            columns[position("last_name")],
            columns[position("inner_country_id")]):
        state = counts.get(person_id)
        if state is None:
            state = counts[person_id] = [0, 0]
            names[person_id] = (first_name, last_name)
        if country == params.country_x_id:
            state[0] += 1
        else:
            state[1] += 1
    rows = [g3.Q3Result(person_id, names[person_id][0],
                        names[person_id][1], state[0], state[1])
            for person_id, state in counts.items()
            if state[0] and state[1]]
    rows.sort(key=lambda r: (-(r.x_count + r.y_count), r.person_id))
    return rows[:g3.LIMIT]


def q4_plan(catalog: Catalog, params: g4.Q4Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q4: friends ⨝ posts (date residual) ⨝ message_tag."""
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("message", outer_key="person2_id",
                 inner_column="creator_id",
                 residual=All(
                     Compare("is_post", "eq", True),
                     Compare("inner_creation_date", "lt",
                             params.end_date)),
                 selectivity=0.4),
        JoinStep("message_tag", outer_key="id",
                 inner_column="message_id"),
    ], force)


def q4(catalog: Catalog, params: g4.Q4Params) -> list[g4.Q4Result]:
    columns, position = _columns(q4_plan(catalog, params))
    in_window: dict[int, int] = {}
    before: set[int] = set()
    start_date = params.start_date
    for when, tag_id in zip(
            columns[position("inner_creation_date")],
            columns[position("tag_id")]):
        if when < start_date:
            before.add(tag_id)
        else:
            in_window[tag_id] = in_window.get(tag_id, 0) + 1
    rows = [g4.Q4Result(_tag_name(catalog, tag_id), count)
            for tag_id, count in in_window.items() if tag_id not in before]
    rows.sort(key=lambda r: (-r.post_count, r.tag_name))
    return rows[:g4.LIMIT]


def q5_pipeline(catalog: Catalog, params: g5.Q5Params,
                force: dict[int, str] | None = None) -> PlannedPipeline:
    """Optimizer-planned pipeline for Q5's expansion legs.

    knows ⨝ knows ⨝ membership (joined after the date) — the
    friends-of-friends leg of the intended plan (Fig. 6a), feeding the
    forum/post aggregation that :func:`q5` performs.
    """
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("knows", outer_key="person2_id",
                 inner_column="person1_id", repeat_expansion=True),
        JoinStep("membership", outer_key="inner_person2_id",
                 inner_column="person_id",
                 residual=Compare("joined_date", "gt", params.min_date),
                 selectivity=0.3),
    ], force)


def q5_plan(catalog: Catalog, params: g5.Q5Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q5 production plan: 2-hop circle ⨝ membership (date residual)."""
    return _plan(catalog, _circle_of(params.person_id, 2), [
        JoinStep("membership", outer_key="node",
                 inner_column="person_id",
                 residual=Compare("joined_date", "gt", params.min_date),
                 selectivity=0.3),
    ], force)


def q5(catalog: Catalog, params: g5.Q5Params) -> list[g5.Q5Result]:
    members = circle(catalog, params.person_id, 2)
    columns, position = _columns(q5_plan(catalog, params))
    joined_forums = set(columns[position("forum_id")])
    message = catalog.table("message")
    rows = []
    for forum_id in joined_forums:
        count = sum(1 for post in message.probe("forum_id", forum_id)
                    if post[1] in members and post[8])
        forum = catalog.table("forum").by_pk(forum_id)
        rows.append(g5.Q5Result(forum_id, forum[1], count))
    rows.sort(key=lambda r: (-r.post_count, r.forum_id))
    return rows[:g5.LIMIT]


def q6_plan(catalog: Catalog, params: g6.Q6Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q6: 2-hop circle ⨝ posts ⨝ message_tag."""
    return _plan(catalog, _circle_of(params.person_id, 2), [
        JoinStep("message", outer_key="node", inner_column="creator_id",
                 residual=Compare("is_post", "eq", True),
                 selectivity=0.5),
        JoinStep("message_tag", outer_key="id",
                 inner_column="message_id"),
    ], force)


def q6(catalog: Catalog, params: g6.Q6Params) -> list[g6.Q6Result]:
    columns, position = _columns(q6_plan(catalog, params))
    post_tags: dict[int, set[int]] = {}
    for message_id, tag_id in zip(columns[position("id")],
                                  columns[position("tag_id")]):
        bucket = post_tags.get(message_id)
        if bucket is None:
            bucket = post_tags[message_id] = set()
        bucket.add(tag_id)
    counts: dict[int, int] = {}
    wanted = params.tag_id
    for tags in post_tags.values():
        if wanted not in tags:
            continue
        for tag_id in tags:
            if tag_id != wanted:
                counts[tag_id] = counts.get(tag_id, 0) + 1
    rows = [g6.Q6Result(_tag_name(catalog, tag_id), count)
            for tag_id, count in counts.items()]
    rows.sort(key=lambda r: (-r.post_count, r.tag_name))
    return rows[:g6.LIMIT]


def q7_plan(catalog: Catalog, params: g7.Q7Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q7: my messages ⨝ likes."""
    return _plan(catalog, _messages_of([params.person_id]), [
        JoinStep("likes", outer_key="id", inner_column="message_id"),
    ], force)


def q7(catalog: Catalog, params: g7.Q7Params) -> list[g7.Q7Result]:
    columns, position = _columns(q7_plan(catalog, params))
    latest: dict[int, tuple] = {}
    for liker_id, message_id, like_date, content, message_date in zip(
            columns[position("person_id")],
            columns[position("id")],
            columns[position("inner_creation_date")],
            columns[position("content")],
            columns[position("creation_date")]):
        entry = (like_date, message_id)
        current = latest.get(liker_id)
        if current is None or entry > current[:2]:
            latest[liker_id] = (like_date, message_id, content,
                                message_date)
    friends = set(friend_ids(catalog, params.person_id))
    rows = []
    for liker_id, (like_date, message_id, content,
                   message_date) in latest.items():
        liker = _person(catalog, liker_id)
        rows.append(g7.Q7Result(
            liker_id=liker_id, first_name=liker[1], last_name=liker[2],
            like_date=like_date, message_id=message_id,
            message_content=content,
            latency_minutes=(like_date - message_date)
            // MILLIS_PER_MINUTE,
            is_outside_connections=liker_id not in friends))
    rows.sort(key=lambda r: (-r.like_date, r.liker_id))
    return rows[:g7.LIMIT]


def q8_plan(catalog: Catalog, params: g8.Q8Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q8: my messages ⨝ replies (reply_of index)."""
    return _plan(catalog, _messages_of([params.person_id]), [
        JoinStep("message", outer_key="id", inner_column="reply_of_id"),
    ], force)


def q8(catalog: Catalog, params: g8.Q8Params) -> list[g8.Q8Result]:
    columns, position = _columns(q8_plan(catalog, params))
    candidates = sorted(zip(
        [-d for d in columns[position("inner_creation_date")]],
        columns[position("inner_id")],
        columns[position("inner_creator_id")],
        columns[position("inner_content")]),
        key=lambda r: r[:2])
    results = []
    for neg_date, comment_id, author_id, content \
            in candidates[:g8.LIMIT]:
        author = _person(catalog, author_id)
        results.append(g8.Q8Result(
            comment_id=comment_id, creation_date=-neg_date,
            content=content, author_id=author_id,
            first_name=author[1], last_name=author[2]))
    return results


def q9_pipeline(catalog: Catalog, params: g9.Q9Params,
                force: dict[int, str] | None = None) -> PlannedPipeline:
    """The Figure 4 pipeline: knows ⨝ knows ⨝ message.

    This is the voluminous friends-of-friends leg of the intended plan's
    union (the leg whose join types the paper's choke-point analysis is
    about).  The intended plan uses INL for both friendship expansions
    and (at paper scale) a hash join for the message join; ``force``
    lets the bench pin any step to ``"inl"`` or ``"hash"`` to measure
    the penalty of a wrong choice.  The production :func:`q9` expands
    the full 1∪2-hop circle via :func:`q9_plan`.
    """
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("knows", outer_key="person2_id",
                 inner_column="person1_id", repeat_expansion=True),
        JoinStep("message", outer_key="inner_person2_id",
                 inner_column="creator_id",
                 residual=Compare("inner_inner_creation_date", "lt",
                                  params.max_date),
                 selectivity=0.5),
    ], force)


def q9_plan(catalog: Catalog, params: g9.Q9Params,
            force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q9 production plan: 2-hop circle ⨝ message (date residual)."""
    window = CardinalityEstimator(catalog).date_selectivity(
        "message", "creation_date", None, params.max_date)
    return _plan(catalog, _circle_of(params.person_id, 2), [
        JoinStep("message", outer_key="node", inner_column="creator_id",
                 residual=Compare("creation_date", "lt",
                                  params.max_date),
                 selectivity=max(window, 0.01)),
    ], force)


def q9(catalog: Catalog, params: g9.Q9Params) -> list[g9.Q9Result]:
    columns, position = _columns(q9_plan(catalog, params))
    candidates = sorted(zip(
        [-d for d in columns[position("creation_date")]],
        columns[position("id")],
        columns[position("creator_id")],
        columns[position("content")],
        columns[position("is_post")]),
        key=lambda r: r[:2])
    results = []
    for neg_date, message_id, creator_id, content, is_post \
            in candidates[:g9.LIMIT]:
        author = _person(catalog, creator_id)
        results.append(g9.Q9Result(
            person_id=creator_id, first_name=author[1],
            last_name=author[2], message_id=message_id, content=content,
            creation_date=-neg_date, is_post=is_post))
    return results


def q9_time_index_variant(catalog: Catalog, params: g9.Q9Params,
                          ) -> list[g9.Q9Result]:
    """Q9 exploiting time-ordered message ids (paper §3's last point).

    "The system may choose to assign identifiers to Posts/Comments
    entities such that their IDs are increasing in time ... the final
    selection of Posts/Comments created before a certain date will have
    high locality.  Moreover, it will eliminate the need for sorting at
    the end."

    Instead of expanding the circle and sorting its messages, this
    variant walks the creation-date ordered index *descending* from the
    date bound and keeps the first 20 messages whose creator is in the
    2-hop circle — no sort, and it touches only the newest sliver of
    the message table.
    """
    members = circle(catalog, params.person_id, 2)
    message = catalog.table("message")
    results: list[g9.Q9Result] = []
    pending: list[tuple] = []
    last_date: int | None = None
    for row in message.range_scan(high=params.max_date - 1,
                                  reverse=True):
        if last_date is not None and row[3] != last_date \
                and len(results) + len(pending) >= g9.LIMIT:
            break
        if row[3] != last_date:
            # Flush the previous date group in id order (the required
            # tie-break), then start a new group.
            pending.sort(key=lambda r: r[0])
            results.extend(_q9_rows(catalog, pending))
            pending = []
            last_date = row[3]
        if row[1] in members:
            pending.append(row)
    pending.sort(key=lambda r: r[0])
    results.extend(_q9_rows(catalog, pending))
    return results[:g9.LIMIT]


def _q9_rows(catalog: Catalog, rows: list[tuple]) -> list[g9.Q9Result]:
    out = []
    for row in rows:
        author = _person(catalog, row[1])
        out.append(g9.Q9Result(
            person_id=row[1], first_name=author[1], last_name=author[2],
            message_id=row[0], content=_message_content(row),
            creation_date=row[3], is_post=row[8]))
    return out


def q10_plan(catalog: Catalog, params: g10.Q10Params,
             force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q10: friends ⨝ knows (fof) ⨝ person (horoscope residual)."""
    month = params.month
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("knows", outer_key="person2_id",
                 inner_column="person1_id", repeat_expansion=True),
        JoinStep("person", outer_key="inner_person2_id",
                 inner_column=None,
                 residual=Where(
                     "birthday",
                     lambda b: g10._in_horoscope_window(b, month)),
                 selectivity=1 / 12),
    ], force)


def q10(catalog: Catalog, params: g10.Q10Params) -> list[g10.Q10Result]:
    interests = {row[1] for row in catalog.table("person_tag").probe(
        "person_id", params.person_id)}
    friends = set(friend_ids(catalog, params.person_id))
    columns, position = _columns(q10_plan(catalog, params))
    candidates: dict[int, tuple] = {}
    for person_id, first_name, last_name, gender, city_id in zip(
            columns[position("id")],
            columns[position("first_name")],
            columns[position("last_name")],
            columns[position("gender")],
            columns[position("city_id")]):
        if person_id == params.person_id or person_id in friends \
                or person_id in candidates:
            continue
        candidates[person_id] = (first_name, last_name, gender, city_id)
    rows = []
    for candidate, (first_name, last_name, gender,
                    city_id) in candidates.items():
        common = uncommon = 0
        for message in _messages_by(catalog, candidate):
            if not message[8]:
                continue
            if _message_tags(catalog, message[0]) & interests:
                common += 1
            else:
                uncommon += 1
        city = catalog.table("place").by_pk(city_id)
        rows.append(g10.Q10Result(
            person_id=candidate, first_name=first_name,
            last_name=last_name, similarity=common - uncommon,
            gender=gender, city_name=city[1]))
    rows.sort(key=lambda r: (-r.similarity, r.person_id))
    return rows[:g10.LIMIT]


def q11_plan(catalog: Catalog, params: g11.Q11Params,
             force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q11: 2-hop circle ⨝ work_at (year residual) ⨝ organisation
    (country residual)."""
    return _plan(catalog, _circle_of(params.person_id, 2), [
        JoinStep("work_at", outer_key="node", inner_column="person_id",
                 residual=Compare("work_from", "lt",
                                  params.max_work_from),
                 selectivity=0.5),
        JoinStep("organisation", outer_key="organisation_id",
                 inner_column=None,
                 residual=Compare("location_id", "eq",
                                  params.country_id),
                 selectivity=0.1),
    ], force)


def q11(catalog: Catalog, params: g11.Q11Params) -> list[g11.Q11Result]:
    columns, position = _columns(q11_plan(catalog, params))
    records = sorted(zip(
        columns[position("work_from")],
        columns[position("node")],
        columns[position("name")]),
        key=lambda r: r)
    rows = []
    for work_from, person_id, organisation_name \
            in records[:g11.LIMIT]:
        person = _person(catalog, person_id)
        rows.append(g11.Q11Result(
            person_id=person_id, first_name=person[1],
            last_name=person[2], organisation_name=organisation_name,
            work_from=work_from))
    return rows


def q12_plan(catalog: Catalog, params: g12.Q12Params,
             force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q12: friends ⨝ comments (is_post=False residual)."""
    return _plan(catalog, _friends_of(params.person_id), [
        JoinStep("message", outer_key="person2_id",
                 inner_column="creator_id",
                 residual=Compare("is_post", "eq", False),
                 selectivity=0.5),
    ], force)


def q12(catalog: Catalog, params: g12.Q12Params) -> list[g12.Q12Result]:
    tagclass = catalog.table("tagclass")
    wanted = {params.tag_class_id}
    changed = True
    while changed:
        changed = False
        for row in tagclass.rows:
            if row[2] in wanted and row[0] not in wanted:
                wanted.add(row[0])
                changed = True
    columns, position = _columns(q12_plan(catalog, params))
    counts: dict[int, int] = {}
    tags_by_friend: dict[int, set[int]] = {}
    tag_table = catalog.table("tag")
    for friend_id, parent_id in zip(
            columns[position("person2_id")],
            columns[position("reply_of_id")]):
        if not is_kind(parent_id, EntityKind.POST):
            continue
        matching = {tag_id
                    for tag_id in _message_tags(catalog, parent_id)
                    if tag_table.by_pk(tag_id)[2] in wanted}
        if matching:
            counts[friend_id] = counts.get(friend_id, 0) + 1
            bucket = tags_by_friend.get(friend_id)
            if bucket is None:
                bucket = tags_by_friend[friend_id] = set()
            bucket |= matching
    rows = []
    for friend_id, reply_count in counts.items():
        person = _person(catalog, friend_id)
        rows.append(g12.Q12Result(
            person_id=friend_id, first_name=person[1],
            last_name=person[2], reply_count=reply_count,
            tag_names=tuple(sorted(
                _tag_name(catalog, t)
                for t in tags_by_friend[friend_id]))))
    rows.sort(key=lambda r: (-r.reply_count, r.person_id))
    return rows[:g12.LIMIT]


#: "Unbounded" BFS depth for the path queries (bounded by the graph).
UNBOUNDED = 1 << 30


def q13_plan(catalog: Catalog, params: g13.Q13Params,
             force: dict[int, str] | None = None) -> PlannedPipeline:
    """Q13: pure transitive expansion from x (no join steps)."""
    source = _circle_of(params.person_x_id, UNBOUNDED)
    return _plan(catalog, source, [], force)


def q13(catalog: Catalog, params: g13.Q13Params) -> list[g13.Q13Result]:
    if params.person_x_id == params.person_y_id:
        return [g13.Q13Result(0)]
    pipeline = q13_plan(catalog, params)
    target = params.person_y_id
    # One chunk per BFS level: scan the node column (C-level membership
    # test), abandon the expansion at the found level.
    for chunk in pipeline.root.chunks():
        if target in chunk.columns[0]:
            return [g13.Q13Result(chunk.columns[1][0])]
    return [g13.Q13Result(-1)]


def _q14_search(catalog: Catalog, params: g14.Q14Params):
    """BFS distances from x plus all shortest x→y paths.

    The BFS runs frontier-at-a-time against the knows adjacency, which
    ``Table.insert`` keeps current; neighbor order is knows row order,
    which fixes the path enumeration order.
    """
    source, target = params.person_x_id, params.person_y_id
    adjacency = catalog.table("knows").adjacency("person1_id", "person2_id")
    neighbors = adjacency.neighbors
    distances: dict[int, int] = {source: 0}
    found = None
    frontier = [source]
    depth = 0
    seen = {source}
    while frontier and found is None:
        depth += 1
        fresh = set(adjacency.gather(frontier))
        fresh.difference_update(seen)
        if not fresh:
            break
        seen.update(fresh)
        for node in fresh:
            distances[node] = depth
        if target in fresh:
            found = depth
        frontier = list(fresh)
    if found is None:
        return distances, None, []
    paths: list[list[int]] = []
    stack = [[target]]
    while stack and len(paths) < g14.MAX_PATHS:
        partial = stack.pop()
        head = partial[-1]
        if head == source:
            paths.append(list(reversed(partial)))
            continue
        want = distances[head] - 1
        for neighbor in neighbors(head):
            if distances.get(neighbor) == want:
                stack.append(partial + [neighbor])
    return distances, found, paths


def q14_plan(catalog: Catalog, params: g14.Q14Params,
             force: dict[int, str] | None = None,
             members: list[int] | None = None) -> PlannedPipeline:
    """Q14 weight leg: path members' comments ⨝ parent message (pk),
    keeping parents authored inside the member set."""
    if members is None:
        _, found, paths = _q14_search(catalog, params)
        members = sorted({node for path in paths for node in path}) \
            if found is not None else []
    return _plan(catalog, _messages_of(list(members)), [
        JoinStep("message", outer_key="reply_of_id", inner_column=None,
                 residual=InSet("inner_creator_id", members),
                 selectivity=0.05),
    ], force)


def q14(catalog: Catalog, params: g14.Q14Params) -> list[g14.Q14Result]:
    source, target = params.person_x_id, params.person_y_id
    if source == target:
        return [g14.Q14Result((source,), 0.0)]
    _, found, paths = _q14_search(catalog, params)
    if found is None:
        return []
    members = sorted({node for path in paths for node in path})
    pipeline = q14_plan(catalog, params, members=members)
    columns, position = _columns(pipeline)
    weights: dict[tuple[int, int], float] = {}
    for replier, author, parent_is_post in zip(
            columns[position("creator_id")],
            columns[position("inner_creator_id")],
            columns[position("inner_is_post")]):
        key = (replier, author) if replier < author \
            else (author, replier)
        weights[key] = weights.get(key, 0.0) \
            + (1.0 if parent_is_post else 0.5)
    results = [
        g14.Q14Result(
            tuple(path),
            sum(weights.get((a, b) if a < b else (b, a), 0.0)
                for a, b in zip(path, path[1:])))
        for path in paths]
    results.sort(key=lambda r: (-r.weight, r.path))
    return results


#: query id → engine implementation.
ENGINE_COMPLEX = {
    1: q1, 2: q2, 3: q3, 4: q4, 5: q5, 6: q6, 7: q7, 8: q8, 9: q9,
    10: q10, 11: q11, 12: q12, 13: q13, 14: q14,
}

#: query id → optimizer plan builder — full coverage of the read mix.
#: Every builder has signature ``(catalog, params, force=None)`` and
#: returns a :class:`PlannedPipeline`; ``force`` maps step index →
#: "inl"/"hash" instead of the costed choice.
PIPELINES = {
    1: q1_plan, 2: q2_pipeline, 3: q3_plan, 4: q4_plan, 5: q5_plan,
    6: q6_plan, 7: q7_plan, 8: q8_plan, 9: q9_plan, 10: q10_plan,
    11: q11_plan, 12: q12_plan, 13: q13_plan, 14: q14_plan,
}


# ---------------------------------------------------------------------------
# the 7 short reads
# ---------------------------------------------------------------------------

def s1(catalog: Catalog, person_id: int) -> gs.S1Result | None:
    row = catalog.table("person").get_pk(person_id)
    if row is None:
        return None
    return gs.S1Result(row[1], row[2], row[4], row[9], row[8], row[6],
                       row[3], row[5])


def s2(catalog: Catalog, person_id: int, limit: int = 10,
       ) -> list[gs.S2Result]:
    mine = sorted(_messages_by(catalog, person_id),
                  key=lambda r: (-r[3], r[0]))[:limit]
    results = []
    for row in mine:
        root_id = row[0] if row[8] else row[9]
        root = catalog.table("message").by_pk(root_id)
        author = _person(catalog, root[1])
        results.append(gs.S2Result(
            message_id=row[0], content=_message_content(row),
            creation_date=row[3], root_post_id=root_id,
            root_author_id=root[1], root_author_first_name=author[1],
            root_author_last_name=author[2]))
    return results


def s3(catalog: Catalog, person_id: int) -> list[gs.S3Result]:
    rows = []
    for edge in catalog.table("knows").probe("person1_id", person_id):
        friend = _person(catalog, edge[1])
        rows.append(gs.S3Result(edge[1], friend[1], friend[2], edge[2]))
    rows.sort(key=lambda r: (-r.friendship_date, r.person_id))
    return rows


def s4(catalog: Catalog, message_id: int) -> gs.S4Result | None:
    row = catalog.table("message").get_pk(message_id)
    if row is None:
        return None
    return gs.S4Result(row[3], _message_content(row))


def s5(catalog: Catalog, message_id: int) -> gs.S5Result | None:
    row = catalog.table("message").get_pk(message_id)
    if row is None:
        return None
    author = _person(catalog, row[1])
    return gs.S5Result(row[1], author[1], author[2])


def s6(catalog: Catalog, message_id: int) -> gs.S6Result | None:
    row = catalog.table("message").get_pk(message_id)
    if row is None:
        return None
    forum_id = row[2] if row[8] else None
    if forum_id is None:
        root = catalog.table("message").get_pk(row[9])
        if root is None:
            return None
        forum_id = root[2]
    forum = catalog.table("forum").by_pk(forum_id)
    moderator = _person(catalog, forum[3])
    return gs.S6Result(forum_id, forum[1], forum[3], moderator[1],
                       moderator[2])


def s7(catalog: Catalog, message_id: int) -> list[gs.S7Result]:
    row = catalog.table("message").get_pk(message_id)
    if row is None:
        return []
    author_friends = set(friend_ids(catalog, row[1]))
    rows = []
    for reply in catalog.table("message").probe("reply_of_id",
                                                message_id):
        author = _person(catalog, reply[1])
        rows.append(gs.S7Result(
            comment_id=reply[0], content=reply[4],
            creation_date=reply[3], author_id=reply[1],
            author_first_name=author[1], author_last_name=author[2],
            knows_original_author=reply[1] in author_friends))
    rows.sort(key=lambda r: (-r.creation_date, r.author_id))
    return rows


ENGINE_SHORT = {1: s1, 2: s2, 3: s3, 4: s4, 5: s5, 6: s6, 7: s7}


# ---------------------------------------------------------------------------
# the 8 updates
# ---------------------------------------------------------------------------

def execute_engine_update(catalog: Catalog, operation) -> None:
    """Apply one update-stream operation to the relational catalog."""
    kind = operation.kind
    payload = operation.payload
    if kind is UpdateKind.ADD_PERSON:
        catalog.insert_person(payload)
    elif kind is UpdateKind.ADD_FRIENDSHIP:
        catalog.insert_friendship(payload)
    elif kind is UpdateKind.ADD_FORUM:
        catalog.insert_forum(payload)
    elif kind is UpdateKind.ADD_FORUM_MEMBERSHIP:
        catalog.insert_membership(payload)
    elif kind is UpdateKind.ADD_POST:
        catalog.insert_post(payload)
    elif kind is UpdateKind.ADD_COMMENT:
        catalog.insert_comment(payload)
    else:
        catalog.insert_like(payload)
