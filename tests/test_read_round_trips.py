"""Round trips per read: every SNB read costs O(levels), not O(rows).

The queries in :mod:`repro.queries` are written level by level over the
batched primitives, so the number of transaction primitives a read calls
is a small constant plus one per BFS level — independent of how many
rows the read touches.  On the sharded store each primitive is at most
one RPC per shard, so the same table bounds the round trips.

Result equality is judged elsewhere (crosscheck, golden digests, the
shard property suite); this file only counts.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.operation import ComplexRead, ShortRead
from repro.curation import ParameterCurator
from repro.datagen import DatagenConfig, generate
from repro.errors import ShardTimeoutError
from repro.queries.registry import COMPLEX_QUERIES, SHORT_QUERIES
from repro.shard import ShardedStoreSUT
from repro.shard.router import ShardRouter
from repro.store import load_network
from repro.store.graph import Direction
from repro.store.loader import EdgeLabel, VertexLabel
from repro.workload.operations import EntityRef

#: Transaction primitive calls one read may make: fixed calls plus one
#: per BFS level over *knows* (Q1 expands 3 levels, the 2-hop reads 2;
#: Q13/Q14 as many as the endpoints are apart, bounded here at 6).
READ_CALL_BUDGET = {
    "Q1": 5 + 3, "Q2": 5, "Q3": 4 + 2, "Q4": 5, "Q5": 4 + 2,
    "Q6": 3 + 2, "Q7": 6, "Q8": 4, "Q9": 4 + 2, "Q10": 5 + 2,
    "Q11": 3 + 2, "Q12": 7, "Q13": 6, "Q14": 4 + 6,
    "S1": 1, "S2": 5, "S3": 2, "S4": 1, "S5": 3, "S6": 4, "S7": 6,
}
#: What the data may move a count by: an empty intermediate result
#: skips its batched call, and the two persons of Q13/Q14 may be a
#: level or two further apart.  A per-row call would add dozens.
DATA_DEPENDENT_SLACK = 2

_PRIMITIVES = frozenset({
    "vertex", "require_vertex", "vertex_exists", "vertex_many",
    "neighbors", "neighbors_many", "degree", "lookup", "scan_range",
    "vertices", "edges", "count_vertices"})


class CountingTransaction:
    """Forwards to a transaction, counting the read primitives called."""

    def __init__(self, txn) -> None:
        self._txn = txn
        self.calls = 0

    def __getattr__(self, name: str):
        attr = getattr(self._txn, name)
        if name not in _PRIMITIVES:
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def _read_inputs(network) -> dict[str, list]:
    """Read name → its inputs: curated bindings for the complex reads,
    the first persons and messages for the short ones."""
    curated = ParameterCurator(network, seed=3).curate(4)
    inputs = {f"Q{query_id}": list(curated.by_query[query_id])
              for query_id in COMPLEX_QUERIES}
    persons = [person.id for person in network.persons[:20]]
    messages = [post.id for post in network.posts[:10]] \
        + [comment.id for comment in network.comments[:10]]
    for query_id, entry in SHORT_QUERIES.items():
        inputs[f"S{query_id}"] = \
            persons if entry.input_kind == "person" else messages
    return inputs


def _worst_calls(network) -> dict[str, int]:
    """Read name → most primitive calls any of its inputs caused."""
    store = load_network(network)
    worst = {}
    for name, bindings in _read_inputs(network).items():
        registry = COMPLEX_QUERIES if name[0] == "Q" else SHORT_QUERIES
        run = registry[int(name[1:])].run
        worst[name] = 0
        for binding in bindings:
            with store.transaction() as txn:
                counting = CountingTransaction(txn)
                run(counting, binding)
            worst[name] = max(worst[name], counting.calls)
    return worst


@pytest.fixture(scope="module")
def calls_small(small_network):
    return _worst_calls(small_network)


@pytest.fixture(scope="module")
def calls_large():
    return _worst_calls(generate(DatagenConfig(num_persons=200, seed=7)))


def test_budget_covers_every_read_and_stays_small():
    assert set(READ_CALL_BUDGET) == \
        {f"Q{q}" for q in COMPLEX_QUERIES} | {f"S{s}" for s in SHORT_QUERIES}
    assert max(READ_CALL_BUDGET.values()) <= 14


@pytest.mark.parametrize("name", sorted(READ_CALL_BUDGET))
def test_primitive_calls_within_budget(name, calls_small, calls_large):
    assert 0 < calls_small[name] <= READ_CALL_BUDGET[name]
    assert 0 < calls_large[name] <= READ_CALL_BUDGET[name]


@pytest.mark.parametrize("name", sorted(READ_CALL_BUDGET))
def test_primitive_calls_do_not_grow_with_the_graph(name, calls_small,
                                                    calls_large):
    """3.3x the persons (and ~4x the messages) buy no more calls."""
    assert calls_large[name] <= calls_small[name] + DATA_DEPENDENT_SLACK


# -- the sharded store: the same table bounds worker round trips ---------

@pytest.fixture(scope="module")
def sharded(small_network):
    sut = ShardedStoreSUT.for_network(small_network, 2)
    yield sut
    sut.close()


def _requests_spent(sut, action) -> int:
    """Worker requests ``action`` caused (asking is itself one each)."""
    def served() -> int:
        return sum(shard["requests"] for shard in sut.stats()["shards"])

    before = served()
    action()
    return served() - before - sut.num_shards


def test_sharded_round_trips_within_shards_times_budget(small_network,
                                                        sharded):
    for name, bindings in _read_inputs(small_network).items():
        query_id = int(name[1:])
        for binding in bindings:
            if name[0] == "Q":
                operation = ComplexRead(query_id, binding)
            elif SHORT_QUERIES[query_id].input_kind == "person":
                operation = ShortRead(query_id, EntityRef.person(binding))
            else:
                operation = ShortRead(query_id, EntityRef.message(binding))
            spent = _requests_spent(
                sharded, lambda: sharded.execute(operation))
            assert spent <= sharded.num_shards * READ_CALL_BUDGET[name], \
                f"{name} {binding}: {spent} worker requests"


def test_static_label_scan_asks_shard_zero_only(sharded, small_network):
    """Tag classes live on shard 0 alone (``routing.STATIC_LABELS``)."""
    with sharded.router.transaction() as txn:
        assert _requests_spent(sharded, lambda: list(
            txn.vertices(VertexLabel.TAG_CLASS))) == 1
        assert _requests_spent(sharded, lambda: txn.count_vertices(
            VertexLabel.TAG_CLASS)) == 1
        assert txn.count_vertices(VertexLabel.TAG_CLASS) \
            == len(list(txn.vertices(VertexLabel.TAG_CLASS))) \
            == len(small_network.tag_classes)


def test_static_anchor_batch_is_one_gather(sharded, small_network):
    """All static anchors of a batch resolve in one scatter-gather whose
    per-anchor lists equal the one-anchor-at-a-time answer."""
    tags = [tag.id for tag in small_network.tags[:8]]
    with sharded.router.transaction() as txn:
        batched = {}
        assert _requests_spent(sharded, lambda: batched.update(
            txn.neighbors_many(EdgeLabel.HAS_INTEREST, tags,
                               Direction.IN))) == sharded.num_shards
        assert any(batched.values())
        for tag_id in tags:
            assert batched[tag_id] == txn.neighbors(
                EdgeLabel.HAS_INTEREST, tag_id, Direction.IN)


# -- fan-out mechanics ---------------------------------------------------

class _StubHandle:
    """Stands in for a ShardHandle: records who called it, may fail."""

    generation = 0

    def __init__(self, index: int, error: Exception | None = None) -> None:
        self.index = index
        self.error = error
        self.called_on: list[int] = []

    def call(self, method, args, timeout, key=None):
        self.called_on.append(threading.get_ident())
        if self.error is not None:
            raise self.error
        return (self.index, method, args)


def test_fan_out_runs_last_target_inline_and_collects_all():
    handles = [_StubHandle(0), _StubHandle(1), _StubHandle(2)]
    router = ShardRouter(handles)
    try:
        assert router.gather("ping") == [
            (0, "ping", ()), (1, "ping", ()), (2, "ping", ())]
        assert router.call_many({2: ("vertex", "person", 5),
                                 0: ("vertex", "person", 6)}) == {
            2: (2, "vertex", ("person", 5)),
            0: (0, "vertex", ("person", 6))}
        me = threading.get_ident()
        # gather: shard 2 is last, inline; call_many: shard 0 is.
        assert handles[2].called_on[0] == me
        assert handles[0].called_on == [handles[0].called_on[0], me]
        assert me not in handles[1].called_on
    finally:
        router._gather_pool.shutdown(wait=True)


def test_fan_out_raises_first_error_after_every_target_answered():
    first, second = ShardTimeoutError("shard 0"), ShardTimeoutError("shard 2")
    handles = [_StubHandle(0, first), _StubHandle(1), _StubHandle(2, second)]
    router = ShardRouter(handles)
    try:
        with pytest.raises(ShardTimeoutError) as raised:
            router.gather("ping")
        assert raised.value is first
        assert [len(handle.called_on) for handle in handles] == [1, 1, 1]
    finally:
        router._gather_pool.shutdown(wait=True)
