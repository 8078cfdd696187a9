"""The unified ``execute(op)`` SUT API, EntityRef, and ``op_class``."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    ComplexRead,
    EngineSUT,
    OperationResult,
    ShortRead,
    StoreSUT,
    Update,
    as_operation,
)
from repro.core.connector import InteractiveConnector
from repro.core.sut import load_sut
from repro.datagen.update_stream import UpdateOperation
from repro.driver import DriverConfig, ExecutionMode, WorkloadDriver
from repro.engine import snb_queries as engine_queries
from repro.errors import BenchmarkError, WriteConflictError
from repro.workload.operations import EntityRef, ReadOperation

from .connector_kit import remote_case, replay_is_noop, sharded_case, sut_case


# -- EntityRef -------------------------------------------------------------

def test_entity_ref_tuple_compatibility():
    ref = EntityRef.person(11)
    assert ref == ("person", 11)
    assert ("person", 11) == ref
    assert ref != ("person", 12)
    assert hash(ref) == hash(("person", 11))
    kind, entity_id = ref
    assert (kind, entity_id) == ("person", 11)
    assert ref[0] == "person" and ref[1] == 11
    assert ref in {("person", 11)} and ("person", 11) in {ref}


def test_entity_ref_of_and_kinds():
    assert EntityRef.of(("message", 3)) == EntityRef.message(3)
    ref = EntityRef.person(1)
    assert EntityRef.of(ref) is ref
    assert ref.is_person and not EntityRef.message(1).is_person
    assert EntityRef.person(1) != EntityRef.message(1)


# -- op_class --------------------------------------------------------------

def test_op_class_across_shapes(split):
    read = ReadOperation(query_id=9, params=None, due_time=0)
    assert read.op_class == "Q9"
    update = split.updates[0]
    assert isinstance(update, UpdateOperation)
    assert update.op_class == update.kind.name
    assert ComplexRead(2, None).op_class == "Q2"
    assert ShortRead(4, EntityRef.message(1)).op_class == "S4"
    assert Update(update).op_class == update.kind.name


# -- as_operation coercion -------------------------------------------------

def test_as_operation_coerces_legacy_shapes(split):
    read = ReadOperation(query_id=2, params="binding", due_time=5,
                         walk_seed=9)
    op = as_operation(read)
    assert op == ComplexRead(2, "binding", walk_seed=9)
    update = as_operation(split.updates[0])
    assert update == Update(split.updates[0])
    assert as_operation(op) is op
    with pytest.raises(TypeError):
        as_operation("not an operation")


# -- execute on both SUTs --------------------------------------------------

@pytest.fixture(params=["store", "engine"])
def sut(request, loaded_store, loaded_catalog):
    if request.param == "store":
        return StoreSUT(loaded_store)
    return EngineSUT(loaded_catalog)


def test_execute_reads(sut, curated_params, network):
    binding = curated_params.by_query[2][0]
    result = sut.execute(ComplexRead(2, binding))
    assert isinstance(result, OperationResult)
    assert result.op_class == "Q2"

    ref = EntityRef.person(network.persons[0].id)
    short = sut.execute(ShortRead(3, ref))
    assert short.op_class == "S3"


def test_deprecated_run_shims_are_gone(sut):
    """PR-2's ``run_*`` deprecation shims were removed: ``execute``
    over the typed operation union is the only SUT entry point."""
    for shim in ("run_complex", "run_short", "run_update"):
        assert not hasattr(sut, shim)


def test_execute_update(split):
    from repro.store import load_network

    update = split.updates[0]
    direct = StoreSUT(load_network(split.bulk))
    result = direct.execute(Update(update))
    assert result.op_class == update.kind.name
    assert result.value is None


def test_execute_accepts_legacy_driver_shapes(sut, curated_params):
    """Connector-style dispatch: raw stream items coerce transparently."""
    binding = curated_params.by_query[2][0]
    legacy = ReadOperation(query_id=2, params=binding, due_time=0)
    assert sut.execute(legacy).value \
        == sut.execute(ComplexRead(2, binding)).value


# -- exactly-once: a replayed update is a no-op on every shape -------------

_SHAPES = {
    "store": lambda split: sut_case(split, "store"),
    "engine": lambda split: sut_case(split, "engine"),
    "remote-store": lambda split: remote_case(split, "store"),
    "remote-engine": lambda split: remote_case(split, "engine"),
    "sharded": lambda split: sharded_case(split, shards=2),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_replay_is_noop_for_every_update_kind(small_split, shape):
    """Each of the 8 update kinds, applied twice, applies once."""
    firsts: dict = {}
    for operation in small_split.updates:
        firsts.setdefault(operation.kind, operation)
    assert len(firsts) == 8
    live = _SHAPES[shape](small_split).build()
    failures = []
    try:
        for kind, operation in firsts.items():
            try:
                replay_is_noop(live, Update(operation), kind.name)
            except Exception as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        live.done()
    assert failures == []


def test_engine_failed_update_records_no_key(small_split, monkeypatch):
    """A transient failure leaves the key unrecorded: the retry applies."""
    sut = EngineSUT.for_network(small_split.bulk)
    operation = small_split.updates[0]
    apply = engine_queries.execute_engine_update
    failures = [WriteConflictError("injected")]

    def flaky(catalog, op):
        if failures:
            raise failures.pop()
        apply(catalog, op)

    monkeypatch.setattr(engine_queries, "execute_engine_update", flaky)
    with pytest.raises(WriteConflictError):
        sut.execute(Update(operation))
    sut.execute(Update(operation))
    sut.execute(Update(operation))
    assert (sut.applied_count, sut.replay_count) == (1, 1)


# -- the engine serializes itself ------------------------------------------

def test_engine_serializes_concurrent_partitions(small_split):
    """The catalog has no internal concurrency control: a 4-partition
    driver must still reach the engine one operation at a time."""
    sut = EngineSUT.for_network(small_split.bulk)
    guard = threading.Lock()
    inside = peak = 0

    def probe(operation) -> None:
        nonlocal inside, peak
        with guard:
            inside += 1
            peak = max(peak, inside)
        time.sleep(0.0005)
        with guard:
            inside -= 1

    sut._update = probe
    driver = WorkloadDriver(InteractiveConnector(sut), DriverConfig(
        num_partitions=4, mode=ExecutionMode.SEQUENTIAL))
    report = driver.run(small_split.updates[:400])
    assert report.metrics.operations == min(400, len(small_split.updates))
    assert peak == 1


# -- load_sut refusals -----------------------------------------------------

@pytest.mark.parametrize("kind,options", [
    ("engine", {"shards": 2}),
    ("store", {"shards": 2, "remote": "h:1"}),
    ("oracle", {}),
], ids=["engine-shards", "remote-shards", "unknown-kind"])
def test_refused_combinations_raise_before_building(kind, options):
    # No bulk network: the refusal must come before anything is built
    # (or any connection is attempted).
    with pytest.raises(BenchmarkError):
        load_sut(kind, None, **options)
