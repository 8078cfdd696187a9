"""The wire codec: round-trips over every registered type, rejection
of everything else.

Coverage strategy is exhaustive, not sampled: a synthetic instance is
built for *every* dataclass and enum in the codec registry from its
field annotations, so adding a new parameter/result/payload class to
any registered module automatically extends the round-trip property.
Real data rides on top: every update kind from the session split and
one executed result per complex/short query class cross the wire and
must come back as the exact original objects.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import subprocess
import sys
import types
import typing

import pytest

from repro.core.operation import (
    ComplexRead,
    OperationResult,
    ShortRead,
    Update,
)
from repro.core.sut import StoreSUT
from repro.net import codec
from repro.net.codec import (
    CodecError,
    FrameReader,
    FrameTooLargeError,
    TruncatedFrameError,
    UnsupportedVersionError,
)
from repro.queries.registry import COMPLEX_QUERIES, SHORT_QUERIES
from repro.workload.operations import EntityRef


def roundtrip(value):
    """Encode → JSON text → decode, as the socket path would."""
    wire = json.loads(json.dumps(codec.encode_value(value)))
    return codec.decode_value(wire)


# -- synthetic instances for every registered type -------------------------

def build_instance(cls, salt: int = 0, depth: int = 0):
    """A deterministic synthetic instance of a registered type.

    ``salt`` varies the concrete values; ``depth`` counts nesting so
    genuinely recursive schemas are caught instead of looping.
    """
    if issubclass(cls, enum.Enum):
        return list(cls)[salt % len(cls)]
    assert dataclasses.is_dataclass(cls)
    hints = typing.get_type_hints(cls)
    values = {}
    for index, field in enumerate(dataclasses.fields(cls)):
        values[field.name] = build_value(hints[field.name],
                                         salt + index, depth)
    return cls(**values)


def build_value(hint, salt: int, depth: int = 0):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union or isinstance(hint, types.UnionType):
        # Optional[X] and X | None: alternate None with the first
        # non-None arm so both shapes cross the wire.
        arms = [a for a in args if a is not type(None)]
        if type(None) in args and salt % 2:
            return None
        return build_value(arms[0], salt, depth)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(build_value(args[0], salt + i, depth)
                         for i in range(2))
        return tuple(build_value(a, salt + i, depth)
                     for i, a in enumerate(args))
    if origin is list:
        return [build_value(args[0], salt + i, depth)
                for i in range(2)]
    if origin is dict:
        return {build_value(args[0], salt, depth):
                build_value(args[1], salt + 1, depth)}
    if hint is int:
        return salt * 7 + 1
    if hint is float:
        return salt + 0.5
    if hint is bool:
        return salt % 2 == 0
    if hint is str:
        return f"wire-{salt}"
    if hint is EntityRef:
        return EntityRef("person" if salt % 2 else "message", salt)
    if isinstance(hint, type) and (dataclasses.is_dataclass(hint)
                                   or issubclass(hint, enum.Enum)):
        if depth > 4:
            pytest.fail(f"runaway recursion building {hint}")
        return build_instance(hint, salt, depth + 1)
    if hint is object or hint is typing.Any:
        return {"k": (1, "two")}
    pytest.fail(f"no synthetic builder for annotation {hint!r}")


REGISTERED = sorted(codec.registered_types().items())


def test_registry_covers_the_api_surface():
    names = dict(REGISTERED)
    for required in ("ComplexRead", "ShortRead", "Update",
                     "OperationResult", "UpdateOperation", "UpdateKind",
                     "Person", "Knows", "Forum", "Post", "Comment"):
        assert required in names, f"{required} missing from registry"
    # All 14 complex parameter/result classes registered.
    for qid in range(1, 15):
        assert f"Q{qid}Params" in names
        assert f"Q{qid}Result" in names
    for sid in range(1, 8):
        assert f"S{sid}Result" in names


@pytest.mark.parametrize("name,cls", REGISTERED,
                         ids=[name for name, _ in REGISTERED])
def test_roundtrip_every_registered_type(name, cls):
    for depth in range(3):
        value = build_instance(cls, depth)
        decoded = roundtrip(value)
        assert type(decoded) is type(value)
        assert decoded == value


def test_roundtrip_operation_union():
    ops = [
        ComplexRead(9, build_instance(
            codec.registered_types()["Q9Params"]), walk_seed=4),
        ShortRead(2, EntityRef.person(17)),
        Update(build_instance(
            codec.registered_types()["UpdateOperation"])),
    ]
    for op in ops:
        wire = json.loads(json.dumps(codec.encode_operation(op)))
        decoded = codec.decode_operation(wire)
        assert type(decoded) is type(op)
        assert decoded == op


def test_roundtrip_result_shapes():
    results = [
        OperationResult("Q3", [build_instance(
            codec.registered_types()["Q3Result"])]),
        OperationResult("S5", build_instance(
            codec.registered_types()["S5Result"])),
        OperationResult("ADD_POST", None),
        OperationResult("S2", ()),
    ]
    for result in results:
        wire = json.loads(json.dumps(codec.encode_result(result)))
        decoded = codec.decode_result(wire)
        assert decoded == result


def class_index(name: str) -> int:
    """A registered class's wire index: sorted-name order after the
    three container tags."""
    return sorted(codec.registered_types()).index(name) + 3


def test_entity_ref_as_json_roundtrip():
    ref = EntityRef.message(123)
    wire = codec.encode_value(ref)
    assert wire == [class_index("EntityRef"), *ref.as_json()]
    decoded = codec.decode_value(json.loads(json.dumps(wire)))
    assert isinstance(decoded, EntityRef)
    assert decoded == ref and decoded.kind == "message"


# -- real workload data ----------------------------------------------------

def test_roundtrip_every_update_kind_from_the_stream(split):
    seen = set()
    for operation in split.updates:
        if operation.kind in seen:
            continue
        seen.add(operation.kind)
        decoded = codec.decode_operation(json.loads(json.dumps(
            codec.encode_operation(Update(operation)))))
        assert decoded == Update(operation)
        assert decoded.operation.payload == operation.payload
    assert len(seen) >= 7, "stream exercised too few update kinds"


def test_roundtrip_executed_results(loaded_store, curated_params,
                                    network):
    sut = StoreSUT(loaded_store)
    for qid in sorted(COMPLEX_QUERIES):
        params = curated_params.by_query[qid][0]
        result = sut.execute(ComplexRead(qid, params))
        decoded = codec.decode_result(json.loads(json.dumps(
            codec.encode_result(result))))
        assert decoded == result, f"Q{qid} result did not round-trip"
    person = EntityRef.person(network.persons[0].id)
    message = EntityRef.message(network.posts[0].id)
    for sid, entry in sorted(SHORT_QUERIES.items()):
        ref = person if entry.input_kind == "person" else message
        result = sut.execute(ShortRead(sid, ref))
        decoded = codec.decode_result(json.loads(json.dumps(
            codec.encode_result(result))))
        assert decoded == result, f"S{sid} result did not round-trip"


# -- rejection paths -------------------------------------------------------

def test_unregistered_types_are_refused():
    class Sneaky:
        pass

    with pytest.raises(CodecError):
        codec.encode_value(Sneaky())

    @dataclasses.dataclass
    class NotRegistered:
        x: int

    with pytest.raises(CodecError, match="unregistered"):
        codec.encode_value(NotRegistered(1))


Q1 = class_index("Q1Params")  # Q1Params(person_id, first_name)
KIND = class_index("UpdateKind")


def test_unknown_tags_and_types_are_refused():
    unknown_tags = [
        [], ["0"], [None, 1], [1.0, 2], [True, 1], [False], [[0], 1],
        [-1], [10 ** 6], [3 + len(codec.registered_types())],
    ]
    for wire in unknown_tags:
        with pytest.raises(CodecError, match="unknown wire value tag"):
            codec.decode_value(wire)
    # A name-tagged object is not a body form.
    for stray in ({"__k": "dc", "t": "Q1Params", "v": {"person_id": 1}},
                  {"__k": "ref", "v": ["person", 1]}, {}):
        with pytest.raises(CodecError, match="un-decodable"):
            codec.decode_value(stray)


@pytest.mark.parametrize("wire", [
    [Q1], [Q1, 1], [Q1, 1, "x", 2],                  # wrong field count
    [Q1, 1, [999]],                                  # bad nested value
    [KIND, 1, 2], [KIND], [KIND, 99], [KIND, -1],    # bad enum bodies
    [KIND, True], [KIND, "ADD_PERSON"],
    [class_index("EntityRef"), 0],                   # enum-shaped dataclass
    [2, 1], [2, [0], 1],                             # odd / unhashable dict
], ids=["no-fields", "too-few", "too-many", "nested", "enum-two",
        "enum-none", "enum-range", "enum-negative", "enum-true",
        "enum-name", "dataclass-as-enum", "dict-odd", "dict-list-key"])
def test_malformed_bodies_are_refused(wire):
    with pytest.raises(CodecError):
        codec.decode_value(wire)


def test_non_operation_payloads_are_refused():
    with pytest.raises(CodecError, match="not an operation"):
        codec.decode_operation(codec.encode_value("just a string"))
    with pytest.raises(CodecError, match="not an OperationResult"):
        codec.encode_result("not a result")
    with pytest.raises(CodecError, match="not a result"):
        codec.decode_result(codec.encode_value((1, 2)))


def test_unknown_version_is_rejected():
    frame = codec.encode_frame({"kind": "execute"})
    reader = FrameReader()
    reader.feed(frame)
    assert reader.next()["v"] == codec.PROTOCOL_VERSION

    bad = json.dumps({"v": 99, "kind": "execute"}).encode()
    reader.feed(len(bad).to_bytes(4, "big") + bad)
    with pytest.raises(UnsupportedVersionError):
        reader.next()
    unversioned = json.dumps({"kind": "execute"}).encode()
    reader.feed(len(unversioned).to_bytes(4, "big") + unversioned)
    with pytest.raises(UnsupportedVersionError):
        reader.next()


def test_version_stamp_fingerprints_the_schema():
    classes = [cls for __, cls in REGISTERED]
    assert codec.schema_version(classes) == codec.PROTOCOL_VERSION
    # A peer whose Q1Params declares the same fields in another order
    # would mis-assign every positional Q1 body: its stamp differs.
    fields = dataclasses.fields(codec.registered_types()["Q1Params"])
    reordered = dataclasses.make_dataclass(
        "Q1Params", [(f.name, f.type) for f in reversed(fields)])
    patched = [reordered if cls.__name__ == "Q1Params" else cls
               for cls in classes]
    foreign = codec.schema_version(patched)
    assert foreign != codec.PROTOCOL_VERSION
    assert foreign.startswith("2.")
    # ... and this codec refuses that peer's frames.
    body = json.dumps({"v": foreign, "kind": "execute", "id": 1,
                       "op": [class_index("ComplexRead"), 1,
                              [class_index("Q1Params"), "Mary", 17], 0]})
    reader = FrameReader()
    reader.feed(len(body).to_bytes(4, "big") + body.encode())
    with pytest.raises(UnsupportedVersionError):
        reader.next()


def test_version_stamp_is_stable_across_processes():
    # Derived with zlib, never hash(): a fresh interpreter with another
    # hash seed computes the same stamp.
    script = "from repro.net import codec; print(codec.PROTOCOL_VERSION)"
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == codec.PROTOCOL_VERSION


#: Frame bytes per op class as measured when the positional body
#: landed, rounded up to the next 16 B: envelope bloat fails here.
FRAME_BUDGET = {"Update": 192, "ComplexRead": 96, "ShortRead": 96}


def test_request_frames_stay_within_budget(split, curated_params,
                                           network):
    requests = {
        "Update": Update(split.updates[0]),
        "ComplexRead": ComplexRead(1, curated_params.by_query[1][0]),
        "ShortRead": ShortRead(1, EntityRef.person(network.persons[0].id)),
    }
    for name, op in requests.items():
        frame = codec.encode_frame({"kind": "execute", "id": 1,
                                    "op": codec.encode_operation(op)})
        assert len(frame) <= FRAME_BUDGET[name], \
            f"{name} request grew to {len(frame)} B: {frame!r}"


def test_truncated_frame_is_rejected():
    frame = codec.encode_frame({"kind": "execute", "id": 1})
    reader = FrameReader()
    reader.feed(frame[: len(frame) - 3])
    assert reader.next() is None  # incomplete: wait for more bytes
    with pytest.raises(TruncatedFrameError):
        reader.close()
    # A completed stream closes cleanly.
    whole = FrameReader()
    whole.feed(frame)
    assert whole.next() is not None
    whole.close()


def test_oversized_frame_is_rejected():
    reader = FrameReader()
    reader.feed((codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    with pytest.raises(FrameTooLargeError):
        reader.next()
    with pytest.raises(FrameTooLargeError):
        codec.encode_frame(
            {"blob": "x" * (codec.MAX_FRAME_BYTES + 1)})


def test_pipelined_frames_split_at_odd_boundaries():
    messages = [{"id": i, "kind": "execute"} for i in range(5)]
    stream = b"".join(codec.encode_frame(m) for m in messages)
    reader = FrameReader()
    out = []
    for index in range(0, len(stream), 7):  # drip 7 bytes at a time
        reader.feed(stream[index:index + 7])
        while (message := reader.next()) is not None:
            out.append(message["id"])
    reader.close()
    assert out == [0, 1, 2, 3, 4]
