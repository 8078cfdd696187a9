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


def test_entity_ref_as_json_roundtrip():
    ref = EntityRef.message(123)
    wire = codec.encode_value(ref)
    assert wire == {"__k": "ref", "v": ref.as_json()}
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


def test_unknown_tags_and_types_are_refused():
    with pytest.raises(CodecError, match="unknown wire value tag"):
        codec.decode_value({"__k": "exec", "v": "os.system"})
    with pytest.raises(CodecError, match="unknown wire dataclass"):
        codec.decode_value({"__k": "dc", "t": "Subprocess", "v": {}})
    with pytest.raises(CodecError, match="unknown wire enum"):
        codec.decode_value({"__k": "enum", "t": "Nope", "v": "X"})
    with pytest.raises(CodecError, match="bad field set"):
        codec.decode_value({"__k": "dc", "t": "Q1Params",
                            "v": {"bogus": 1}})


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
