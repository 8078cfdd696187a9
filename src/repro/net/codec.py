"""The versioned, length-prefixed JSON wire codec.

One frame = a 4-byte big-endian length prefix + UTF-8 JSON: an envelope
object (``kind``, ``id``, ...) stamped with the protocol version
``"v"``, carrying at most one positional body (an operation or a
result).  Any other version is refused without guessing at the shape.

Bodies are encoded over a **type registry** of every dataclass and enum
that may cross the wire (the operation union, Q1–Q14 params/results,
S1–S7 results, the entities in update payloads), sealed at import in
sorted-name order, which fixes each class's index.  Decoding rebuilds
the *exact* dataclass, so the random walk and the validation
canonicalizer behave identically on both sides.  Unregistered types
are refused at encode time, unknown tags, indices and field counts at
decode time: an allowlist, never an ``eval``.  Body forms::

    null / bool / number / string      as themselves
    list / tuple                       [0, *items] / [1, *items]
    dict                               [2, key, value, key, value, ...]
    Enum member                        [class index, member position]
    dataclass (EntityRef too)          [class index, *fields in order]

A body names no fields, so both peers must hold the same registry:
:data:`PROTOCOL_VERSION` is ``"2."`` + 16 bits of a CRC-32 of the sealed
schema (class names in index order, their field or member names), kept
short because every frame carries it.  A peer built from another schema
speaks another version and is refused.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from itertools import chain
import operator
import struct
import zlib

from ..core.operation import (
    ComplexRead, OperationResult, ShortRead, Update, as_operation,
)
from ..errors import ReproError

#: Hard upper bound on one frame; a length prefix beyond this is treated
#: as a corrupt or hostile stream, not a large message.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")
_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


class CodecError(ReproError):
    """The wire codec could not encode or decode a message."""


class UnsupportedVersionError(CodecError):
    """The message's protocol version is not one this codec speaks."""


class TruncatedFrameError(CodecError):
    """The byte stream ended in the middle of a frame."""


class FrameTooLargeError(CodecError):
    """A frame's length prefix exceeds :data:`MAX_FRAME_BYTES`."""


# ---------------------------------------------------------------------------
# type registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def registered_types() -> dict[str, type]:
    """A copy of the registry (tests assert coverage against this)."""
    return dict(_REGISTRY)


def _register_module(module) -> None:
    """Allowlist every dataclass and enum *defined in* a module."""
    for cls in vars(module).values():
        if not isinstance(cls, type) or cls.__module__ != module.__name__ \
                or not (dataclasses.is_dataclass(cls)
                        or issubclass(cls, enum.Enum)):
            continue
        existing = _REGISTRY.setdefault(cls.__name__, cls)
        if existing is not cls:
            raise CodecError(
                f"wire-type name collision: {cls.__name__} is both "
                f"{existing.__module__} and {cls.__module__}")


def _seal() -> str:
    """Register, index by sorted name, fill the tables, stamp the schema."""
    from ..core import operation as core_operation
    from ..datagen import update_stream
    from ..queries import short_reads
    from ..queries.complex_reads import (
        q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13, q14,
    )
    from ..schema import dataset, entities
    from ..workload import operations as workload_operations

    # dataset closes the registry under field types: SplitDataset (in
    # update_stream) embeds a SocialNetwork.
    for module in (core_operation, update_stream, short_reads,
                   q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12,
                   q13, q14, dataset, entities, workload_operations):
        _register_module(module)
    classes = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    for index, cls in enumerate(classes, start=_DICT + 1):
        codec = _enum_codec if issubclass(cls, enum.Enum) \
            else _dataclass_codec
        _ENCODERS[cls], _DECODERS[index] = codec(index, cls)
    return schema_version(classes)


def _shape(cls: type) -> tuple[str, ...]:
    """What a positional body relies on: field or member names."""
    parts = cls if issubclass(cls, enum.Enum) else dataclasses.fields(cls)
    return tuple(part.name for part in parts)


def schema_version(classes) -> str:
    """The protocol version of a registry sealed in this class order."""
    schema = ";".join(f"{cls.__name__}({','.join(_shape(cls))})"
                      for cls in classes)
    return f"2.{zlib.crc32(schema.encode('utf-8')) & 0xffff:04x}"


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------

_LIST, _TUPLE, _DICT = range(3)  # registered classes follow from 3
# Matched by exact type, so int/str-mixin enum members are not primitives.
_PRIMITIVES = frozenset({type(None), bool, int, float, str})


def encode_value(value):
    """Encode any registered value into its JSON-able wire form."""
    cls = type(value)
    if cls in _PRIMITIVES:
        return value
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        raise CodecError(f"unregistered wire type {cls.__name__}")
    return encoder(value)


def decode_value(value):
    """Decode a wire form back into the exact original value."""
    cls = type(value)
    if cls is not list:
        if cls in _PRIMITIVES:
            return value
        raise CodecError(f"un-decodable wire value {cls.__name__}")
    tag = value[0] if value else None
    decoder = _DECODERS.get(tag) if type(tag) is int else None
    if decoder is None:
        raise CodecError(f"unknown wire value tag {tag!r}")
    return decoder(value)


def _decode_dict(body: list) -> dict:
    if len(body) % 2 == 0:
        raise CodecError("dict body has a key without a value")
    items = map(decode_value, body[1:])
    try:
        return dict(zip(items, items))
    except TypeError as exc:  # an unhashable key
        raise CodecError(f"bad dict key: {exc}") from None


_ENCODERS = {
    list: lambda value: [_LIST, *map(encode_value, value)],
    tuple: lambda value: [_TUPLE, *map(encode_value, value)],
    dict: lambda value: [_DICT, *map(encode_value, chain.from_iterable(
        value.items()))],
}
_DECODERS = {
    _LIST: lambda body: list(map(decode_value, body[1:])),
    _TUPLE: lambda body: tuple(map(decode_value, body[1:])),
    _DICT: _decode_dict,
}


def _enum_codec(index: int, cls: type):
    members = tuple(cls)
    position = {member: at for at, member in enumerate(members)}

    def decode(body: list):
        at = body[1] if len(body) == 2 else None
        if type(at) is not int or not 0 <= at < len(members):
            raise CodecError(f"bad {cls.__name__} member {body[1:]!r}")
        return members[at]

    return lambda value: [index, position[value]], decode


def _dataclass_codec(index: int, cls: type):
    names = _shape(cls)
    arity = len(names)
    fields = operator.attrgetter(*names) if arity > 1 else \
        (lambda value: tuple(getattr(value, name) for name in names))

    def decode(body: list):
        if len(body) != arity + 1:
            raise CodecError(f"{cls.__name__} takes {arity} fields, "
                             f"not {len(body) - 1}")
        return cls(*map(decode_value, body[1:]))

    return lambda value: [index, *map(encode_value, fields(value))], decode


#: Version stamped into (and required of) every message envelope.
PROTOCOL_VERSION = _seal()


# ---------------------------------------------------------------------------
# operations and results
# ---------------------------------------------------------------------------

def _expect(value, kinds, what: str):
    if not isinstance(value, kinds):
        raise CodecError(f"{type(value).__name__} is not {what}")
    return value


def encode_operation(operation) -> list:
    """Canonical wire form of one operation (any legacy shape)."""
    return encode_value(as_operation(operation))


def decode_operation(encoded):
    """Decode a wire operation; reject anything outside the union."""
    return _expect(decode_value(encoded),
                   (ComplexRead, ShortRead, Update), "an operation")


def encode_result(result) -> list:
    """Canonical wire form of one :class:`OperationResult`."""
    return encode_value(_expect(result, OperationResult,
                                "an OperationResult"))


def decode_result(encoded):
    """Decode a wire result; reject anything else."""
    return _expect(decode_value(encoded), OperationResult, "a result")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_frame(message: dict) -> bytes:
    """One length-prefixed frame, stamped with this codec's version."""
    body = _dumps({**message, "v": PROTOCOL_VERSION}).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def check_version(message) -> dict:
    """Validate the envelope: a dict stamped with a known version."""
    if not isinstance(message, dict):
        raise CodecError("message envelope is not an object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersionError(
            f"unsupported protocol version {version!r} "
            f"(this codec speaks {PROTOCOL_VERSION})")
    return message


def _frame_length(header) -> int:
    (length,) = _HEADER.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame length prefix {length} exceeds {MAX_FRAME_BYTES}")
    return length


def _parse_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable frame body: {exc}")
    return check_version(message)


class FrameReader:
    """Incremental frame decoder (feed bytes, pop messages); the
    blocking socket path uses :func:`recv_message` instead."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next(self) -> dict | None:
        """The next complete message, or None if more bytes are needed."""
        if len(self._buffer) < _HEADER.size:
            return None
        end = _HEADER.size + _frame_length(self._buffer)
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_HEADER.size:end])
        del self._buffer[:end]
        return _parse_body(body)

    def close(self) -> None:
        """Declare end-of-stream; a partial frame is an error."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended with {len(self._buffer)} bytes of an "
                f"incomplete frame")


def _recv_exact(sock, count: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary."""
    chunks, remaining = [], count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == count:
                return None
            raise TruncatedFrameError(
                f"stream ended {remaining} bytes short of a "
                f"{count}-byte read")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock) -> dict | None:
    """Read one framed message off a blocking socket (None on EOF)."""
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    return _parse_body(
        _recv_exact(sock, _frame_length(header), at_boundary=False))


def send_message(sock, message: dict) -> None:
    """Frame and write one message to a blocking socket."""
    sock.sendall(encode_frame(message))
