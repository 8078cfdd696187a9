"""Wire protocol: client/server access to any system under test.

The paper's driver measures latency-under-load against a SUT running as
a network service, not an in-process library.  This package supplies
that boundary without changing anything above it:

* :mod:`repro.net.codec` — length-prefixed JSON frames whose bodies are
  positional (``[class index, *fields]``) over a sealed type registry
  covering every operation and result shape of the unified
  ``execute(op) -> OperationResult`` API, stamped with a version derived
  from that registry's schema;
* :mod:`repro.net.server` — a threaded socket server fronting any SUT:
  one thread per connection running each request where it reads it,
  backpressure (reject-with-retry-after when ``workers`` requests are
  already executing); exactly-once updates are the SUT's own;
* :mod:`repro.net.client` — :class:`RemoteConnector`, implementing the
  same connector protocol as the in-process SUTs (a pool of
  :mod:`repro.net.channel` channels, one per concurrent caller; timeout
  mapping onto the existing error taxonomy) so the scheduler,
  resilience layer, fault injector and the ``crosscheck``/``chaos``
  CLIs work unchanged over the wire.
"""

from .client import (
    RemoteConnector,
    RemoteFatalError,
    RemoteProtocolError,
    RemoteTransientError,
    ServerBusyError,
)
from .codec import (
    CodecError,
    FrameReader,
    FrameTooLargeError,
    PROTOCOL_VERSION,
    TruncatedFrameError,
    UnsupportedVersionError,
    decode_operation,
    decode_result,
    decode_value,
    encode_frame,
    encode_operation,
    encode_result,
    encode_value,
)
from .server import ReproServer, ServerConfig

__all__ = [
    "CodecError",
    "FrameReader",
    "FrameTooLargeError",
    "PROTOCOL_VERSION",
    "RemoteConnector",
    "RemoteFatalError",
    "RemoteProtocolError",
    "RemoteTransientError",
    "ReproServer",
    "ServerBusyError",
    "ServerConfig",
    "TruncatedFrameError",
    "UnsupportedVersionError",
    "decode_operation",
    "decode_result",
    "decode_value",
    "encode_frame",
    "encode_operation",
    "encode_result",
    "encode_value",
]
