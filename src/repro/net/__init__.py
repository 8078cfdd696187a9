"""Wire protocol: client/server access to any system under test.

The paper's driver measures latency-under-load against a SUT running as
a network service, not an in-process library.  This package supplies
that boundary without changing anything above it:

* :mod:`repro.net.codec` — length-prefixed JSON frames whose bodies are
  positional (``[class index, *fields]``) over a sealed type registry
  covering every operation and result shape of the unified
  ``execute(op) -> OperationResult`` API, stamped with a version derived
  from that registry's schema;
* :mod:`repro.net.admission` — pre-flight cost estimation reusing the
  engine's cardinality estimator, so runaway traversals are refused
  before execution;
* :mod:`repro.net.server` — a threaded socket server fronting any SUT:
  one thread per connection running each request where it reads it,
  backpressure (reject-with-retry-after when ``workers`` requests are
  already executing), and exactly-once update application keyed on
  client-supplied operation tokens;
* :mod:`repro.net.client` — :class:`RemoteConnector`, implementing the
  same connector protocol as the in-process SUTs (a pool of
  :mod:`repro.net.channel` channels, one per concurrent caller; timeout
  mapping onto the existing error taxonomy) so the scheduler,
  resilience layer, fault injector and the ``crosscheck``/``chaos``
  CLIs work unchanged over the wire.
"""

from .admission import Admission, AdmissionController
from .client import (
    AdmissionRejectedError,
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
    "Admission",
    "AdmissionController",
    "AdmissionRejectedError",
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
