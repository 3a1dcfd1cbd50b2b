"""repro.server — the networked MSoD authorization service.

The paper deploys MSoD enforcement as a PERMIS PDP *service* that
applications consult over a network (Section 5); this package is that
deployment shape for the reproduction:

* :mod:`repro.server.protocol` — the versioned wire formats (v1 JSON
  lines, v2 length-prefixed frames).
* :class:`~repro.server.service.AuthorizationService` — the sharded,
  batching, admission-controlled core (transport-independent).
* :class:`~repro.server.frames.FrameServer` — the one connection loop
  (codec per protocol version, op table per endpoint).
* :class:`~repro.server.app.MSoDServer` — the asyncio TCP front end:
  that loop plus the service's two op tables.
* :class:`~repro.server.testing.ServerThread` — a background-thread
  harness for tests, benchmarks and smoke checks.

See ``docs/SERVING.md`` for the architecture, the sharding invariant
and the overload semantics.
"""

from repro.server.app import MSoDServer
from repro.server.service import (
    AuthorizationService,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ShardStats,
    shard_of,
)
from repro.server.testing import ServerThread

__all__ = [
    "AuthorizationService",
    "MSoDServer",
    "ServerThread",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "ShardStats",
    "shard_of",
]
