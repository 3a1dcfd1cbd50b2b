"""Exception hierarchy for the MSoD reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ContextNameError(ReproError):
    """A business-context name is syntactically or semantically invalid."""


class ConstraintError(ReproError):
    """An MMER/MMEP constraint definition is invalid."""


class PolicyError(ReproError):
    """An MSoD (or RBAC) policy definition is invalid."""


class PolicyParseError(PolicyError):
    """An XML policy document could not be parsed or failed validation."""


class RBACError(ReproError):
    """Base class for errors raised by the ANSI RBAC substrate."""


class UnknownEntityError(RBACError):
    """A referenced user, role, operation, object or session is unknown."""


class DuplicateEntityError(RBACError):
    """An entity with the same identifier already exists."""


class ConstraintViolationError(RBACError):
    """An administrative command would violate an SSD/DSD constraint."""


class SessionError(RBACError):
    """An illegal session operation (e.g. activating an unassigned role)."""


class StoreError(ReproError):
    """A retained-ADI store failed (I/O, closed handle, corruption...)."""


class StoreSpecError(PolicyError):
    """A store spec string is malformed or names an unknown backend.

    Subclasses :class:`PolicyError` because every construction entry
    point (``open_pdp``, ``open_server``, the CLI) historically raised
    ``PolicyError`` for bad specs; existing handlers keep working while
    new callers can catch the precise class.
    """


class RecordFormatError(ReproError):
    """A retained-ADI record read back from its dict form is invalid
    (e.g. a non-finite ``granted_at``, which no store may hold)."""


class CredentialError(ReproError):
    """A credential is malformed, untrusted, expired or tampered with."""


class AuditTrailError(ReproError):
    """An audit trail is corrupt, unverifiable or cannot be written."""


class WorkflowError(ReproError):
    """An illegal workflow operation (bad routing, repeated task...)."""


class DirectoryError(ReproError):
    """An LDAP-like directory operation failed (unknown DN, bad filter)."""


class AdminError(ReproError):
    """A retained-ADI management-port operation was rejected."""


class ProtocolError(ReproError):
    """A serving wire frame is malformed, oversized or mis-versioned."""


class PDPUnavailableError(ReproError):
    """A remote PDP could not be reached or failed mid-exchange.

    Applications consulting a :class:`~repro.client.RemotePDP` through a
    :class:`~repro.framework.PolicyEnforcementPoint` see this typed error
    instead of raw socket exceptions, so "the PDP is down" is
    distinguishable from "the request was denied".
    """


class PDPConnectError(PDPUnavailableError):
    """The remote PDP could not be reached at all.

    Raised when establishing the connection fails, *before* any frame
    is written.  Nothing reached the server, so retrying the request —
    including a ``decide`` — is always safe; contrast the base
    :class:`PDPUnavailableError`, which after a send may mean the
    request is still queued or evaluating on the server.
    """


class PDPOverloadedError(PDPUnavailableError):
    """The remote PDP shed the request under admission control.

    Carries the server's ``retry_after`` hint (seconds); the request was
    rejected *before* entering a shard queue, so retrying it is safe.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class PDPFencedError(PDPUnavailableError):
    """A cluster node rejected the frame's epoch as stale.

    The client's routing table predates a failover: the shard has a new
    primary with a higher epoch.  The request was *not* evaluated; the
    caller must refresh its route and retry against the new primary.
    """


class PDPNotPrimaryError(PDPUnavailableError):
    """The addressed cluster node is not the primary for this user.

    Standbys (and deposed primaries) refuse decides outright so a
    client with a stale routing table can never split one user's
    retained-ADI history across two nodes.  Refresh the route and
    retry.
    """


class ClusterError(ReproError):
    """A cluster management operation failed (bad topology, no standby
    to promote, duplicate node names...)."""


class RequestFencedError(ClusterError):
    """A node's audit sink refused to record an in-flight decision.

    Raised when the decision's user was fenced (demotion, or a reshard
    cutover moving the user to another shard) *after* the decide gate
    admitted the request but *before* the sink appended it.  The
    decision was never acknowledged and never entered the trail, so the
    server maps this to the wire's ``fenced`` error and the client can
    safely re-route and resend the same ``request_id``.
    """
