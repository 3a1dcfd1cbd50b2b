"""Explicit management of the retained ADI (paper Section 4.3).

For business contexts without a defined or implied last step the retained
ADI would grow without bound, degrading performance (the paper notes this
has performance, not security, implications).  Section 4.3 proposes a
*management port* on the PDP that treats the retained ADI itself as a
target resource protected by an RBAC policy: a role such as
``RetainedADIController`` is granted privileges like ``purge`` or
``remove record`` on the retained-ADI target.

:class:`RetainedADIManagementPort` implements exactly that: every
management call is itself an access-control decision against a small RBAC
policy before it touches the store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.constraints import Role
from repro.core.context import ContextName
from repro.core.retained_adi import (
    ADIMutation,
    RetainedADIRecord,
    RetainedADIStore,
)
from repro.errors import AdminError

#: The target URI under which the retained ADI is exposed for management.
RETAINED_ADI_TARGET = "pdp://management/retainedADI"

#: The role the paper suggests for retained-ADI administration.
CONTROLLER_ROLE = Role("permisRole", "RetainedADIController")

#: Management operations supported by the port.
OP_PURGE_CONTEXT = "purgeContext"
OP_PURGE_USER = "purgeUser"
OP_PURGE_OLDER_THAN = "purgeOlderThan"
OP_PURGE_ALL = "purgeAll"
OP_REMOVE_RECORD = "removeRecord"
OP_LIST_RECORDS = "listRecords"
OP_COUNT_RECORDS = "countRecords"

ALL_OPERATIONS = frozenset(
    {
        OP_PURGE_CONTEXT,
        OP_PURGE_USER,
        OP_PURGE_OLDER_THAN,
        OP_PURGE_ALL,
        OP_REMOVE_RECORD,
        OP_LIST_RECORDS,
        OP_COUNT_RECORDS,
    }
)

#: Read-only operations, useful for auditor-style roles.
READ_OPERATIONS = frozenset({OP_LIST_RECORDS, OP_COUNT_RECORDS})


@dataclass(frozen=True, slots=True)
class ManagementOutcome:
    """Result of a management-port call."""

    operation: str
    affected: int
    detail: str = ""


class RetainedADIManagementPort:
    """An RBAC-protected administrative interface over a retained-ADI store.

    Parameters
    ----------
    store:
        The retained-ADI store being managed.
    role_operations:
        The protecting RBAC policy: a mapping from role to the set of
        management operations that role may invoke.  Defaults to granting
        :data:`CONTROLLER_ROLE` every operation.
    """

    def __init__(
        self,
        store: RetainedADIStore,
        role_operations: Mapping[Role, frozenset[str]] | None = None,
    ) -> None:
        if role_operations is None:
            role_operations = {CONTROLLER_ROLE: ALL_OPERATIONS}
        for role, operations in role_operations.items():
            unknown = set(operations) - ALL_OPERATIONS
            if unknown:
                raise AdminError(
                    f"unknown management operations for {role}: {sorted(unknown)}"
                )
        self._store = store
        self._role_operations = {
            role: frozenset(operations)
            for role, operations in role_operations.items()
        }

    # ------------------------------------------------------------------
    def _authorize(self, roles: Iterable[Role], operation: str) -> None:
        """RBAC check: does any presented role grant the operation?"""
        if operation not in ALL_OPERATIONS:
            raise AdminError(f"unknown management operation {operation!r}")
        for role in roles:
            if operation in self._role_operations.get(role, frozenset()):
                return
        raise AdminError(
            f"no presented role is authorized for {operation!r} on "
            f"{RETAINED_ADI_TARGET}"
        )

    # ------------------------------------------------------------------
    def purge_context(
        self, roles: Iterable[Role], context: ContextName
    ) -> ManagementOutcome:
        """Administratively terminate a business context [instance]."""
        self._authorize(roles, OP_PURGE_CONTEXT)
        removed = self._store.purge_context(context)
        return ManagementOutcome(
            OP_PURGE_CONTEXT, removed, f"purged context [{context}]"
        )

    def purge_user(self, roles: Iterable[Role], user_id: str) -> ManagementOutcome:
        self._authorize(roles, OP_PURGE_USER)
        removed = self._store.purge_user(user_id)
        return ManagementOutcome(OP_PURGE_USER, removed, f"purged user {user_id!r}")

    def purge_older_than(
        self, roles: Iterable[Role], cutoff: float
    ) -> ManagementOutcome:
        self._authorize(roles, OP_PURGE_OLDER_THAN)
        removed = self._store.purge_older_than(cutoff)
        return ManagementOutcome(
            OP_PURGE_OLDER_THAN, removed, f"purged records older than {cutoff}"
        )

    def purge_all(self, roles: Iterable[Role]) -> ManagementOutcome:
        self._authorize(roles, OP_PURGE_ALL)
        removed = self._store.clear()
        return ManagementOutcome(OP_PURGE_ALL, removed, "purged all records")

    def remove_record(
        self, roles: Iterable[Role], record_id: int
    ) -> ManagementOutcome:
        """Remove one record by id, in one locked store apply.

        Every other record, its context-mates included, keeps its id, and
        a grant that commits concurrently is never caught by the removal.
        """
        self._authorize(roles, OP_REMOVE_RECORD)
        if not self._store.apply(ADIMutation(purge_record_ids=(record_id,))):
            return ManagementOutcome(OP_REMOVE_RECORD, 0, "record not found")
        return ManagementOutcome(OP_REMOVE_RECORD, 1, f"removed record {record_id}")

    def list_records(self, roles: Iterable[Role]) -> list[RetainedADIRecord]:
        self._authorize(roles, OP_LIST_RECORDS)
        return list(self._store.records())

    def count_records(self, roles: Iterable[Role]) -> int:
        self._authorize(roles, OP_COUNT_RECORDS)
        return self._store.count()

    # ------------------------------------------------------------------
    def scheduled_retention_sweep(
        self, roles: Iterable[Role], max_age_seconds: float, now: float | None = None
    ) -> ManagementOutcome:
        """Convenience: purge everything older than ``now - max_age``.

        Models the "management procedures delete the history information"
        escape hatch of Section 2.2.
        """
        if now is None:
            now = time.time()
        return self.purge_older_than(roles, now - max_age_seconds)
