"""The paper's primary contribution: MSoD policies and their enforcement.

Public surface:

* :class:`~repro.core.context.ContextName` — hierarchical business
  contexts with ``*`` / ``!`` wildcards (Section 2.2).
* :class:`~repro.core.constraints.MMER` /
  :class:`~repro.core.constraints.MMEP` — multi-session mutually
  exclusive roles/privileges (Sections 2.3-2.4).
* :class:`~repro.core.policy.MSoDPolicy` /
  :class:`~repro.core.policy.MSoDPolicySet` — the policy model
  (Section 3).
* :class:`~repro.core.retained_adi.InMemoryRetainedADIStore` /
  :class:`~repro.core.retained_adi.SQLiteRetainedADIStore` /
  :class:`~repro.core.tiered.TieredADIStore` — retained-ADI backends
  (Sections 4.1, 5.2, 6; tiering in ``docs/SCALE.md``).
* :class:`~repro.core.engine.MSoDEngine` — the Section 4.2 enforcement
  algorithm.
* :class:`~repro.core.admin.RetainedADIManagementPort` — the Section 4.3
  management port.
"""

from repro.core.admin import (
    CONTROLLER_ROLE,
    RETAINED_ADI_TARGET,
    ManagementOutcome,
    RetainedADIManagementPort,
)
from repro.core.constraints import (
    CONSTRAINT_KINDS,
    MMCD,
    MMEP,
    MMER,
    POLICY_EXPORT_PRIVILEGE,
    POLICY_RELOAD_PRIVILEGE,
    POLICY_STORE_TARGET,
    AdminBoundary,
    ConstraintVerdict,
    MultiSessionConstraint,
    Privilege,
    Role,
    policy_store_boundary,
    register_constraint_kind,
)
from repro.core.context import (
    ALL_INSTANCES,
    PER_INSTANCE,
    ContextComponent,
    ContextHierarchy,
    ContextName,
    common_supercontext,
)
from repro.core.decision import (
    Decision,
    DecisionRequest,
    Effect,
    MSoDViolation,
    next_request_id,
)
from repro.core.engine import MODE_LITERAL, MODE_STRICT, MSoDEngine
from repro.core.explain import Explanation, TraceLine, explain
from repro.core.policy import MSoDPolicy, MSoDPolicySet, Step
from repro.core.policy_epoch import (
    INITIAL_EPOCH,
    CompiledPolicyMatcher,
    PolicySwapReport,
    PolicyVersion,
    policy_set_digest,
)
from repro.core.retained_adi import (
    ADIApplyOutcome,
    ADIMutation,
    InMemoryRetainedADIStore,
    RetainedADIRecord,
    RetainedADIStore,
    SQLiteRetainedADIStore,
    store_digest,
)
from repro.core.tiered import TieredADIStore

__all__ = [
    "ALL_INSTANCES",
    "PER_INSTANCE",
    "ContextComponent",
    "ContextHierarchy",
    "ContextName",
    "common_supercontext",
    "Role",
    "Privilege",
    "MMER",
    "MMEP",
    "MMCD",
    "AdminBoundary",
    "MultiSessionConstraint",
    "ConstraintVerdict",
    "CONSTRAINT_KINDS",
    "register_constraint_kind",
    "POLICY_STORE_TARGET",
    "POLICY_RELOAD_PRIVILEGE",
    "POLICY_EXPORT_PRIVILEGE",
    "policy_store_boundary",
    "MSoDPolicy",
    "MSoDPolicySet",
    "Step",
    "INITIAL_EPOCH",
    "CompiledPolicyMatcher",
    "PolicySwapReport",
    "PolicyVersion",
    "policy_set_digest",
    "RetainedADIRecord",
    "RetainedADIStore",
    "InMemoryRetainedADIStore",
    "SQLiteRetainedADIStore",
    "TieredADIStore",
    "ADIApplyOutcome",
    "ADIMutation",
    "store_digest",
    "Decision",
    "DecisionRequest",
    "Effect",
    "MSoDViolation",
    "next_request_id",
    "MSoDEngine",
    "explain",
    "Explanation",
    "TraceLine",
    "MODE_STRICT",
    "MODE_LITERAL",
    "RetainedADIManagementPort",
    "ManagementOutcome",
    "CONTROLLER_ROLE",
    "RETAINED_ADI_TARGET",
]
