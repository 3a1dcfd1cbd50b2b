"""A PERMIS-like Privilege Management Infrastructure (Section 5, Fig. 4).

Three sub-systems, as the paper describes: privilege allocation
(:class:`~repro.permis.pa.PrivilegeAllocator`), policy management
(:class:`~repro.permis.policy.PermisPolicyBuilder`), and the CVS/PDP
(:class:`~repro.permis.cvs.CredentialValidationService`,
:class:`~repro.permis.pdp.PermisPDP`).  The PDP reports its ``pdp.cvs`` /
``pdp.rbac`` / ``pdp.audit`` stages and ``permis.*`` counters to the one
:class:`~repro.obs.recorder.Recorder` passed as ``perf=``, which it
shares with its engine.  :func:`analyze_policy` is the static verifier
(:mod:`repro.verify.static`) over a PERMIS policy; ``Finding`` is its
:class:`~repro.verify.static.VerifyFinding`.
"""

from repro.permis.conditions import (
    AllOf,
    Always,
    AnyOf,
    Condition,
    EnvEquals,
    EnvOneOf,
    Negation,
    TimeWindow,
)
from repro.permis.credentials import (
    AttributeCredential,
    TrustStore,
    sign_credential,
    verify_signature,
)
from repro.permis.cvs import (
    CredentialValidationService,
    RejectedCredential,
    ValidationResult,
)
from repro.permis.directory import (
    SCOPE_BASE,
    SCOPE_ONE,
    SCOPE_SUBTREE,
    DirectoryEntry,
    LdapDirectory,
    dn_is_under,
    normalize_dn,
)
from repro.permis.pa import PrivilegeAllocator
from repro.permis.pdp import PermisPDP
from repro.permis.policy_store import (
    POLICY_ATTRIBUTE,
    SignedPolicy,
    load_policy,
    publish_policy,
    sign_policy_xml,
    verify_signed_policy,
)
from repro.permis.xml import (
    parse_permis_policy,
    write_permis_policy,
)
from repro.permis.policy import (
    PermisPolicy,
    PermisPolicyBuilder,
    RoleAssignmentRule,
    TargetAccessRule,
)
from repro.verify.static import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    VerifyFinding as Finding,
    analyze_policy,
)

__all__ = [
    "analyze_policy",
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "Condition",
    "Always",
    "AllOf",
    "AnyOf",
    "Negation",
    "EnvEquals",
    "EnvOneOf",
    "TimeWindow",
    "AttributeCredential",
    "TrustStore",
    "sign_credential",
    "verify_signature",
    "LdapDirectory",
    "DirectoryEntry",
    "normalize_dn",
    "dn_is_under",
    "SCOPE_BASE",
    "SCOPE_ONE",
    "SCOPE_SUBTREE",
    "PrivilegeAllocator",
    "CredentialValidationService",
    "ValidationResult",
    "RejectedCredential",
    "PermisPolicy",
    "PermisPolicyBuilder",
    "RoleAssignmentRule",
    "TargetAccessRule",
    "PermisPDP",
    "write_permis_policy",
    "parse_permis_policy",
    "SignedPolicy",
    "sign_policy_xml",
    "verify_signed_policy",
    "publish_policy",
    "load_policy",
    "POLICY_ATTRIBUTE",
]
