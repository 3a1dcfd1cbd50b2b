"""Command-line interface: ``python -m repro <command>``.

The CLI drives the MSoD engine against an on-disk SQLite retained ADI,
so *separate invocations are separate user sessions* — exactly the
setting the paper targets.  A denied second invocation demonstrates
multi-session SoD from a shell:

.. code-block:: console

   $ python -m repro decide policy.xml --adi adi.db --user alice \\
         --role employee:Teller --operation handleCash \\
         --target till://1 --context "Branch=York, Period=2006"
   GRANT ...
   $ python -m repro decide policy.xml --adi adi.db --user alice \\
         --role employee:Auditor --operation auditBooks \\
         --target ledger://1 --context "Branch=Leeds, Period=2006"
   DENY ...

Commands: ``validate``, ``show``, ``compile``, ``decompile``, ``lint``,
``decide``, ``explain``, ``history``, ``purge``, ``serve``,
``remote-decide``, ``remote-status``, ``metrics``.

``serve`` turns the same policy + SQLite retained ADI into a networked
authorization service (the paper's Section 5 deployment shape);
``remote-decide`` is the PEP side of that wire, ``remote-status``
snapshots the server's health/metrics, and ``metrics`` scrapes the
Prometheus text exposition (point a Prometheus scrape job at it, or
eyeball it in a terminal).

Construction goes through :func:`repro.api.open_pdp`, so the CLI, the
tests and the benchmarks all build their PDPs the same way.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from typing import Sequence

from repro.core import (
    CONTROLLER_ROLE,
    ContextName,
    DecisionRequest,
    MSoDEngine,
    RetainedADIManagementPort,
    Role,
)
from repro.errors import ReproError, StoreSpecError
from repro.xmlpolicy import (
    parse_policy_set_file,
    validate_policy_document,
)


def _add_store_arguments(cmd: argparse.ArgumentParser) -> None:
    """The store pair every ADI-touching command takes: one is required.

    ``--adi <path>`` stays as the historical shorthand for
    ``--store sqlite:<path>``; ``--store`` takes the full unified spec
    grammar (see :func:`repro.api.parse_store_spec`) and wins when both
    are given.
    """
    cmd.add_argument(
        "--adi",
        help="SQLite retained-ADI path (shorthand for --store sqlite:<path>)",
    )
    cmd.add_argument(
        "--store",
        help="retained-ADI store spec: memory, sqlite:<path>, or "
        "tiered:<warm-spec>?hot_users=N[&shards=M] (overrides --adi)",
    )


def _store_spec(args: argparse.Namespace) -> str:
    if getattr(args, "store", None):
        return args.store
    if getattr(args, "adi", None):
        return f"sqlite:{args.adi}"
    raise StoreSpecError("one of --adi or --store is required")


def _open_store(args: argparse.Namespace):
    """Build the command's store through the unified spec parser."""
    from repro.storespec import build_store, parse_store_spec

    store, _ = build_store(parse_store_spec(_store_spec(args)))
    return store


def _parse_role(text: str) -> Role:
    role_type, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"role {text!r} must be of the form type:value"
        )
    return Role(role_type, value)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-session Separation of Duties (MSoD) for RBAC",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate an MSoD policy XML document"
    )
    validate.add_argument("policy", help="path to the policy XML file")

    show = commands.add_parser("show", help="summarise an MSoD policy set")
    show.add_argument("policy", help="path to the policy XML file")

    decide = commands.add_parser(
        "decide", help="evaluate one access request (one 'session')"
    )
    decide.add_argument("policy", help="path to the policy XML file")
    _add_store_arguments(decide)
    decide.add_argument("--user", required=True, help="user ID")
    decide.add_argument(
        "--role",
        action="append",
        required=True,
        type=_parse_role,
        help="activated role as type:value (repeatable)",
    )
    decide.add_argument("--operation", required=True)
    decide.add_argument("--target", required=True)
    decide.add_argument(
        "--context", required=True, help='business-context instance, e.g. "A=1, B=2"'
    )
    decide.add_argument(
        "--literal",
        action="store_true",
        help="use the literal published step order instead of strict mode",
    )
    decide.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage decision trace after the verdict",
    )
    decide.add_argument(
        "--explain",
        action="store_true",
        help="narrate the evaluation (all constraint kinds) after the "
        "verdict, like `explain` but for the decision just taken",
    )

    compile_cmd = commands.add_parser(
        "compile", help="compile the authoring DSL to Appendix-A XML"
    )
    compile_cmd.add_argument("source", help="path to a .msod DSL file")
    compile_cmd.add_argument(
        "-o", "--output", help="output XML path (default: stdout)"
    )

    decompile_cmd = commands.add_parser(
        "decompile", help="render an XML policy set as authoring DSL"
    )
    decompile_cmd.add_argument("policy", help="path to the policy XML file")

    lint = commands.add_parser(
        "lint",
        help="statically analyse a PERMIS XML policy and its MSoD component",
    )
    lint.add_argument("policy", help="path to a PermisRBACPolicy XML file")

    verify_cmd = commands.add_parser(
        "verify",
        help="statically verify an MSoD policy set (stage 1 of the "
        "rollout pipeline); exit 1 on error-severity findings",
    )
    verify_cmd.add_argument(
        "policy", help="path to the policy XML (or .msod DSL) file"
    )
    verify_cmd.add_argument(
        "--permis",
        help="companion PermisRBACPolicy XML enabling the RBAC-layer "
        "reachability checks (assignable roles, grantable privileges)",
    )
    verify_cmd.add_argument(
        "--host",
        default=None,
        help="verify on a running `serve` instance (its engine parses "
        "the candidate) instead of locally",
    )
    verify_cmd.add_argument("--port", type=int, default=8750)
    verify_cmd.add_argument("--timeout", type=float, default=5.0)
    verify_cmd.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    whatif_cmd = commands.add_parser(
        "whatif",
        help="differentially replay a recorded audit trail under a "
        "candidate policy set (stage 2); exit 1 when more decisions "
        "flip than --max-flips allows",
    )
    whatif_cmd.add_argument(
        "policy", help="path to the candidate policy XML (or .msod DSL) file"
    )
    whatif_cmd.add_argument(
        "--audit-dir", help="recorded audit-trail directory to replay"
    )
    whatif_cmd.add_argument(
        "--audit-key",
        default="audit-trail-key",
        help="HMAC key sealing the audit trails",
    )
    whatif_cmd.add_argument(
        "--last-n-trails",
        type=int,
        default=None,
        help="replay only the newest N trail files",
    )
    whatif_cmd.add_argument(
        "--since",
        type=float,
        default=0.0,
        help="replay only events at or after this timestamp",
    )
    whatif_cmd.add_argument(
        "--max-flips",
        type=int,
        default=0,
        help="tolerated flipped decisions before exiting 1 (default 0)",
    )
    whatif_cmd.add_argument(
        "--host",
        default=None,
        help="replay on a running `serve` instance against its own "
        "recent trail instead of --audit-dir",
    )
    whatif_cmd.add_argument("--port", type=int, default=8750)
    whatif_cmd.add_argument("--timeout", type=float, default=5.0)
    whatif_cmd.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    explain_cmd = commands.add_parser(
        "explain",
        help="dry-run a request and narrate the §4.2 evaluation "
        "(never modifies the retained ADI)",
    )
    explain_cmd.add_argument("policy", help="path to the policy XML file")
    _add_store_arguments(explain_cmd)
    explain_cmd.add_argument("--user", required=True)
    explain_cmd.add_argument(
        "--role", action="append", required=True, type=_parse_role
    )
    explain_cmd.add_argument("--operation", required=True)
    explain_cmd.add_argument("--target", required=True)
    explain_cmd.add_argument("--context", required=True)

    history = commands.add_parser(
        "history", help="list the retained-ADI records"
    )
    _add_store_arguments(history)

    purge = commands.add_parser(
        "purge", help="administratively purge retained-ADI records (§4.3)"
    )
    _add_store_arguments(purge)
    group = purge.add_mutually_exclusive_group(required=True)
    group.add_argument("--context", help="purge a business context [instance]")
    group.add_argument("--user", help="purge one user's records")
    group.add_argument(
        "--older-than", type=float, help="purge records granted before this time"
    )
    group.add_argument("--all", action="store_true", help="purge everything")

    serve = commands.add_parser(
        "serve",
        help="run the sharded MSoD authorization service (JSON-lines TCP)",
    )
    serve.add_argument("policy", help="path to the policy XML file")
    _add_store_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument(
        "--shards", type=int, default=4, help="per-user worker queues"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="bound of each shard queue (overload sheds beyond it)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=32,
        help="cap on one worker micro-batch (one SQLite transaction)",
    )
    serve.add_argument(
        "--gather-window",
        type=float,
        default=None,
        help="micro-batch gather window in seconds (default: adaptive, "
        "scaled to the shard count)",
    )
    serve.add_argument(
        "--literal",
        action="store_true",
        help="use the literal published step order instead of strict mode",
    )
    serve.add_argument(
        "--relaxed",
        action="store_true",
        help="allow policies mixing MMER and MMEP constraints "
        "(relaxes the Appendix-A xs:choice)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="trace every decision and keep a slow-decision log "
        "(queryable via the slowlog verb / remote-status --slowlog)",
    )
    serve.add_argument(
        "--slowlog-size",
        type=int,
        default=32,
        help="how many slowest traces to retain (with --trace)",
    )
    _audit_flags(serve)

    def _remote_address(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument("--port", type=int, default=8750)
        cmd.add_argument("--timeout", type=float, default=5.0)
        cmd.add_argument(
            "--protocol",
            choices=("auto", "v1", "v2"),
            default="auto",
            help="decide wire protocol: negotiate pipelined binary v2 "
            "(auto, the default) or pin v1/v2",
        )

    remote_decide = commands.add_parser(
        "remote-decide",
        help="evaluate one access request against a running `serve` instance",
    )
    _remote_address(remote_decide)
    remote_decide.add_argument("--user", required=True)
    remote_decide.add_argument(
        "--role", action="append", required=True, type=_parse_role
    )
    remote_decide.add_argument("--operation", required=True)
    remote_decide.add_argument("--target", required=True)
    remote_decide.add_argument("--context", required=True)

    remote_status = commands.add_parser(
        "remote-status",
        help="print a running server's health (or --metrics) snapshot",
    )
    _remote_address(remote_status)
    status_kind = remote_status.add_mutually_exclusive_group()
    status_kind.add_argument(
        "--metrics",
        action="store_true",
        help="full perf/shard metrics instead of the health summary",
    )
    status_kind.add_argument(
        "--slowlog",
        action="store_true",
        help="the server's slowest retained decision traces",
    )

    metrics_cmd = commands.add_parser(
        "metrics",
        help="scrape a running server's Prometheus text exposition",
    )
    _remote_address(metrics_cmd)

    policy_cmd = commands.add_parser(
        "policy",
        help="live policy management against a running `serve` instance",
    )
    policy_cmds = policy_cmd.add_subparsers(
        dest="policy_command", required=True
    )
    pstatus = policy_cmds.add_parser(
        "status",
        help="print the server's active policy version and reload count",
    )
    _remote_address(pstatus)
    preload = policy_cmds.add_parser(
        "reload",
        help="hot-swap the server's policy set from an XML file, zero "
        "downtime (reloading an identical set is a detected no-op)",
    )
    preload.add_argument("policy", help="path to the new policy XML file")
    _remote_address(preload)
    _verify_flags(preload)
    preload.add_argument(
        "--principal",
        default=None,
        help="acting operator: the outgoing set's admin boundaries may "
        "refuse a principal with retained operational decisions",
    )

    cluster = commands.add_parser(
        "cluster",
        help="multi-node MSoD cluster: serve, nodes, status, smoke test",
    )
    cluster_cmds = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = cluster_cmds.add_parser(
        "serve",
        help="boot an N-shard cluster (primary+standby each) plus the "
        "routing coordinator, in one process",
    )
    cserve.add_argument("policy", help="path to the policy XML file")
    cserve.add_argument(
        "--data-dir",
        required=True,
        help="directory for every node's audit trails (and sqlite stores)",
    )
    cserve.add_argument("--host", default="127.0.0.1")
    cserve.add_argument(
        "--port", type=int, default=8760, help="coordinator port"
    )
    cserve.add_argument(
        "--cluster-shards", type=int, default=2, help="number of shards"
    )
    cserve.add_argument(
        "--store",
        default="sqlite",
        help="per-node retained-ADI store spec: memory, sqlite (one file "
        "per node under --data-dir) or tiered:sqlite?hot_users=N",
    )
    _audit_flags(cserve, fsync_default=True)

    cnode = cluster_cmds.add_parser(
        "node",
        help="run one standalone cluster node (the multi-process bench's "
        "building block)",
    )
    cnode.add_argument("policy", help="path to the policy XML file")
    cnode.add_argument("--name", required=True, help="node name")
    cnode.add_argument("--shard", required=True, help="owning shard name")
    cnode.add_argument(
        "--role", choices=("primary", "standby"), default="primary"
    )
    cnode.add_argument("--epoch", type=int, default=1)
    cnode.add_argument("--host", default="127.0.0.1")
    cnode.add_argument("--port", type=int, default=0)
    cnode.add_argument(
        "--adi",
        help="SQLite retained-ADI path (default: in-memory store; "
        "shorthand for --store sqlite:<path>)",
    )
    cnode.add_argument(
        "--store",
        help="retained-ADI store spec (overrides --adi)",
    )
    cnode.add_argument(
        "--audit-dir", required=True, help="this node's trail directory"
    )
    cnode.add_argument("--audit-key", default="cluster-trail-key")
    cnode.add_argument("--audit-max-records", type=int, default=10_000)
    cnode.add_argument("--audit-max-bytes", type=int, default=None)
    cnode.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-append fsync (benchmarking only; loses the "
        "acknowledged-implies-durable guarantee)",
    )

    def _coordinator_address(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument(
            "--port", type=int, default=8760, help="coordinator port"
        )
        cmd.add_argument("--timeout", type=float, default=5.0)
        cmd.add_argument(
            "--protocol",
            choices=("auto", "v1", "v2"),
            default="auto",
            help="per-node decide wire protocol (auto negotiates "
            "pipelined binary v2 with v1 fallback)",
        )

    cstatus = cluster_cmds.add_parser(
        "status", help="print the coordinator's cluster-status body"
    )
    _coordinator_address(cstatus)

    croute = cluster_cmds.add_parser(
        "route", help="print the current routing table"
    )
    _coordinator_address(croute)

    cmetrics = cluster_cmds.add_parser(
        "metrics",
        help="scrape the coordinator's Prometheus exposition "
        "(per-node up/primary/epoch gauges)",
    )
    _coordinator_address(cmetrics)

    creload = cluster_cmds.add_parser(
        "reload",
        help="roll a new policy XML across every cluster node, standby "
        "first, via the coordinator",
    )
    creload.add_argument("policy", help="path to the new policy XML file")
    _coordinator_address(creload)
    _verify_flags(creload)
    creload.add_argument(
        "--canary",
        action="store_true",
        help="stage the candidate on one shard's standby and mirror "
        "that shard's live decide stream through both sets before the "
        "coordinator-wide rollout",
    )
    creload.add_argument(
        "--principal",
        default=None,
        help="acting operator: every live node's admin boundaries are "
        "checked before any node swaps",
    )

    cresize = cluster_cmds.add_parser(
        "resize",
        help="online topology changes: add-node (split), drain, "
        "rebalance, status — all under live load",
    )
    resize_cmds = cresize.add_subparsers(
        dest="resize_command", required=True
    )
    radd = resize_cmds.add_parser(
        "add-node",
        help="grow by one shard: boot a primary+standby pair and "
        "migrate its hash-ring range onto it without downtime",
    )
    rdrain = resize_cmds.add_parser(
        "drain",
        help="shrink by one shard: migrate its users to the survivors, "
        "then retire its nodes (trails kept as sealed lineages)",
    )
    rdrain.add_argument("shard", help="name of the shard to retire")
    rrebalance = resize_cmds.add_parser(
        "rebalance",
        help="report per-shard resident-user imbalance from the store "
        "gauges; --apply starts a split when recommended",
    )
    rrebalance.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="hottest-shard/mean ratio at which a split is recommended",
    )
    rrebalance.add_argument(
        "--apply",
        action="store_true",
        help="start the recommended split instead of only reporting",
    )
    rstatus = resize_cmds.add_parser(
        "status",
        help="print the active migration (phase, users moved, events "
        "imported) and migration history counters",
    )
    for rcmd in (radd, rdrain, rrebalance, rstatus):
        _coordinator_address(rcmd)
    for rcmd in (radd, rdrain, rrebalance):
        rcmd.add_argument(
            "--wait",
            action="store_true",
            help="poll until the started migration completes",
        )
        rcmd.add_argument(
            "--wait-timeout",
            type=float,
            default=120.0,
            help="seconds to poll with --wait before giving up",
        )

    cdecide = cluster_cmds.add_parser(
        "decide",
        help="evaluate one request through the routing cluster client",
    )
    _coordinator_address(cdecide)
    cdecide.add_argument("--user", required=True)
    cdecide.add_argument(
        "--role", action="append", required=True, type=_parse_role
    )
    cdecide.add_argument("--operation", required=True)
    cdecide.add_argument("--target", required=True)
    cdecide.add_argument("--context", required=True)

    csmoke = cluster_cmds.add_parser(
        "smoke",
        help="boot a cluster, run the hot-user workload, kill a primary "
        "mid-stream, assert failover correctness (the CI job)",
    )
    csmoke.add_argument(
        "--cluster-shards", type=int, default=3, help="number of shards"
    )
    csmoke.add_argument(
        "--requests", type=int, default=300, help="workload decisions"
    )
    csmoke.add_argument(
        "--store",
        default="sqlite",
        help="per-node store spec (memory, sqlite, tiered:sqlite?...)",
    )
    csmoke.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    csmoke.add_argument(
        "--resize",
        action="store_true",
        help="run the elastic-resize fault-injection smoke instead: "
        "2→3 split and 3→2 drain under live load, with the "
        "coordinator killed and a source primary killed mid-migration",
    )
    return parser


def _verify_flags(cmd: argparse.ArgumentParser) -> None:
    """Rollout-gate flags shared by ``policy reload`` and ``cluster reload``."""
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="gate the swap on static analysis plus a what-if replay of "
        "the server's recent audit trail; refuse on error findings or "
        "flips over --max-flips",
    )
    cmd.add_argument(
        "--max-flips",
        type=int,
        default=0,
        help="with --verify: tolerated flipped decisions (default 0)",
    )
    cmd.add_argument(
        "--force",
        action="store_true",
        help="apply even if the verification gate or the policy "
        "analyzer refuses the candidate",
    )


def _audit_flags(
    cmd: argparse.ArgumentParser, fsync_default: bool = False
) -> None:
    """Audit-trail flags shared by ``serve`` and ``cluster serve``."""
    if fsync_default:
        cmd.add_argument(
            "--no-fsync",
            action="store_true",
            help="skip per-append fsync (benchmarking only; loses the "
            "acknowledged-implies-durable guarantee)",
        )
    else:
        cmd.add_argument(
            "--audit-dir",
            help="append every decision to a secure audit trail here",
        )
        cmd.add_argument(
            "--audit-fsync",
            action="store_true",
            help="fsync each audit append before acknowledging",
        )
    cmd.add_argument(
        "--audit-key",
        default="cluster-trail-key" if fsync_default else "audit-trail-key",
        help="HMAC key sealing the audit trails",
    )
    cmd.add_argument(
        "--audit-max-records",
        type=int,
        default=10_000,
        help="rotate the active trail after this many records",
    )
    cmd.add_argument(
        "--audit-max-bytes",
        type=int,
        default=None,
        help="also rotate once the active trail reaches this many bytes",
    )


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate an MSoD XML document; exit 1 on problems."""
    with open(args.policy, "r", encoding="utf-8") as handle:
        problems = validate_policy_document(handle.read())
    if not problems:
        print("policy document is valid")
        return 0
    for problem in problems:
        print(f"problem: {problem}")
    return 1


def cmd_show(args: argparse.Namespace) -> int:
    """Print a human-readable summary of an MSoD policy set."""
    policy_set = parse_policy_set_file(args.policy)
    print(f"{len(policy_set)} MSoD polic{'y' if len(policy_set) == 1 else 'ies'}")
    for policy in policy_set:
        print(f"\n[{policy.policy_id}]")
        print(f"  business context: {policy.business_context}")
        if policy.first_step is not None:
            print(f"  first step: {policy.first_step}")
        if policy.last_step is not None:
            print(f"  last step:  {policy.last_step}")
        for mmer in policy.mmers:
            roles = ", ".join(str(role) for role in mmer.roles)
            print(f"  MMER m={mmer.forbidden_cardinality}: {{{roles}}}")
        for mmep in policy.mmeps:
            privileges = ", ".join(str(priv) for priv in mmep.privileges)
            print(f"  MMEP m={mmep.forbidden_cardinality}: {{{privileges}}}")
        for constraint in policy.extra_constraints:
            print(f"  {constraint!r}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile authoring-DSL text to Appendix-A XML."""
    from repro.xmlpolicy import compile_policy_set, write_policy_set

    with open(args.source, "r", encoding="utf-8") as handle:
        policy_set = compile_policy_set(handle.read())
    xml = write_policy_set(policy_set)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(xml + "\n")
        print(f"wrote {len(policy_set)} policies to {args.output}")
    else:
        print(xml)
    return 0


def cmd_decompile(args: argparse.Namespace) -> int:
    """Render an XML policy set as authoring DSL."""
    from repro.xmlpolicy import decompile_policy_set

    policy_set = parse_policy_set_file(args.policy)
    print(decompile_policy_set(policy_set), end="")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyse a PERMIS policy; exit 1 on errors."""
    from repro.permis import SEVERITY_ERROR, analyze_policy, parse_permis_policy

    with open(args.policy, "r", encoding="utf-8") as handle:
        policy = parse_permis_policy(handle.read())
    findings = analyze_policy(policy)
    if not findings:
        print("no findings")
        return 0
    for finding in findings:
        print(finding)
    has_errors = any(
        finding.severity == SEVERITY_ERROR for finding in findings
    )
    return 1 if has_errors else 0


def _print_verify_body(body: dict, as_json: bool) -> None:
    """Render a verify-report dict (local or wire) for the terminal."""
    if as_json:
        print(json.dumps(body, indent=2, sort_keys=True))
        return
    from repro.verify import VerifyReport

    report = VerifyReport.from_dict(body)
    if not report.findings:
        print("no findings")
    for finding in report.findings:
        print(finding)
    counts = report.counts_by_severity()
    print(
        f"{'ok' if report.ok else 'REFUSED'}: "
        f"{counts.get('error', 0)} error(s), "
        f"{counts.get('warning', 0)} warning(s), "
        f"{counts.get('info', 0)} info"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify a policy set; exit 1 on error findings."""
    if args.host is not None:
        from repro.client import RemotePDP

        with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
            body = pdp.verify_policy(args.policy)
    else:
        from repro.api import verify_policy

        permis = None
        if args.permis:
            from repro.permis import parse_permis_policy

            with open(args.permis, "r", encoding="utf-8") as handle:
                permis = parse_permis_policy(handle.read())
        body = verify_policy(args.policy, permis=permis).to_dict()
    _print_verify_body(body, args.json)
    return 0 if body.get("ok") else 1


def cmd_whatif(args: argparse.Namespace) -> int:
    """Differential what-if replay; exit 1 when flips exceed the budget."""
    if (args.host is None) == (args.audit_dir is None):
        print(
            "error: pass exactly one of --audit-dir (local replay) or "
            "--host (a running server's own trail)",
            file=sys.stderr,
        )
        return 2
    if args.host is not None:
        from repro.client import RemotePDP

        with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
            body = pdp.what_if(args.policy)
    else:
        from repro.api import what_if

        body = what_if(
            args.policy,
            args.audit_dir,
            audit_key=args.audit_key.encode("utf-8"),
            last_n_trails=args.last_n_trails,
            since=args.since,
        ).to_dict()
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        from repro.verify import DecisionFlip

        for flip in body.get("flips", []):
            print(f"flip: {DecisionFlip.from_dict(flip)}")
        print(
            f"replayed {body.get('decisions_replayed', 0)} decision(s) "
            f"from {body.get('events_scanned', 0)} event(s): "
            f"{body.get('flip_count', 0)} flip(s) "
            f"({body.get('grant_to_deny', 0)} grant->deny, "
            f"{body.get('deny_to_grant', 0)} deny->grant)"
        )
    return 0 if body.get("flip_count", 0) <= args.max_flips else 1


def cmd_decide(args: argparse.Namespace) -> int:
    """Evaluate one request as its own session; exit 2 on deny."""
    from repro.api import open_pdp
    from repro.core.engine import MODE_LITERAL, MODE_STRICT

    with open_pdp(
        args.policy,
        store=_store_spec(args),
        mode=MODE_LITERAL if args.literal else MODE_STRICT,
        trace=args.trace,
    ) as pdp:
        request = DecisionRequest(
            user_id=args.user,
            roles=tuple(args.role),
            operation=args.operation,
            target=args.target,
            context_instance=ContextName.parse(args.context),
            timestamp=time.time(),
        )
        explanation = None
        if args.explain:
            from repro.core import explain

            # Narrate against pre-decision store state: the decision
            # below may append retained-ADI records.
            explanation = explain(pdp.engine, request)
        decision = pdp.decide(request)
    print(decision)
    if decision.granted:
        print(
            f"recorded {decision.records_added} record(s), "
            f"purged {decision.records_purged}"
        )
    if args.trace and decision.trace is not None:
        print(decision.trace.render())
    if explanation is not None:
        print(explanation.render())
    return 0 if decision.granted else 2


def cmd_explain(args: argparse.Namespace) -> int:
    """Dry-run a request and narrate the evaluation (no writes)."""
    from repro.core import explain

    policy_set = parse_policy_set_file(args.policy)
    store = _open_store(args)
    try:
        engine = MSoDEngine(policy_set, store)
        explanation = explain(
            engine,
            DecisionRequest(
                user_id=args.user,
                roles=tuple(args.role),
                operation=args.operation,
                target=args.target,
                context_instance=ContextName.parse(args.context),
                timestamp=time.time(),
            ),
        )
        print(explanation.render())
        return 0 if explanation.granted else 2
    finally:
        store.close()


def cmd_history(args: argparse.Namespace) -> int:
    """List every record in the retained-ADI store."""
    store = _open_store(args)
    try:
        port = RetainedADIManagementPort(store)
        records = port.list_records([CONTROLLER_ROLE])
        print(f"{len(records)} retained record(s)")
        for record in records:
            roles = ",".join(str(role) for role in record.roles)
            print(
                f"  #{record.record_id} t={record.granted_at:.0f} "
                f"{record.user_id} [{roles}] {record.operation}@{record.target} "
                f"in [{record.context_instance}]"
            )
        return 0
    finally:
        store.close()


def cmd_purge(args: argparse.Namespace) -> int:
    """Administratively purge retained-ADI records (Section 4.3)."""
    store = _open_store(args)
    try:
        port = RetainedADIManagementPort(store)
        roles = [CONTROLLER_ROLE]
        if args.all:
            outcome = port.purge_all(roles)
        elif args.context is not None:
            outcome = port.purge_context(roles, ContextName.parse(args.context))
        elif args.user is not None:
            outcome = port.purge_user(roles, args.user)
        else:
            outcome = port.purge_older_than(roles, args.older_than)
        print(f"{outcome.detail}: {outcome.affected} record(s) removed")
        return 0
    finally:
        store.close()


async def _serve_until_interrupted(args: argparse.Namespace) -> int:
    """Boot the server and run until SIGINT/SIGTERM, then drain."""
    from repro.core.engine import MODE_LITERAL, MODE_STRICT
    from repro.obs import Recorder
    from repro.server import AuthorizationService, MSoDServer

    policy_set = parse_policy_set_file(args.policy, strict=not args.relaxed)
    store = _open_store(args)
    perf = Recorder()
    if args.trace:
        perf.trace_decisions(args.slowlog_size)
    audit_sink = trail_reader = trails = None
    if args.audit_dir:
        from repro.audit import (
            EVENT_DECISION,
            AuditTrailManager,
            decision_event_payload,
        )

        trails = AuditTrailManager(
            args.audit_dir,
            args.audit_key.encode("utf-8"),
            max_records=args.audit_max_records,
            max_bytes=args.audit_max_bytes,
            fsync=args.audit_fsync,
        )

        def audit_sink(decision):
            trails.append(
                EVENT_DECISION,
                decision.request.timestamp,
                decision_event_payload(decision),
            )

        def trail_reader():
            # A fresh tolerant reader per what-if: the verifying swap
            # must not hold the writer's sequence state.
            return AuditTrailManager(
                args.audit_dir,
                args.audit_key.encode("utf-8"),
                tolerate_ahead=True,
            )

    try:
        engine = MSoDEngine(
            policy_set,
            store,
            mode=MODE_LITERAL if args.literal else MODE_STRICT,
            perf=perf,
        )
        service = AuthorizationService(
            engine,
            n_shards=args.shards,
            queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            gather_window=args.gather_window,
            audit_sink=audit_sink,
            trail_reader=trail_reader,
        )
        server = MSoDServer(service, host=args.host, port=args.port)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # e.g. non-main thread / platforms without support
        print(
            f"serving MSoD decisions on {args.host}:{server.port} "
            f"({args.shards} shards, queue depth {args.queue_depth}, "
            f"batch max {args.batch_max}"
            f"{', tracing on' if args.trace else ''})",
            flush=True,
        )
        await stop.wait()
        print("draining shard queues...", flush=True)
        await server.stop()
    finally:
        store.close()
        if trails is not None:
            trails.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the networked authorization service until interrupted."""
    try:
        return asyncio.run(_serve_until_interrupted(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


def cmd_remote_decide(args: argparse.Namespace) -> int:
    """One decision through the existing PEP, against a remote PDP."""
    from repro.api import open_pdp
    from repro.framework import PolicyEnforcementPoint

    with open_pdp(
        store=f"remote:{args.host}:{args.port}",
        timeout=args.timeout,
        protocol=args.protocol,
    ) as pdp:
        pep = PolicyEnforcementPoint(pdp, clock=time.time)
        decision = pep.request_decision(
            user_id=args.user,
            roles=tuple(args.role),
            operation=args.operation,
            target=args.target,
            context_instance=ContextName.parse(args.context),
        )
    print(decision)
    if decision.granted:
        print(
            f"recorded {decision.records_added} record(s), "
            f"purged {decision.records_purged}"
        )
    return 0 if decision.granted else 2


def cmd_remote_status(args: argparse.Namespace) -> int:
    """Print a running server's health/metrics/slowlog snapshot as JSON."""
    from repro.client import RemotePDP

    with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
        if args.slowlog:
            body = pdp.slowlog()
        elif args.metrics:
            body = pdp.metrics()
        else:
            body = pdp.healthz()
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape the Prometheus text exposition from a running server."""
    from repro.client import RemotePDP

    with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
        text = pdp.metrics_text()
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_policy_status(args: argparse.Namespace) -> int:
    """Print a running server's policy version/reload snapshot as JSON."""
    from repro.client import RemotePDP

    with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
        body = pdp.policy_status()
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def cmd_policy_reload(args: argparse.Namespace) -> int:
    """Hot-swap a running server's policy set from an XML file."""
    from repro.client import RemotePDP

    with RemotePDP(args.host, args.port, timeout=args.timeout) as pdp:
        report = pdp.reload_policy(
            args.policy,
            verify=args.verify,
            max_flips=args.max_flips,
            force=args.force,
            principal=args.principal,
        )
    if args.verify:
        print("verification gate: passed")
    for finding in report.findings:
        print(f"note: {finding}")
    if report.changed:
        print(f"reloaded: {report.previous} -> {report.version}")
    else:
        print(f"no-op: digest unchanged, still {report.version}")
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    handlers = {
        "status": cmd_policy_status,
        "reload": cmd_policy_reload,
    }
    return handlers[args.policy_command](args)


def _wait_for_signal() -> None:
    """Block the main thread until SIGINT/SIGTERM."""
    import threading

    stop = threading.Event()

    def handler(signum, frame):  # pragma: no cover - signal timing
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Boot a full cluster in one process and run until interrupted."""
    from repro.api import open_cluster

    handle = open_cluster(
        args.policy,
        args.data_dir,
        n_shards=args.cluster_shards,
        store=args.store,
        host=args.host,
        port=args.port,
        audit_key=args.audit_key.encode("utf-8"),
        audit_max_records=args.audit_max_records,
        audit_max_bytes=args.audit_max_bytes,
        fsync=not args.no_fsync,
    )
    with handle:
        print(
            f"cluster coordinator on {handle.host}:{handle.port} "
            f"({args.cluster_shards} shards, store={args.store}, "
            f"fsync={'off' if args.no_fsync else 'on'})",
            flush=True,
        )
        for shard in handle.shard_names:
            state = handle.cluster.shard(shard)
            print(
                f"  {shard}: primary {state.primary.name} "
                f"{state.primary.host}:{state.primary.port}, "
                f"standby {state.standby.name} "
                f"{state.standby.host}:{state.standby.port}",
                flush=True,
            )
        _wait_for_signal()
        print("stopping cluster...", flush=True)
    return 0


def cmd_cluster_node(args: argparse.Namespace) -> int:
    """Run one standalone cluster node until interrupted."""
    from repro.cluster import ClusterNode
    from repro.storespec import build_store, parse_store_spec

    policy_set = parse_policy_set_file(args.policy)
    if args.store:
        spec = args.store
    elif args.adi:
        spec = f"sqlite:{args.adi}"
    else:
        spec = "memory"
    store, _ = build_store(parse_store_spec(spec))
    node = ClusterNode(
        args.name,
        args.shard,
        policy_set,
        store,
        args.audit_dir,
        args.audit_key.encode("utf-8"),
        role=args.role,
        epoch=args.epoch,
        host=args.host,
        port=args.port,
        audit_max_records=args.audit_max_records,
        audit_max_bytes=args.audit_max_bytes,
        fsync=not args.no_fsync,
    )
    node.start()
    try:
        print(
            f"node {node.name} serving shard {node.shard} on "
            f"{node.host}:{node.port} role={node.role} epoch={node.epoch}",
            flush=True,
        )
        _wait_for_signal()
        print("stopping node...", flush=True)
    finally:
        node.stop()
    return 0


def _cluster_client(args: argparse.Namespace):
    from repro.cluster import ClusterPDP

    return ClusterPDP(
        (args.host, args.port),
        timeout=args.timeout,
        protocol=getattr(args, "protocol", "auto"),
    )


def cmd_cluster_status(args: argparse.Namespace) -> int:
    with _cluster_client(args) as pdp:
        print(json.dumps(pdp.cluster_status(), indent=2, sort_keys=True))
    return 0


def cmd_cluster_route(args: argparse.Namespace) -> int:
    with _cluster_client(args) as pdp:
        print(json.dumps(pdp.route(), indent=2, sort_keys=True))
    return 0


def cmd_cluster_metrics(args: argparse.Namespace) -> int:
    with _cluster_client(args) as pdp:
        text = pdp.cluster_metrics_text()
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_cluster_reload(args: argparse.Namespace) -> int:
    """Roll a new policy XML across every cluster node via the coordinator."""
    with _cluster_client(args) as pdp:
        body = pdp.reload_policy(
            args.policy,
            verify=args.verify,
            max_flips=args.max_flips,
            force=args.force,
            canary=args.canary,
            principal=args.principal,
        )
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def cmd_cluster_decide(args: argparse.Namespace) -> int:
    """One decision through the routing, failover-surviving client."""
    import uuid

    with _cluster_client(args) as pdp:
        decision = pdp.decide(
            DecisionRequest(
                user_id=args.user,
                roles=tuple(args.role),
                operation=args.operation,
                target=args.target,
                context_instance=ContextName.parse(args.context),
                timestamp=time.time(),
                # The cluster journal dedupes by request_id across *all*
                # clients, so a process-local counter id would collide
                # with other CLI invocations.
                request_id=f"cli-{uuid.uuid4().hex}",
            )
        )
    print(decision)
    return 0 if decision.granted else 2


def cmd_cluster_resize(args: argparse.Namespace) -> int:
    """Online topology changes through the coordinator's reshard verbs."""
    from repro.server import protocol as _protocol

    with _cluster_client(args) as pdp:
        if args.resize_command == "status":
            body = pdp.reshard_status()
        elif args.resize_command == "add-node":
            body = pdp.resize(_protocol.RESHARD_ACTION_ADD)
        elif args.resize_command == "drain":
            body = pdp.resize(_protocol.RESHARD_ACTION_DRAIN, shard=args.shard)
        else:  # rebalance
            body = pdp.resize(
                _protocol.RESHARD_ACTION_REBALANCE, apply=args.apply
            )
            body["threshold"] = args.threshold
        if getattr(args, "wait", False) and body.get("active"):
            deadline = time.monotonic() + args.wait_timeout
            while body.get("active"):
                if time.monotonic() >= deadline:
                    print(json.dumps(body, indent=2, sort_keys=True))
                    print(
                        f"migration still active after {args.wait_timeout}s",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(0.2)
                body = pdp.reshard_status()
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def _smoke_digest(records) -> list:
    """An order-free, comparable form of a retained-ADI record set."""
    return sorted(
        (
            record.user_id,
            tuple(
                sorted((role.role_type, role.value) for role in record.roles)
            ),
            record.operation,
            record.target,
            str(record.context_instance),
            record.granted_at,
            record.request_id,
        )
        for record in records
    )


def _smoke_check_exclusivity(records, report: dict, failures: list) -> None:
    """The MMER invariant over the merged stores: no user holds Teller
    and Auditor within one context instance."""
    from repro.workload import AUDITOR, TELLER

    exclusive = 0
    seen: dict = {}
    for record in records:
        key = (record.user_id, str(record.context_instance))
        roles = seen.setdefault(key, set())
        roles.update(record.roles)
        if TELLER in roles and AUDITOR in roles:
            exclusive += 1
    report["exclusivity_violations"] = exclusive
    if exclusive:
        failures.append(
            f"{exclusive} MMER exclusivity violation(s) in the retained ADI"
        )


def _smoke_finish(report: dict, failures: list, as_json: bool) -> int:
    """Print a smoke scenario's report; exit status 1 on any failure."""
    report["ok"] = not failures
    report["failures"] = failures
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return 0 if not failures else 1


def _cluster_smoke_resize(args: argparse.Namespace) -> int:
    """The elastic-resize fault-injection smoke (``cluster smoke --resize``).

    Boots a 2-shard cluster under continuous multi-threaded live load,
    then runs a full resize cycle with the worst faults injected
    mid-migration:

    * **2→3 split** — add a shard; *while the migration is in flight*
      kill the coordinator, then (with the coordinator still down) kill
      a source shard's primary; restart the coordinator from its
      persisted state file and let it finish the migration it resumed
      (promoting the dead primary's standby adds a trail lineage the
      import must also walk).
    * **3→2 drain** — retire the shard just added; kill the subject
      shard's primary the moment the drain starts, so the migration
      finishes from the promoted standby plus the dead primary's
      sealed trail.

    Afterwards asserts: every live decision matches a per-shard
    single-node oracle bit for bit (no lost, double-applied or
    mis-routed decisions), each surviving shard's retained ADI digest
    equals its oracle's (which also rules out lost or double-applied
    decisions — an extra or missing record breaks the digest), the
    MMER exclusivity invariant holds across the merged stores, both
    migrations completed, both kills actually failed over, and the
    reshard metric families scrape.
    """
    import tempfile
    import threading

    from repro.api import open_cluster
    from repro.core import InMemoryRetainedADIStore
    from repro.workload import AUDIT_BOOKS, AUDITOR, HANDLE_CASH, TELLER
    from repro.workload import bank_policy_set

    policy_set = bank_policy_set()
    target_requests = max(args.requests, 120)
    n_workers = 4
    report: dict = {
        "mode": "resize",
        "target_requests": target_requests,
        "store": args.store,
    }
    failures: list[str] = []
    worker_errors: list[str] = []
    stop = threading.Event()
    # Per-worker ordered decision logs.  Every worker owns a disjoint
    # user set and every request's *effective policy context* is
    # private to its user (the user is embedded in the Period value,
    # the component the policy binds), so per-user issue order — which
    # each worker preserves by waiting for each decide — is the only
    # order the oracle replay below depends on.
    logs: list[list] = [[] for _ in range(n_workers)]

    def worker(index: int, pdp) -> None:
        users = [f"resize-user-{index}-{i}" for i in range(8)]
        serial = 0
        while not stop.is_set():
            serial += 1
            user = users[serial % len(users)]
            # The bank policy's context is "Branch=*, Period=!" — only
            # the '!' component binds to the instance, so the *user
            # must be in the Period value* for the effective policy
            # context to be private to the user.  A shared period
            # (Period=S1 for everyone) would make the engine's
            # "context started" check cross-user, and the retained-ADI
            # copy count would then depend on which user a given
            # engine served first — unreproducible by any per-user
            # oracle replay.
            fresh = ContextName.parse(
                f"Branch={user}, Period={user}-S{serial}"
            )
            probes = [
                DecisionRequest(
                    user_id=user,
                    roles=(TELLER,),
                    operation=HANDLE_CASH.operation,
                    target=HANDLE_CASH.target,
                    context_instance=fresh,
                    timestamp=float(index * 1_000_000 + serial),
                )
            ]
            if serial % 5 == 0:
                # Re-enter a context this user already exercised as
                # Teller, as Auditor: the bank MMER must deny it, on
                # whichever node owns the user at that moment.
                probes.append(
                    DecisionRequest(
                        user_id=user,
                        roles=(AUDITOR,),
                        operation=AUDIT_BOOKS.operation,
                        target=AUDIT_BOOKS.target,
                        context_instance=fresh,
                        timestamp=float(index * 1_000_000 + serial) + 0.5,
                    )
                )
            for request in probes:
                try:
                    effect = pdp.decide(request).effect
                except Exception as exc:
                    worker_errors.append(
                        f"worker {index}: {type(exc).__name__}: {exc}"
                    )
                    return
                logs[index].append((request, effect))

    def total_decisions() -> int:
        return sum(len(log) for log in logs)

    def await_decisions(count: int, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while total_decisions() < count and not worker_errors:
            if time.monotonic() >= deadline:
                failures.append(
                    f"live load stalled at {total_decisions()} decisions "
                    f"(wanted {count})"
                )
                return
            time.sleep(0.02)

    with tempfile.TemporaryDirectory() as data_dir:
        with open_cluster(
            policy_set, data_dir, n_shards=2, store=args.store
        ) as handle:
            cluster = handle.cluster
            with handle.client(failover_wait=60.0) as pdp:
                threads = [
                    threading.Thread(target=worker, args=(i, pdp), daemon=True)
                    for i in range(n_workers)
                ]
                for thread in threads:
                    thread.start()
                try:
                    await_decisions(target_requests // 6)

                    # ---- 2→3 split with coordinator + primary kills.
                    added = handle.add_shard()
                    report["added_shard"] = added
                    pre_crash = handle.reshard_status()
                    report["split_active_at_crash"] = pre_crash["active"]
                    handle.crash_coordinator()
                    # Coordinator is down: migration frozen mid-phase,
                    # nodes still serving.  Kill a source primary NOW —
                    # nobody can promote the standby until the
                    # coordinator is back, so the death is guaranteed
                    # to land mid-migration.
                    source = (
                        pre_crash["migration"]["old_shards"][0]
                        if pre_crash.get("migration")
                        else cluster.shard_names[0]
                    )
                    report["split_killed"] = handle.kill_primary(source)
                    time.sleep(0.3)
                    handle.restart_coordinator()
                    report["split"] = handle.wait_reshard(timeout=120.0)[
                        "last_migration"
                    ]
                    if added not in cluster.shard_names:
                        failures.append("split did not add the new shard")

                    await_decisions(2 * target_requests // 3)
                    report["rebalance"] = handle.rebalance()

                    # ---- 3→2 drain, killing the subject's primary the
                    # moment the migration starts (before its first
                    # catch-up tick races us): the drain must finish
                    # from the promoted standby plus the dead primary's
                    # sealed trail lineage.
                    handle.drain_shard(added)
                    report["drain_killed"] = handle.kill_primary(added)
                    report["drain"] = handle.wait_reshard(timeout=120.0)[
                        "last_migration"
                    ]
                    if added in cluster.shard_names:
                        failures.append("drain did not retire the shard")

                    await_decisions(target_requests)
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=60.0)

                status = pdp.cluster_status()
                reshard = pdp.reshard_status()
                metrics_text = pdp.cluster_metrics_text()

            report["requests"] = total_decisions()
            report["serving_shards"] = reshard["serving_shards"]
            report["users_moved"] = reshard["users_moved_total"]
            report["migrations"] = reshard["migrations_total"]
            if worker_errors:
                failures.append("worker error: " + worker_errors[0])
            for kind in ("split", "drain"):
                done = report.get(kind) or {}
                if done.get("phase") != "done":
                    failures.append(f"{kind} migration did not complete")
            if reshard["active"]:
                failures.append("a migration is still marked active")
            if sorted(reshard["serving_shards"]) != ["shard-0", "shard-1"]:
                failures.append(
                    "cluster did not return to the 2-shard topology"
                )
            failovers = sum(
                shard["failovers"] for shard in status["shards"].values()
            )
            report["failovers"] = failovers
            if failovers < 1:
                failures.append("the killed source primary never failed over")
            for name, shard in status["shards"].items():
                if "resident_users" not in shard or "stats" not in shard:
                    failures.append(
                        f"{name} status lacks resident_users/stats gauges"
                    )
            for family in (
                "repro_reshard_migrations_total",
                "repro_reshard_users_moved_total",
                "repro_reshard_cutover_pause_seconds",
                "repro_cluster_shard_resident_users",
            ):
                if family not in metrics_text:
                    failures.append(f"metrics family {family} missing")

            # ---- the oracle: replay every user's stream, in issue
            # order, into one fresh single-node engine per *final*
            # shard.  Every context is private to its user, so this is
            # exactly the history a never-resharded cluster would hold.
            oracles = {
                name: MSoDEngine(policy_set, InMemoryRetainedADIStore())
                for name in cluster.shard_names
            }
            effects = []
            oracle_effects = []
            for log in logs:
                for request, effect in log:
                    shard_name = cluster.ring.shard_for(request.user_id)
                    effects.append(effect)
                    oracle_effects.append(
                        oracles[shard_name].check(request).effect
                    )
            report["grants"] = effects.count("grant")
            report["denies"] = effects.count("deny")
            if report["denies"] < 1:
                failures.append("workload exercised no MMER denial")
            if effects != oracle_effects:
                mismatches = sum(
                    1
                    for ours, theirs in zip(effects, oracle_effects)
                    if ours != theirs
                )
                failures.append(
                    f"{mismatches} decision(s) diverged from the oracle"
                )

            merged = []
            for shard_name in cluster.shard_names:
                shard_records = list(
                    cluster.shard(shard_name).primary.store.records()
                )
                merged.extend(shard_records)
                if _smoke_digest(shard_records) != _smoke_digest(
                    oracles[shard_name].store.records()
                ):
                    failures.append(
                        f"{shard_name} retained ADI differs from its "
                        "single-node oracle after the resize cycle"
                    )
            _smoke_check_exclusivity(merged, report, failures)
    return _smoke_finish(report, failures, args.json)


def cmd_cluster_smoke(args: argparse.Namespace) -> int:
    """The CI cluster smoke: workload + mid-stream reload + primary kill.

    Boots an N-shard cluster, streams a hot-user + distinct-user
    workload through the routing client, hot-reloads an extended policy
    set a quarter of the way in, kills the hot user's shard primary
    halfway, then canary-rolls a further (decision-disjoint) policy set
    through a healthy shard's standby while a background workload keeps
    that shard's primary deciding, and asserts: the standby is
    promoted, the canary mirror compares live decisions with zero
    flips, every decision matches a single-node oracle bit for bit,
    each shard's retained ADI equals the oracle engine fed that shard's
    substream, the MMER exclusivity invariant holds, every node runs
    the final (canary-rolled) policy epoch, every audited decision
    carries its policy epoch, and the per-node gauges scrape.

    With ``--resize`` runs :func:`_cluster_smoke_resize` instead — the
    elastic split/drain cycle with coordinator and source-primary kills
    injected mid-migration.
    """
    if args.resize:
        return _cluster_smoke_resize(args)
    import itertools
    import tempfile
    import threading

    from repro.api import open_cluster
    from repro.audit import EVENT_DECISION, AuditTrailManager
    from repro.core import InMemoryRetainedADIStore
    from repro.core.constraints import MMCD, MMER, Privilege
    from repro.core.policy import MSoDPolicy, MSoDPolicySet
    from repro.workload import (
        AUDITOR,
        HANDLE_CASH,
        TELLER,
        bank_policy_set,
        decision_request_stream,
        hot_user_stream,
    )

    # The boot set carries a combination-of-duty policy over a context
    # no bank workload request touches (Filing/Case): the duty binding
    # established before the primary kill must still deny a second user
    # after failover — proving MMCD owner state survives promotion.
    duty_review = Privilege("review", "filing")
    duty_signoff = Privilege("signoff", "filing")
    policy_set = MSoDPolicySet(
        list(bank_policy_set())
        + [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=[MMCD([duty_review, duty_signoff])],
                policy_id="filing-duty-binding",
            )
        ]
    )
    # The mid-stream reload target: the bank policy plus one extra
    # policy over a *disjoint* context (Region/Quarter, never touched
    # by the bank workload), so the reload changes the digest and
    # epoch everywhere without changing any decision — which keeps the
    # per-shard single-node oracles below valid as-is.
    extended_set = MSoDPolicySet(
        list(policy_set)
        + [
            MSoDPolicy(
                ContextName.parse("Region=*, Quarter=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="regional",
            )
        ]
    )
    quarter = args.requests // 4
    half = args.requests // 2
    requests = list(
        itertools.chain(
            hot_user_stream(args.requests // 2, user_id="hot-user"),
            decision_request_stream(
                args.requests - args.requests // 2, n_users=40
            ),
        )
    )
    report: dict = {
        "requests": len(requests),
        "shards": args.cluster_shards,
        "store": args.store,
    }
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as data_dir:
        with open_cluster(
            policy_set,
            data_dir,
            n_shards=args.cluster_shards,
            store=args.store,
        ) as handle:
            cluster = handle.cluster
            hot_shard = cluster.ring.shard_for("hot-user")
            report["hot_shard"] = hot_shard
            # Two distinct users on the shard that will lose its
            # primary: the first binds the duty set pre-kill, the
            # second must still be denied post-failover.
            duty_users = [
                f"duty-user-{index}"
                for index in range(10_000)
                if cluster.ring.shard_for(f"duty-user-{index}") == hot_shard
            ][:2]
            duty_owner, duty_intruder = duty_users
            duty_context = ContextName.parse("Filing=Annual, Case=2026")

            def duty_request(user_id, privilege, stamp):
                return DecisionRequest(
                    user_id=user_id,
                    roles=(AUDITOR,),
                    operation=privilege.operation,
                    target=privilege.target,
                    context_instance=duty_context,
                    timestamp=stamp,
                )

            with handle.client(failover_wait=30.0) as pdp:
                effects = []
                # Phase 1 (pre-kill): the owner performs the first
                # bound step and becomes the set's owner for this Case.
                bind = duty_request(duty_owner, duty_review, 1.0)
                requests.insert(0, bind)
                effects.append(pdp.decide(bind).effect)
                for index, request in enumerate(requests[1:]):
                    if index == quarter:
                        reload_body = pdp.reload_policy(extended_set)
                        report["policy_reload_changed"] = reload_body[
                            "changed"
                        ]
                    if index == half:
                        report["killed"] = handle.kill_primary(hot_shard)
                    effects.append(pdp.decide(request).effect)
                # Phase 2 (post-failover): the binding must have
                # survived promotion — a different user is denied the
                # remaining bound step, the owner completes it.
                duty_phase2 = [
                    duty_request(duty_intruder, duty_signoff, 2.0),
                    duty_request(duty_owner, duty_signoff, 3.0),
                ]
                for request in duty_phase2:
                    requests.append(request)
                    effects.append(pdp.decide(request).effect)
                report["mmcd"] = {
                    "owner_bind": effects[0],
                    "intruder_post_failover": effects[-2],
                    "owner_completion": effects[-1],
                }
                if effects[0] != "grant":
                    failures.append("MMCD owner's first bound step denied")
                if effects[-2] != "deny":
                    failures.append(
                        "MMCD binding lost across failover: intruder's "
                        "bound step was granted"
                    )
                if effects[-1] != "grant":
                    failures.append(
                        "MMCD owner denied the remaining bound step"
                    )

                # Canary rollout under live load: stage a third policy
                # set — again decision-disjoint (Desk/Cycle, untouched
                # by any workload), so the oracles stay valid — on a
                # healthy shard's standby while a background thread
                # keeps that shard's primary deciding.  The mirror must
                # observe live decisions and report zero flips before
                # the coordinator-wide rollout (epoch 3 everywhere).
                canary_set = MSoDPolicySet(
                    list(extended_set)
                    + [
                        MSoDPolicy(
                            ContextName.parse("Desk=*, Cycle=!"),
                            mmers=[MMER([TELLER, AUDITOR], 2)],
                            policy_id="desk",
                        )
                    ]
                )
                canary_shard = next(
                    (
                        name
                        for name in handle.shard_names
                        if name != hot_shard
                    ),
                    hot_shard,
                )
                canary_user = next(
                    f"canary-user-{index}"
                    for index in range(10_000)
                    if cluster.ring.shard_for(f"canary-user-{index}")
                    == canary_shard
                )
                canary_requests: list = []
                canary_effects: list = []
                canary_errors: list = []
                canary_stop = threading.Event()

                def canary_load() -> None:
                    serial = 0
                    while not canary_stop.is_set():
                        serial += 1
                        request = DecisionRequest(
                            user_id=canary_user,
                            roles=(TELLER,),
                            operation=HANDLE_CASH.operation,
                            target=HANDLE_CASH.target,
                            context_instance=ContextName.parse(
                                f"Branch=Canary, Period=C{serial}"
                            ),
                            timestamp=float(10_000 + serial),
                        )
                        try:
                            effect = pdp.decide(request).effect
                        except Exception as exc:  # pragma: no cover
                            canary_errors.append(str(exc))
                            return
                        canary_requests.append(request)
                        canary_effects.append(effect)

                loader = threading.Thread(target=canary_load, daemon=True)
                loader.start()
                try:
                    canary_body = handle.canary_reload_policy(
                        canary_set,
                        shard_name=canary_shard,
                        max_flips=0,
                        min_decisions=5,
                        timeout=30.0,
                    )
                finally:
                    canary_stop.set()
                    loader.join(timeout=30.0)
                requests.extend(canary_requests)
                effects.extend(canary_effects)
                report["requests"] = len(requests)
                mirror = canary_body["canary"].get("mirror", {})
                report["canary"] = {
                    "shard": canary_shard,
                    "live_decisions": mirror.get("live_decisions", 0),
                    "flips": mirror.get("flip_count", 0),
                    "replayed": mirror.get("replay", {}).get(
                        "decisions_replayed", 0
                    ),
                }
                if canary_errors:
                    failures.append(
                        f"canary workload error: {canary_errors[0]}"
                    )
                if not canary_body.get("changed"):
                    failures.append("canary rollout did not apply")
                if mirror.get("flip_count", 0):
                    failures.append(
                        "canary mirror reported decision flips"
                    )
                if mirror.get("live_decisions", 0) < 1:
                    failures.append(
                        "canary mirror observed no live decisions"
                    )

                status = pdp.cluster_status()
                metrics_text = pdp.cluster_metrics_text()
                node_metrics = pdp.node_metrics_text("hot-user")
            report["failovers"] = status["shards"][hot_shard]["failovers"]
            report["epoch"] = status["shards"][hot_shard]["epoch"]
            if report["failovers"] < 1:
                failures.append("no failover happened")
            if not report.get("policy_reload_changed"):
                failures.append("mid-stream policy reload did not apply")
            # Epoch 1 boot + mid-stream reload (2) + canary rollout
            # (3).  The killed primary died between reload and canary,
            # so only live nodes must be on the final epoch.
            stale = [
                node["name"]
                for shard in status["shards"].values()
                for node in shard["nodes"]
                if node["up"] and node["policy_epoch"] != 3
            ]
            if stale:
                failures.append(
                    "node(s) not on the reloaded policy epoch: "
                    + ", ".join(sorted(stale))
                )
            for family in (
                "repro_cluster_node_up",
                "repro_cluster_node_primary",
                "repro_cluster_node_epoch",
                "repro_cluster_failovers_total",
                "repro_policy_epoch",
                "repro_policy_reloads_total",
            ):
                if family not in metrics_text:
                    failures.append(f"metrics family {family} missing")
            if "repro_shard_queue_depth" not in node_metrics:
                failures.append("per-node shard gauges missing")

            # Every audited decision event must say which policy epoch
            # produced it — that is what makes recovery and standby
            # replay policy-aware across the reload.
            unstamped = 0
            audited = 0
            for shard_name in handle.shard_names:
                state = cluster.shard(shard_name)
                for node in (state.primary, state.standby):
                    events = AuditTrailManager(
                        node.trail_dir,
                        b"cluster-trail-key",
                        tolerate_ahead=True,
                    ).events()
                    for event in events:
                        if event.event_type != EVENT_DECISION:
                            continue
                        audited += 1
                        if "policy_epoch" not in (event.payload or {}):
                            unstamped += 1
            report["audited_decisions"] = audited
            if unstamped:
                failures.append(
                    f"{unstamped} audited decision(s) missing policy_epoch"
                )

            # Per-shard single-node oracles: one fresh engine per shard,
            # fed exactly the substream the ring sends that shard.  (A
            # single global engine is *not* the right oracle — step 4's
            # context-started check spans users, so the record set for a
            # shared context depends on which other-shard users touched
            # it first.  Per-user routing promises per-shard equivalence,
            # and that is what we assert.)
            oracles = {
                shard_name: MSoDEngine(policy_set, InMemoryRetainedADIStore())
                for shard_name in handle.shard_names
            }
            oracle_effects = [
                oracles[cluster.ring.shard_for(request.user_id)]
                .check(request)
                .effect
                for request in requests
            ]
            report["grants"] = effects.count("grant")
            report["denies"] = effects.count("deny")
            if effects != oracle_effects:
                mismatches = sum(
                    1
                    for ours, theirs in zip(effects, oracle_effects)
                    if ours != theirs
                )
                failures.append(
                    f"{mismatches} decision(s) diverged from the oracle"
                )

            merged = []
            for shard_name in handle.shard_names:
                shard_records = list(
                    cluster.shard(shard_name).primary.store.records()
                )
                merged.extend(shard_records)
                if _smoke_digest(shard_records) != _smoke_digest(
                    oracles[shard_name].store.records()
                ):
                    failures.append(
                        f"{shard_name} retained ADI differs from its "
                        "single-node oracle"
                    )

            _smoke_check_exclusivity(merged, report, failures)
    return _smoke_finish(report, failures, args.json)


def cmd_cluster(args: argparse.Namespace) -> int:
    handlers = {
        "serve": cmd_cluster_serve,
        "node": cmd_cluster_node,
        "status": cmd_cluster_status,
        "route": cmd_cluster_route,
        "metrics": cmd_cluster_metrics,
        "reload": cmd_cluster_reload,
        "resize": cmd_cluster_resize,
        "decide": cmd_cluster_decide,
        "smoke": cmd_cluster_smoke,
    }
    return handlers[args.cluster_command](args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "show": cmd_show,
        "compile": cmd_compile,
        "decompile": cmd_decompile,
        "lint": cmd_lint,
        "verify": cmd_verify,
        "whatif": cmd_whatif,
        "decide": cmd_decide,
        "explain": cmd_explain,
        "history": cmd_history,
        "purge": cmd_purge,
        "serve": cmd_serve,
        "remote-decide": cmd_remote_decide,
        "remote-status": cmd_remote_status,
        "metrics": cmd_metrics,
        "policy": cmd_policy,
        "cluster": cmd_cluster,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
