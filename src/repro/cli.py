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
``verify``, ``whatif``, ``decide``, ``explain``, ``history``,
``purge``, ``serve``, ``remote-decide``, ``remote-status``,
``metrics``, ``policy`` (``status``, ``reload``) and ``cluster``
(``serve``, ``node``, ``status``, ``route``, ``metrics``, ``reload``,
``resize``, ``decide``, ``smoke``).

``serve`` turns the same policy + SQLite retained ADI into a networked
authorization service (the paper's Section 5 deployment shape);
``remote-decide`` is the PEP side of that wire, ``remote-status``
snapshots the server's health/metrics, and ``metrics`` scrapes the
Prometheus text exposition (point a Prometheus scrape job at it, or
eyeball it in a terminal).

Each verb is declared once in :func:`build_parser`, naming the handler
it runs; flags shared by several verbs are one option-set function
each.  Construction goes through :mod:`repro.api` (``open_pdp``,
``open_server``, ``open_cluster``), so the CLI, the tests and the
benchmarks all build their PDPs the same way.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from contextlib import ExitStack, closing
from typing import Sequence

from repro.core import (
    CONTROLLER_ROLE,
    MODE_LITERAL,
    MODE_STRICT,
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

POLICY_HELP = "path to the policy XML file"


def _add_store_arguments(
    cmd: argparse.ArgumentParser, default: str | None = None
) -> None:
    """The store pair every ADI-touching command takes.

    ``--adi <path>`` stays as the historical shorthand for
    ``--store sqlite:<path>``; ``--store`` takes the full unified spec
    grammar (see :func:`repro.api.parse_store_spec`) and wins when both
    are given.  Without a ``default`` one of them is required.
    """
    cmd.add_argument(
        "--adi",
        help="SQLite retained-ADI path ("
        + ("default: in-memory store; " if default else "")
        + "shorthand for --store sqlite:<path>)",
    )
    cmd.add_argument(
        "--store",
        help="retained-ADI store spec: memory, sqlite:<path>, or "
        "tiered:<warm-spec>?hot_users=N[&shards=M] (overrides --adi)",
    )
    cmd.set_defaults(store_default=default)


def _store_spec(args: argparse.Namespace) -> str:
    if args.store:
        return args.store
    if args.adi:
        return f"sqlite:{args.adi}"
    if args.store_default:
        return args.store_default
    raise StoreSpecError("one of --adi or --store is required")


def _open_store(args: argparse.Namespace):
    """Build the command's store through the unified spec parser."""
    from repro.storespec import build_store, parse_store_spec

    store, _ = build_store(parse_store_spec(_store_spec(args)))
    return store


def _add_address(
    cmd: argparse.ArgumentParser,
    coordinator: bool = False,
    local_help: str | None = None,
) -> None:
    """Where a networked verb connects: a ``serve`` instance or the
    cluster coordinator.  With ``local_help`` the verb runs locally
    unless ``--host`` is given, and takes no ``--protocol``."""
    cmd.add_argument(
        "--host", default=None if local_help else "127.0.0.1", help=local_help
    )
    if coordinator:
        cmd.add_argument(
            "--port", type=int, default=8760, help="coordinator port"
        )
    else:
        cmd.add_argument("--port", type=int, default=8750)
    cmd.add_argument("--timeout", type=float, default=5.0)
    if local_help is None:
        cmd.add_argument(
            "--protocol",
            choices=("auto", "v1", "v2"),
            default="auto",
            help="per-node decide wire protocol (auto negotiates "
            "pipelined binary v2 with v1 fallback)"
            if coordinator
            else "decide wire protocol: negotiate pipelined binary v2 "
            "(auto, the default) or pin v1/v2",
        )


def _client(args: argparse.Namespace):
    """The verb's client: the routing :class:`~repro.cluster.ClusterPDP`
    for ``cluster`` verbs, a :class:`~repro.client.RemotePDP` otherwise."""
    protocol = getattr(args, "protocol", "auto")
    if args.command == "cluster":
        from repro.cluster import ClusterPDP

        return ClusterPDP(
            (args.host, args.port), timeout=args.timeout, protocol=protocol
        )
    from repro.client import RemotePDP

    return RemotePDP(
        args.host, args.port, timeout=args.timeout, protocol_version=protocol
    )


def _print_reply(reply) -> None:
    """Print a verb's reply: text as is, a body as sorted, indented JSON."""
    if isinstance(reply, str):
        print(reply, end="" if reply.endswith("\n") else "\n")
    else:
        print(json.dumps(reply, indent=2, sort_keys=True))


def _ask(call):
    """A handler that opens the verb's client, makes the one
    ``call(pdp, args)`` and prints its reply."""

    def run(args: argparse.Namespace) -> int:
        with _client(args) as pdp:
            reply = call(pdp, args)
        _print_reply(reply)
        return 0

    return run


def _parse_role(text: str) -> Role:
    role_type, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"role {text!r} must be of the form type:value"
        )
    return Role(role_type, value)


def _add_request(cmd: argparse.ArgumentParser) -> None:
    """The Section 4.1 request flags every deciding verb takes."""
    cmd.add_argument("--user", required=True, help="user ID")
    cmd.add_argument(
        "--role",
        action="append",
        required=True,
        type=_parse_role,
        help="activated role as type:value (repeatable)",
    )
    cmd.add_argument("--operation", required=True)
    cmd.add_argument("--target", required=True)
    cmd.add_argument(
        "--context", required=True, help='business-context instance, e.g. "A=1, B=2"'
    )


def _request(args: argparse.Namespace, **extra) -> DecisionRequest:
    return DecisionRequest(
        user_id=args.user,
        roles=tuple(args.role),
        operation=args.operation,
        target=args.target,
        context_instance=ContextName.parse(args.context),
        timestamp=time.time(),
        **extra,
    )


def _print_decision(decision, counts: bool = True) -> int:
    """Print a verdict (and a grant's record counts); exit 2 on deny."""
    print(decision)
    if counts and decision.granted:
        print(
            f"recorded {decision.records_added} record(s), "
            f"purged {decision.records_purged}"
        )
    return 0 if decision.granted else 2


def _verb(parent, name: str, run, help: str, policy=None, address=None):
    """Declare one verb and its handler; ``policy`` is the help of a
    leading policy-file argument, ``address`` (``"server"`` or
    ``"coordinator"``) adds the connect options after it."""
    cmd = parent.add_parser(name, help=help)
    if policy is not None:
        cmd.add_argument("policy", help=policy)
    if address is not None:
        _add_address(cmd, coordinator=address == "coordinator")
    cmd.set_defaults(run=run)
    return cmd


def _group(parent, name: str, help: str):
    """A verb whose sub-verbs follow it (``policy``, ``cluster``,
    ``cluster resize``)."""
    return parent.add_parser(name, help=help).add_subparsers(
        dest=f"{name}_command", required=True
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-session Separation of Duties (MSoD) for RBAC",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _verb(
        commands,
        "validate",
        cmd_validate,
        "validate an MSoD policy XML document",
        POLICY_HELP,
    )
    _verb(commands, "show", cmd_show, "summarise an MSoD policy set", POLICY_HELP)

    decide = _verb(
        commands,
        "decide",
        cmd_decide,
        "evaluate one access request (one 'session')",
        POLICY_HELP,
    )
    _add_store_arguments(decide)
    _add_request(decide)
    _literal_flag(decide)
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

    compile_cmd = _verb(
        commands,
        "compile",
        cmd_compile,
        "compile the authoring DSL to Appendix-A XML",
    )
    compile_cmd.add_argument("source", help="path to a .msod DSL file")
    compile_cmd.add_argument(
        "-o", "--output", help="output XML path (default: stdout)"
    )

    _verb(
        commands,
        "decompile",
        cmd_decompile,
        "render an XML policy set as authoring DSL",
        POLICY_HELP,
    )
    _verb(
        commands,
        "lint",
        cmd_lint,
        "statically analyse a PERMIS XML policy and its MSoD component",
        "path to a PermisRBACPolicy XML file",
    )

    verify_cmd = _verb(
        commands,
        "verify",
        cmd_verify,
        "statically verify an MSoD policy set (stage 1 of the "
        "rollout pipeline); exit 1 on error-severity findings",
        "path to the policy XML (or .msod DSL) file",
    )
    verify_cmd.add_argument(
        "--permis",
        help="companion PermisRBACPolicy XML enabling the RBAC-layer "
        "reachability checks (assignable roles, grantable privileges)",
    )
    _add_address(
        verify_cmd,
        local_help="verify on a running `serve` instance (its engine "
        "parses the candidate) instead of locally",
    )
    _json_flag(verify_cmd)

    whatif_cmd = _verb(
        commands,
        "whatif",
        cmd_whatif,
        "differentially replay a recorded audit trail under a "
        "candidate policy set (stage 2); exit 1 when more decisions "
        "flip than --max-flips allows",
        "path to the candidate policy XML (or .msod DSL) file",
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
    _add_address(
        whatif_cmd,
        local_help="replay on a running `serve` instance against its "
        "own recent trail instead of --audit-dir",
    )
    _json_flag(whatif_cmd)

    explain_cmd = _verb(
        commands,
        "explain",
        cmd_explain,
        "dry-run a request and narrate the §4.2 evaluation "
        "(never modifies the retained ADI)",
        POLICY_HELP,
    )
    _add_store_arguments(explain_cmd)
    _add_request(explain_cmd)

    history = _verb(
        commands, "history", cmd_history, "list the retained-ADI records"
    )
    _add_store_arguments(history)

    purge = _verb(
        commands,
        "purge",
        cmd_purge,
        "administratively purge retained-ADI records (§4.3)",
    )
    _add_store_arguments(purge)
    group = purge.add_mutually_exclusive_group(required=True)
    group.add_argument("--context", help="purge a business context [instance]")
    group.add_argument("--user", help="purge one user's records")
    group.add_argument(
        "--older-than", type=float, help="purge records granted before this time"
    )
    group.add_argument("--all", action="store_true", help="purge everything")

    serve = _verb(
        commands,
        "serve",
        cmd_serve,
        "run the sharded MSoD authorization service (JSON-lines TCP)",
        POLICY_HELP,
    )
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
        help="micro-batch gather window in seconds (default: scaled to "
        "the shard count on stores that commit in batches, else 0)",
    )
    _literal_flag(serve)
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
    serve.add_argument(
        "--audit-dir",
        help="append every decision to a secure audit trail here",
    )
    serve.add_argument(
        "--audit-fsync",
        action="store_true",
        help="fsync each audit append before acknowledging",
    )
    _audit_flags(serve, "audit-trail-key")

    _add_request(
        _verb(
            commands,
            "remote-decide",
            cmd_remote_decide,
            "evaluate one access request against a running `serve` instance",
            address="server",
        )
    )
    remote_status = _verb(
        commands,
        "remote-status",
        _ask(
            lambda pdp, args: pdp.slowlog()
            if args.slowlog
            else pdp.metrics()
            if args.metrics
            else pdp.healthz()
        ),
        "print a running server's health (or --metrics) snapshot",
        address="server",
    )
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
    _verb(
        commands,
        "metrics",
        _ask(lambda pdp, args: pdp.metrics_text()),
        "scrape a running server's Prometheus text exposition",
        address="server",
    )

    policy_cmds = _group(
        commands,
        "policy",
        "live policy management against a running `serve` instance",
    )
    _verb(
        policy_cmds,
        "status",
        _ask(lambda pdp, args: pdp.policy_status()),
        "print the server's active policy version and reload count",
        address="server",
    )
    preload = _verb(
        policy_cmds,
        "reload",
        cmd_policy_reload,
        "hot-swap the server's policy set from an XML file, zero "
        "downtime (reloading an identical set is a detected no-op)",
        "path to the new policy XML file",
        "server",
    )
    _verify_flags(preload)
    preload.add_argument(
        "--principal",
        default=None,
        help="acting operator: the outgoing set's admin boundaries may "
        "refuse a principal with retained operational decisions",
    )

    cluster_cmds = _group(
        commands,
        "cluster",
        "multi-node MSoD cluster: serve, nodes, status, smoke test",
    )
    cserve = _verb(
        cluster_cmds,
        "serve",
        cmd_cluster_serve,
        "boot an N-shard cluster (primary+standby each) plus the "
        "routing coordinator, in one process",
        POLICY_HELP,
    )
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
    _no_fsync_flag(cserve)
    _audit_flags(cserve, "cluster-trail-key")

    cnode = _verb(
        cluster_cmds,
        "node",
        cmd_cluster_node,
        "run one standalone cluster node (the multi-process bench's "
        "building block)",
        POLICY_HELP,
    )
    cnode.add_argument("--name", required=True, help="node name")
    cnode.add_argument("--shard", required=True, help="owning shard name")
    cnode.add_argument(
        "--role", choices=("primary", "standby"), default="primary"
    )
    cnode.add_argument("--epoch", type=int, default=1)
    cnode.add_argument("--host", default="127.0.0.1")
    cnode.add_argument("--port", type=int, default=0)
    _add_store_arguments(cnode, default="memory")
    cnode.add_argument(
        "--audit-dir", required=True, help="this node's trail directory"
    )
    _audit_flags(cnode, "cluster-trail-key")
    _no_fsync_flag(cnode)

    for name, call, help in (
        (
            "status",
            lambda pdp, args: pdp.cluster_status(),
            "print the coordinator's cluster-status body",
        ),
        ("route", lambda pdp, args: pdp.route(), "print the current routing table"),
        (
            "metrics",
            lambda pdp, args: pdp.cluster_metrics_text(),
            "scrape the coordinator's Prometheus exposition "
            "(per-node up/primary/epoch gauges)",
        ),
    ):
        _verb(cluster_cmds, name, _ask(call), help, address="coordinator")

    creload = _verb(
        cluster_cmds,
        "reload",
        _ask(
            lambda pdp, args: pdp.reload_policy(
                args.policy,
                verify=args.verify,
                max_flips=args.max_flips,
                force=args.force,
                canary=args.canary,
                principal=args.principal,
            )
        ),
        "roll a new policy XML across every cluster node, standby "
        "first, via the coordinator",
        "path to the new policy XML file",
        "coordinator",
    )
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

    # Each resize verb's name is the action its reshard frame carries.
    resize_cmds = _group(
        cluster_cmds,
        "resize",
        "online topology changes: add-node (split), drain, "
        "rebalance, status — all under live load",
    )
    radd = _verb(
        resize_cmds,
        "add-node",
        _resize(lambda pdp, args: pdp.resize(args.resize_command)),
        "grow by one shard: boot a primary+standby pair and "
        "migrate its hash-ring range onto it without downtime",
    )
    rdrain = _verb(
        resize_cmds,
        "drain",
        _resize(
            lambda pdp, args: pdp.resize(args.resize_command, shard=args.shard)
        ),
        "shrink by one shard: migrate its users to the survivors, "
        "then retire its nodes (trails kept as sealed lineages)",
    )
    rdrain.add_argument("shard", help="name of the shard to retire")
    rrebalance = _verb(
        resize_cmds,
        "rebalance",
        _resize(
            lambda pdp, args: pdp.resize(
                args.resize_command,
                apply=args.apply,
                threshold=args.threshold,
            )
        ),
        "report per-shard resident-user imbalance from the store "
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
    for rcmd in (radd, rdrain, rrebalance):
        _add_address(rcmd, coordinator=True)
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
    _verb(
        resize_cmds,
        "status",
        _ask(lambda pdp, args: pdp.reshard_status()),
        "print the active migration (phase, users moved, events "
        "imported) and migration history counters",
        address="coordinator",
    )

    _add_request(
        _verb(
            cluster_cmds,
            "decide",
            cmd_cluster_decide,
            "evaluate one request through the routing cluster client",
            address="coordinator",
        )
    )

    csmoke = _verb(
        cluster_cmds,
        "smoke",
        cmd_cluster_smoke,
        "boot a cluster, run the hot-user workload, kill a primary "
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
    _json_flag(csmoke)
    csmoke.add_argument(
        "--resize",
        action="store_true",
        help="run the elastic-resize fault-injection smoke instead: "
        "2→3 split and 3→2 drain under live load, with the "
        "coordinator killed and a source primary killed mid-migration",
    )
    return parser


def _json_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )


def _literal_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--literal",
        action="store_true",
        help="use the literal published step order instead of strict mode",
    )


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


def _audit_flags(cmd: argparse.ArgumentParser, key: str) -> None:
    """Audit-trail flags shared by ``serve``, ``cluster serve`` and
    ``cluster node``."""
    cmd.add_argument(
        "--audit-key", default=key, help="HMAC key sealing the audit trails"
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


def _no_fsync_flag(cmd: argparse.ArgumentParser) -> None:
    """Cluster nodes fsync every trail append unless told not to."""
    cmd.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-append fsync (benchmarking only; loses the "
        "acknowledged-implies-durable guarantee)",
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
    """Run the static verifier over a PERMIS policy's MSoD component
    and RBAC layer; exit 1 on error findings."""
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


def _local_only(args: argparse.Namespace, **defaults) -> bool:
    """Whether ``--host`` came with a flag only a local run reads (one
    not at its default); says so on stderr.  Such a flag is refused
    rather than silently dropped."""
    given = [
        "--" + dest.replace("_", "-")
        for dest, default in defaults.items()
        if getattr(args, dest) != default
    ]
    if args.host is None or not given:
        return False
    print(
        f"error: {', '.join(given)} applies to a local run only and "
        "cannot be combined with --host",
        file=sys.stderr,
    )
    return True


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify a policy set; exit 1 on error findings."""
    if _local_only(args, permis=None):
        return 2
    if args.host is not None:
        with _client(args) as pdp:
            body = pdp.verify_policy(args.policy)
    else:
        from repro.api import verify_policy

        permis = None
        if args.permis:
            from repro.permis import parse_permis_policy

            with open(args.permis, "r", encoding="utf-8") as handle:
                permis = parse_permis_policy(handle.read())
        body = verify_policy(args.policy, permis=permis).to_dict()
    if args.json:
        _print_reply(body)
    else:
        from repro.verify import VerifyReport

        # One rendering for a local report and one from the wire.
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
    if _local_only(args, last_n_trails=None, since=0.0):
        return 2
    if args.host is not None:
        with _client(args) as pdp:
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
        _print_reply(body)
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

    with open_pdp(
        args.policy,
        store=_store_spec(args),
        mode=MODE_LITERAL if args.literal else MODE_STRICT,
        trace=args.trace,
    ) as pdp:
        request = _request(args)
        explanation = None
        if args.explain:
            from repro.core import explain

            # Narrate against pre-decision store state: the decision
            # below may append retained-ADI records.
            explanation = explain(pdp.engine, request)
        decision = pdp.decide(request)
    code = _print_decision(decision)
    if args.trace and decision.trace is not None:
        print(decision.trace.render())
    if explanation is not None:
        print(explanation.render())
    return code


def cmd_explain(args: argparse.Namespace) -> int:
    """Dry-run a request and narrate the evaluation (no writes)."""
    from repro.core import explain

    policy_set = parse_policy_set_file(args.policy)
    with closing(_open_store(args)) as store:
        explanation = explain(MSoDEngine(policy_set, store), _request(args))
    print(explanation.render())
    return 0 if explanation.granted else 2


def cmd_history(args: argparse.Namespace) -> int:
    """List every record in the retained-ADI store."""
    with closing(_open_store(args)) as store:
        records = RetainedADIManagementPort(store).list_records(
            [CONTROLLER_ROLE]
        )
    print(f"{len(records)} retained record(s)")
    for record in records:
        roles = ",".join(str(role) for role in record.roles)
        print(
            f"  #{record.record_id} t={record.granted_at:.0f} "
            f"{record.user_id} [{roles}] {record.operation}@{record.target} "
            f"in [{record.context_instance}]"
        )
    return 0


def cmd_purge(args: argparse.Namespace) -> int:
    """Administratively purge retained-ADI records (Section 4.3)."""
    with closing(_open_store(args)) as store:
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


def _wait_for_signal(*banner: str) -> None:
    """Print ``banner`` once SIGINT/SIGTERM are handled, then block the
    main thread until one of them arrives."""
    import threading

    stop = threading.Event()

    def handler(signum, frame):  # pragma: no cover - signal timing
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    for line in banner:
        print(line, flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the networked authorization service until SIGINT/SIGTERM,
    then drain its shard queues."""
    from repro.api import open_server
    from repro.obs import Recorder

    window = args.gather_window
    if window is not None and not 0.0 <= window < float("inf"):
        raise ReproError("--gather-window must be a finite number >= 0")
    policy_set = parse_policy_set_file(args.policy, strict=not args.relaxed)
    # The trail outlives the server: it is closed after the drain, and
    # also when the server fails to start.
    with ExitStack() as owned:
        audit = None
        if args.audit_dir:
            from repro.audit import AuditTrailManager

            audit = owned.enter_context(
                AuditTrailManager(
                    args.audit_dir,
                    args.audit_key.encode("utf-8"),
                    max_records=args.audit_max_records,
                    max_bytes=args.audit_max_bytes,
                    fsync=args.audit_fsync,
                )
            )
        server = owned.enter_context(
            open_server(
                policy_set,
                _store_spec(args),
                host=args.host,
                port=args.port,
                n_shards=args.shards,
                queue_depth=args.queue_depth,
                batch_max=args.batch_max,
                gather_window=args.gather_window,
                perf=Recorder(),
                trace=args.trace,
                slowlog_capacity=args.slowlog_size,
                mode=MODE_LITERAL if args.literal else MODE_STRICT,
                audit=audit,
            )
        )
        _wait_for_signal(
            f"serving MSoD decisions on {args.host}:{server.port} "
            f"({args.shards} shards, queue depth {args.queue_depth}, "
            f"batch max {args.batch_max}"
            f"{', tracing on' if args.trace else ''})"
        )
        print("draining shard queues...", flush=True)
    return 0


def cmd_remote_decide(args: argparse.Namespace) -> int:
    """One decision against a running ``serve`` instance."""
    with _client(args) as pdp:
        decision = pdp.decide(_request(args))
    return _print_decision(decision)


def cmd_policy_reload(args: argparse.Namespace) -> int:
    """Hot-swap a running server's policy set from an XML file."""
    with _client(args) as pdp:
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


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Boot a full cluster in one process and run until interrupted."""
    from repro.api import open_cluster

    cluster = open_cluster(
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
    with cluster:
        shards = [cluster.shard(name) for name in cluster.shard_names]
        _wait_for_signal(
            f"cluster coordinator on {cluster.host}:{cluster.port} "
            f"({args.cluster_shards} shards, store={args.store}, "
            f"fsync={'off' if args.no_fsync else 'on'})",
            *(
                f"  {state.name}: primary {state.primary.name} "
                f"{state.primary.host}:{state.primary.port}, "
                f"standby {state.standby.name} "
                f"{state.standby.host}:{state.standby.port}"
                for state in shards
            ),
        )
        print("stopping cluster...", flush=True)
    return 0


def cmd_cluster_node(args: argparse.Namespace) -> int:
    """Run one standalone cluster node until interrupted."""
    from repro.cluster import ClusterNode

    node = ClusterNode(
        args.name,
        args.shard,
        parse_policy_set_file(args.policy),
        _open_store(args),
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
        _wait_for_signal(
            f"node {node.name} serving shard {node.shard} on "
            f"{node.host}:{node.port} role={node.role} epoch={node.epoch}"
        )
        print("stopping node...", flush=True)
    finally:
        node.stop()
    return 0


def cmd_cluster_decide(args: argparse.Namespace) -> int:
    """One decision through the routing, failover-surviving client."""
    import uuid

    with _client(args) as pdp:
        # The cluster journal dedupes by request_id across *all*
        # clients, so a process-local counter id would collide with
        # other CLI invocations.
        request = _request(args, request_id=f"cli-{uuid.uuid4().hex}")
        decision = pdp.decide(request)
    return _print_decision(decision, counts=False)


def _resize(start):
    """A ``cluster resize`` handler: ``start(pdp, args)`` asks the
    coordinator for the change (or plan); with ``--wait`` it then polls
    until the migration completes, exiting 1 at ``--wait-timeout``."""

    def run(args: argparse.Namespace) -> int:
        with _client(args) as pdp:
            body = start(pdp, args)
            deadline = time.monotonic() + args.wait_timeout
            while args.wait and body.get("active"):
                if time.monotonic() >= deadline:
                    _print_reply(body)
                    print(
                        f"migration still active after {args.wait_timeout}s",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(0.2)
                body = pdp.reshard_status()
        _print_reply(body)
        return 0

    return run


def _smoke_probe(user_id, role, privilege, context, timestamp):
    """A smoke-workload request: one role exercising one privilege."""
    return DecisionRequest(
        user_id=user_id,
        roles=(role,),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=timestamp,
    )


def _smoke_extend(policy_set, context: str, policy_id: str):
    """``policy_set`` plus one Teller/Auditor MMER policy over a context
    no smoke workload touches: the epoch moves, no decision changes."""
    from repro.core import MMER, MSoDPolicy, MSoDPolicySet
    from repro.workload import AUDITOR, TELLER

    return MSoDPolicySet(
        list(policy_set)
        + [
            MSoDPolicy(
                ContextName.parse(context),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id=policy_id,
            )
        ]
    )


def _smoke_users_on(ring, shard: str, prefix: str):
    """User ids ``<prefix>-<n>`` the ring routes to ``shard``."""
    return (
        f"{prefix}-{index}"
        for index in range(10_000)
        if ring.shard_for(f"{prefix}-{index}") == shard
    )


def _smoke_load(pdp, name: str, probes, stop, errors: list):
    """Start a live-load thread deciding ``probes(serial)`` for serial
    1, 2, ... until ``stop`` is set; the first error ends it.  Returns
    the thread and its ``(request, effect)`` log, in issue order."""
    import threading

    log: list = []

    def run() -> None:
        serial = 0
        while not stop.is_set():
            serial += 1
            for request in probes(serial):
                try:
                    effect = pdp.decide(request).effect
                except Exception as exc:
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    return
                log.append((request, effect))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, log


def _smoke_check_oracle(
    cluster, policy_set, requests, effects, report, failures, when=""
) -> None:
    """The check both smoke scenarios end with: per-shard single-node
    oracles agree on every effect and on each shard's retained ADI, and
    no user holds Teller and Auditor within one context instance.

    Each oracle is fed exactly the substream the final ring sends its
    shard.  (A single global engine is *not* the right oracle — step
    4's context-started check spans users, so the record set for a
    shared context depends on which other-shard users touched it
    first.  Per-user routing promises per-shard equivalence.)

    The per-shard comparison keeps ``granted_at``, which
    ``core.store_digest`` leaves out: §4.3 purges decide on it, and a
    replicated, failed-over or resharded record must carry the oracle's
    timestamp.
    """
    from repro.core import InMemoryRetainedADIStore
    from repro.workload import AUDITOR, TELLER

    def digest(store) -> list:
        return sorted(
            (
                record.user_id,
                tuple(sorted((r.role_type, r.value) for r in record.roles)),
                record.operation,
                record.target,
                str(record.context_instance),
                record.granted_at,
                record.request_id,
            )
            for record in store.records()
        )

    oracles = {
        name: MSoDEngine(policy_set, InMemoryRetainedADIStore())
        for name in cluster.shard_names
    }
    oracle_effects = [
        oracles[cluster.ring.shard_for(request.user_id)].check(request).effect
        for request in requests
    ]
    report["grants"] = effects.count("grant")
    report["denies"] = effects.count("deny")
    mismatches = sum(
        1 for ours, theirs in zip(effects, oracle_effects) if ours != theirs
    )
    if mismatches:
        failures.append(f"{mismatches} decision(s) diverged from the oracle")

    held: dict = {}
    exclusive = 0
    for name in cluster.shard_names:
        store = cluster.shard(name).primary.store
        for record in store.records():
            key = (record.user_id, str(record.context_instance))
            roles = held.setdefault(key, set())
            roles.update(record.roles)
            exclusive += TELLER in roles and AUDITOR in roles
        if digest(store) != digest(oracles[name].store):
            failures.append(
                f"{name} retained ADI differs from its single-node "
                f"oracle{when}"
            )
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
        _print_reply(report)
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
    import functools
    import tempfile
    import threading

    from repro.api import open_cluster
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
    logs: list[list] = []

    def probes(index: int, serial: int) -> list:
        user = f"resize-user-{index}-{serial % 8}"
        # The bank policy's context is "Branch=*, Period=!" — only
        # the '!' component binds to the instance, so the *user
        # must be in the Period value* for the effective policy
        # context to be private to the user.  A shared period
        # (Period=S1 for everyone) would make the engine's
        # "context started" check cross-user, and the retained-ADI
        # copy count would then depend on which user a given
        # engine served first — unreproducible by any per-user
        # oracle replay.
        fresh = ContextName.parse(f"Branch={user}, Period={user}-S{serial}")
        stamp = float(index * 1_000_000 + serial)
        batch = [_smoke_probe(user, TELLER, HANDLE_CASH, fresh, stamp)]
        if serial % 5 == 0:
            # Re-enter a context this user already exercised as
            # Teller, as Auditor: the bank MMER must deny it, on
            # whichever node owns the user at that moment.
            batch.append(
                _smoke_probe(user, AUDITOR, AUDIT_BOOKS, fresh, stamp + 0.5)
            )
        return batch

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
        ) as cluster:
            with cluster.client(failover_wait=60.0) as pdp:
                threads = []
                for i in range(n_workers):
                    thread, log = _smoke_load(
                        pdp,
                        f"worker {i}",
                        functools.partial(probes, i),
                        stop,
                        worker_errors,
                    )
                    threads.append(thread)
                    logs.append(log)
                try:
                    await_decisions(target_requests // 6)

                    # ---- 2→3 split with coordinator + primary kills.
                    added = cluster.add_shard()
                    report["added_shard"] = added
                    pre_crash = cluster.reshard_status()
                    report["split_active_at_crash"] = pre_crash["active"]
                    cluster.crash_coordinator()
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
                    report["split_killed"] = cluster.kill_primary(source)
                    time.sleep(0.3)
                    cluster.restart_coordinator()
                    report["split"] = cluster.wait_reshard(timeout=120.0)[
                        "last_migration"
                    ]
                    if added not in cluster.shard_names:
                        failures.append("split did not add the new shard")

                    await_decisions(2 * target_requests // 3)
                    report["rebalance"] = cluster.rebalance()

                    # ---- 3→2 drain, killing the subject's primary the
                    # moment the migration starts (before its first
                    # catch-up tick races us): the drain must finish
                    # from the promoted standby plus the dead primary's
                    # sealed trail lineage.
                    cluster.drain_shard(added)
                    report["drain_killed"] = cluster.kill_primary(added)
                    report["drain"] = cluster.wait_reshard(timeout=120.0)[
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

            # ---- the oracle: every user's stream, in issue order.
            # Every context is private to its user, so the final ring's
            # per-shard oracles hold exactly the history a
            # never-resharded cluster would.
            decided = [entry for log in logs for entry in log]
            _smoke_check_oracle(
                cluster,
                policy_set,
                [request for request, _ in decided],
                [effect for _, effect in decided],
                report,
                failures,
                when=" after the resize cycle",
            )
            if report["denies"] < 1:
                failures.append("workload exercised no MMER denial")
    return _smoke_finish(report, failures, args.json)


def _smoke_mmcd_failover(store: str, report: dict, failures: list) -> None:
    """An MMCD owner bound before a primary kill still excludes a second
    user after failover: owner state survives promotion.  One shard, as
    per-user routing cannot enforce an MMCD on more."""
    import tempfile

    from repro.api import open_cluster
    from repro.core.constraints import MMCD, Privilege
    from repro.core.policy import MSoDPolicy, MSoDPolicySet
    from repro.workload import AUDITOR

    review = Privilege("review", "filing")
    signoff = Privilege("signoff", "filing")
    policy_set = MSoDPolicySet([
        MSoDPolicy(
            ContextName.parse("Filing=*, Case=!"),
            constraints=[MMCD([review, signoff])],
            policy_id="filing-duty-binding",
        )
    ])
    context = ContextName.parse("Filing=Annual, Case=2026")
    # (report key, user, privilege, expected); the primary dies after
    # the owner's bind.
    steps = [
        ("owner_bind", "duty-owner", review, "grant"),
        ("intruder_post_failover", "duty-intruder", signoff, "deny"),
        ("owner_completion", "duty-owner", signoff, "grant"),
    ]
    effects: dict = {}
    with tempfile.TemporaryDirectory() as data_dir:
        with open_cluster(
            policy_set, data_dir, n_shards=1, store=store
        ) as cluster, cluster.client(failover_wait=30.0) as pdp:
            for stamp, (key, user_id, privilege, _) in enumerate(steps, 1):
                if stamp == 2:
                    cluster.kill_primary("shard-0")
                request = _smoke_probe(
                    user_id, AUDITOR, privilege, context, float(stamp)
                )
                effects[key] = pdp.decide(request).effect
    report["mmcd"] = effects
    failures.extend(
        f"MMCD {key} was {effects[key]}, expected {expected}"
        for key, _, _, expected in steps
        if effects[key] != expected
    )


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
    carries its policy epoch, and the per-node gauges scrape.  A
    one-shard cluster then checks that MMCD owner state survives a
    failover (:func:`_smoke_mmcd_failover`).

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
    from repro.workload import (
        HANDLE_CASH,
        TELLER,
        bank_policy_set,
        decision_request_stream,
        hot_user_stream,
    )

    policy_set = bank_policy_set()
    # The mid-stream reload target: the bank policy plus one extra
    # policy over a *disjoint* context (Region/Quarter, never touched
    # by the bank workload), so the reload changes the digest and
    # epoch everywhere without changing any decision — which keeps the
    # per-shard single-node oracles below valid as-is.
    extended_set = _smoke_extend(policy_set, "Region=*, Quarter=!", "regional")
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
        ) as cluster:
            hot_shard = cluster.ring.shard_for("hot-user")
            report["hot_shard"] = hot_shard
            with cluster.client(failover_wait=30.0) as pdp:
                effects = []
                for index, request in enumerate(requests):
                    if index == quarter:
                        reload_body = pdp.reload_policy(extended_set)
                        report["policy_reload_changed"] = reload_body[
                            "changed"
                        ]
                    if index == half:
                        report["killed"] = cluster.kill_primary(hot_shard)
                    effects.append(pdp.decide(request).effect)

                # Canary rollout under live load: stage a third policy
                # set — again decision-disjoint (Desk/Cycle, untouched
                # by any workload), so the oracles stay valid — on a
                # healthy shard's standby while a background thread
                # keeps that shard's primary deciding.  The mirror must
                # observe live decisions and report zero flips before
                # the coordinator-wide rollout (epoch 3 everywhere).
                canary_set = _smoke_extend(
                    extended_set, "Desk=*, Cycle=!", "desk"
                )
                canary_shard = next(
                    (
                        name
                        for name in cluster.shard_names
                        if name != hot_shard
                    ),
                    hot_shard,
                )
                canary_user = next(
                    _smoke_users_on(cluster.ring, canary_shard, "canary-user")
                )
                canary_errors: list = []
                canary_stop = threading.Event()

                def canary_probes(serial: int) -> list:
                    context = f"Branch=Canary, Period=C{serial}"
                    return [
                        _smoke_probe(
                            canary_user,
                            TELLER,
                            HANDLE_CASH,
                            ContextName.parse(context),
                            float(10_000 + serial),
                        )
                    ]

                loader, canary_log = _smoke_load(
                    pdp, "canary", canary_probes, canary_stop, canary_errors
                )
                try:
                    canary_body = cluster.canary_reload_policy(
                        canary_set,
                        shard_name=canary_shard,
                        max_flips=0,
                        min_decisions=5,
                        timeout=30.0,
                    )
                finally:
                    canary_stop.set()
                    loader.join(timeout=30.0)
                requests.extend(request for request, _ in canary_log)
                effects.extend(effect for _, effect in canary_log)
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
            for shard_name in cluster.shard_names:
                state = cluster.shard(shard_name)
                for node in (state.primary, state.standby):
                    with AuditTrailManager(
                        node.trail_dir,
                        b"cluster-trail-key",
                        tolerate_ahead=True,
                    ) as trails:
                        for event in trails.events():
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

            _smoke_check_oracle(
                cluster, policy_set, requests, effects, report, failures
            )
    _smoke_mmcd_failover(args.store, report, failures)
    return _smoke_finish(report, failures, args.json)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
