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
``resize``, ``decide``).  The cluster's fault scenarios (failover,
reload, canary, resize) are tests, not verbs: see
``tests/test_cluster_failover.py`` and ``tests/test_reshard_failover.py``.

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
    unless ``--host`` is given."""
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


def _client(args: argparse.Namespace):
    """The verb's client: the routing :class:`~repro.cluster.ClusterPDP`
    for ``cluster`` verbs, a :class:`~repro.client.RemotePDP` otherwise."""
    if args.command == "cluster":
        from repro.cluster import ClusterPDP

        return ClusterPDP((args.host, args.port), timeout=args.timeout)
    from repro.client import RemotePDP

    return RemotePDP(
        args.host,
        args.port,
        timeout=args.timeout,
        protocol_version=getattr(args, "protocol", "v2"),
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


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
        type=_non_negative,
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

    remote_decide = _verb(
        commands,
        "remote-decide",
        cmd_remote_decide,
        "evaluate one access request against a running `serve` instance",
        address="server",
    )
    remote_decide.add_argument(
        "--protocol",
        choices=("v1", "v2"),
        default="v2",
        help="wire codec of the connection: length-prefixed v2 (the "
        "default) or JSON-lines v1",
    )
    _add_request(remote_decide)
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
        "multi-node MSoD cluster: serve, nodes, status, reload, resize",
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
        help="replay one shard primary's audit trail under the "
        "candidate after a live observation window, and roll out "
        "cluster-wide only if flips stay within --max-flips",
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
