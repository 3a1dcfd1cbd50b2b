"""Unit tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.xmlpolicy import COMBINED_POLICY_XML


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.xml"
    path.write_text(COMBINED_POLICY_XML)
    return str(path)


@pytest.fixture
def adi_file(tmp_path):
    return str(tmp_path / "adi.db")


def decide_args(policy_file, adi_file, user, role, operation, target, context):
    return [
        "decide",
        policy_file,
        "--adi",
        adi_file,
        "--user",
        user,
        "--role",
        role,
        "--operation",
        operation,
        "--target",
        target,
        "--context",
        context,
    ]


class TestValidate:
    def test_valid_document(self, policy_file, capsys):
        assert main(["validate", policy_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<MSoDPolicySet><MSoDPolicy/></MSoDPolicySet>")
        assert main(["validate", str(path)]) == 1
        assert "problem:" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.xml"]) == 3
        assert "error:" in capsys.readouterr().err


class TestShow:
    def test_summary(self, policy_file, capsys):
        assert main(["show", policy_file]) == 0
        out = capsys.readouterr().out
        assert "2 MSoD policies" in out
        assert "Branch=*, Period=!" in out
        assert "MMER m=2" in out
        assert "MMEP m=2" in out


class TestCompileDecompile:
    DSL = (
        'policy bank within "Branch=*, Period=!":\n'
        "    mutually exclusive roles limit 2:\n"
        "        employee:Teller, employee:Auditor\n"
    )

    def test_compile_to_stdout(self, tmp_path, capsys):
        source = tmp_path / "policy.msod"
        source.write_text(self.DSL)
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "<MSoDPolicySet>" in out
        assert 'value="Teller"' in out

    def test_compile_to_file_then_decide(self, tmp_path, adi_file, capsys):
        source = tmp_path / "policy.msod"
        source.write_text(self.DSL)
        xml_path = tmp_path / "policy.xml"
        assert main(["compile", str(source), "-o", str(xml_path)]) == 0
        capsys.readouterr()
        code = main(
            decide_args(
                str(xml_path), adi_file, "alice", "employee:Teller",
                "handleCash", "till://1", "Branch=York, Period=2006",
            )
        )
        assert code == 0

    def test_decompile_round_trip(self, policy_file, tmp_path, capsys):
        assert main(["decompile", policy_file]) == 0
        dsl_text = capsys.readouterr().out
        assert "mutually exclusive roles limit 2:" in dsl_text
        source = tmp_path / "round.msod"
        source.write_text(dsl_text)
        assert main(["compile", str(source)]) == 0

    def test_compile_error_reported(self, tmp_path, capsys):
        source = tmp_path / "bad.msod"
        source.write_text("gibberish\n")
        assert main(["compile", str(source)]) == 3
        assert "error:" in capsys.readouterr().err


class TestLint:
    def _write_permis_policy(self, tmp_path, policy):
        from repro.permis import write_permis_policy

        path = tmp_path / "permis.xml"
        path.write_text(write_permis_policy(policy))
        return str(path)

    def test_lint_healthy_policy(self, tmp_path, capsys):
        from repro.core import Privilege, Role
        from repro.permis import PermisPolicyBuilder
        from repro.xmlpolicy import bank_policy_set

        policy = (
            PermisPolicyBuilder()
            .allow_assignment(
                "cn=soa,o=b,c=gb",
                [Role("employee", "Teller"), Role("employee", "Auditor")],
                "o=b,c=gb",
            )
            .grant(Role("employee", "Teller"), [Privilege("handleCash", "t")])
            .grant(
                Role("employee", "Auditor"),
                [
                    Privilege("auditBooks", "l"),
                    Privilege(
                        "CommitAudit", "http://audit.location.com/audit"
                    ),
                ],
            )
            .with_msod(bank_policy_set())
            .build()
        )
        path = self._write_permis_policy(tmp_path, policy)
        assert main(["lint", path]) == 0

    def test_lint_broken_policy_exits_nonzero(self, tmp_path, capsys):
        from repro.core import Privilege, Role
        from repro.permis import PermisPolicyBuilder
        from repro.xmlpolicy import bank_policy_set

        policy = (
            PermisPolicyBuilder()
            .allow_assignment(
                "cn=soa,o=b,c=gb", [Role("employee", "Teller")], "o=b,c=gb"
            )
            .grant(Role("employee", "Teller"), [Privilege("handleCash", "t")])
            .with_msod(bank_policy_set())  # auditor unassignable
            .build()
        )
        path = self._write_permis_policy(tmp_path, policy)
        assert main(["lint", path]) == 1
        assert "[error]" in capsys.readouterr().out


class TestDecide:
    def test_multi_session_deny_across_invocations(
        self, policy_file, adi_file, capsys
    ):
        """Each CLI invocation is a separate session; the SQLite retained
        ADI carries the history between them."""
        code = main(
            decide_args(
                policy_file, adi_file, "alice", "employee:Teller",
                "handleCash", "till://1", "Branch=York, Period=2006",
            )
        )
        assert code == 0
        assert "GRANT" in capsys.readouterr().out

        code = main(
            decide_args(
                policy_file, adi_file, "alice", "employee:Auditor",
                "auditBooks", "ledger://1", "Branch=Leeds, Period=2006",
            )
        )
        assert code == 2
        assert "DENY" in capsys.readouterr().out

    def test_unmatched_context_grants(self, policy_file, adi_file, capsys):
        code = main(
            decide_args(
                policy_file, adi_file, "alice", "employee:Teller",
                "anything", "t://x", "Unrelated=ctx",
            )
        )
        assert code == 0

    def test_literal_mode_flag(self, policy_file, adi_file, capsys):
        """--literal follows the published step order: a simultaneous
        co-activation on a context-starting request is granted."""
        args = decide_args(
            policy_file, adi_file, "alice", "employee:Teller",
            "auditBooks", "ledger://1", "Branch=York, Period=2006",
        ) + ["--role", "employee:Auditor", "--literal"]
        assert main(args) == 0
        assert "GRANT" in capsys.readouterr().out
        # Strict mode (the default) denies the same request on a fresh ADI.
        strict_args = decide_args(
            policy_file, str(adi_file) + ".strict", "alice",
            "employee:Teller", "auditBooks", "ledger://1",
            "Branch=York, Period=2006",
        ) + ["--role", "employee:Auditor"]
        assert main(strict_args) == 2

    def test_bad_role_syntax_rejected(self, policy_file, adi_file):
        with pytest.raises(SystemExit):
            main(
                decide_args(
                    policy_file, adi_file, "alice", "not-a-role",
                    "op", "t", "A=1",
                )
            )


class TestExplain:
    def test_explain_is_a_dry_run(self, policy_file, adi_file, capsys):
        main(
            decide_args(
                policy_file, adi_file, "alice", "employee:Teller",
                "handleCash", "till://1", "Branch=York, Period=2006",
            )
        )
        capsys.readouterr()
        explain_args = [
            "explain", policy_file, "--adi", adi_file, "--user", "alice",
            "--role", "employee:Auditor", "--operation", "auditBooks",
            "--target", "ledger://1", "--context", "Branch=Leeds, Period=2006",
        ]
        # Run twice: a dry run never changes the verdict or the store.
        assert main(explain_args) == 2
        first = capsys.readouterr().out
        assert "VIOLATION" in first
        assert "[step 5]" in first
        assert main(explain_args) == 2
        # The retained ADI still holds only the original grant.
        main(["history", "--adi", adi_file])
        history = capsys.readouterr().out.splitlines()[-2]
        assert "alice" in history


class TestHistoryAndPurge:
    def _grant_one(self, policy_file, adi_file):
        main(
            decide_args(
                policy_file, adi_file, "alice", "employee:Teller",
                "handleCash", "till://1", "Branch=York, Period=2006",
            )
        )

    def test_history_lists_records(self, policy_file, adi_file, capsys):
        self._grant_one(policy_file, adi_file)
        capsys.readouterr()
        assert main(["history", "--adi", adi_file]) == 0
        out = capsys.readouterr().out
        assert "alice" in out
        assert "Branch=York, Period=2006" in out

    def test_purge_context(self, policy_file, adi_file, capsys):
        self._grant_one(policy_file, adi_file)
        capsys.readouterr()
        assert main(
            ["purge", "--adi", adi_file, "--context", "Branch=*, Period=2006"]
        ) == 0
        assert main(["history", "--adi", adi_file]) == 0
        assert "0 retained record(s)" in capsys.readouterr().out

    def test_purge_user(self, policy_file, adi_file, capsys):
        self._grant_one(policy_file, adi_file)
        capsys.readouterr()
        main(["purge", "--adi", adi_file, "--user", "alice"])
        assert "removed" in capsys.readouterr().out

    def test_purge_all(self, policy_file, adi_file, capsys):
        self._grant_one(policy_file, adi_file)
        capsys.readouterr()
        main(["purge", "--adi", adi_file, "--all"])
        main(["history", "--adi", adi_file])
        assert "0 retained record(s)" in capsys.readouterr().out


class TestWhatIfTrailWindow:
    def test_a_negative_last_n_trails_is_a_usage_error(
        self, policy_file, tmp_path, capsys
    ):
        argv = [
            "whatif", policy_file, "--audit-dir", str(tmp_path),
            "--last-n-trails", "-1",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--last-n-trails" in capsys.readouterr().err


class TestLocalOnlyFlagsWithHost:
    """``--host`` runs the verb on a server: a flag only a local run reads
    is refused (exit 2) instead of silently dropped.  The refusal comes
    before any connection, so no server needs to listen on the port."""

    REMOTE = ["--host", "127.0.0.1", "--port", "1"]

    def test_verify_refuses_permis(self, policy_file, capsys):
        argv = ["verify", policy_file, *self.REMOTE, "--permis", policy_file]
        assert main(argv) == 2
        assert "--permis" in capsys.readouterr().err

    def test_whatif_refuses_last_n_trails(self, policy_file, capsys):
        argv = ["whatif", policy_file, *self.REMOTE, "--last-n-trails", "1"]
        assert main(argv) == 2
        assert "--last-n-trails" in capsys.readouterr().err

    def test_whatif_refuses_since(self, policy_file, capsys):
        argv = ["whatif", policy_file, *self.REMOTE, "--since", "5"]
        assert main(argv) == 2
        assert "--since" in capsys.readouterr().err

    def test_whatif_refuses_host_with_audit_dir(
        self, policy_file, tmp_path, capsys
    ):
        argv = ["whatif", policy_file, *self.REMOTE, "--audit-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "exactly one of --audit-dir" in capsys.readouterr().err


class TestSmokeOracle:
    """The per-shard oracle the cluster fault tests end with compares
    each shard with its single-node oracle record for record, and a
    grant timestamp is part of the record: §4.3 purges decide on it."""

    @staticmethod
    def _check(shard_store, requests, effects):
        from types import SimpleNamespace

        from repro.workload import bank_policy_set
        from tests.cluster_oracle import oracle_failures

        shard = SimpleNamespace(primary=SimpleNamespace(store=shard_store))
        cluster = SimpleNamespace(
            shard_names=["s0"],
            ring=SimpleNamespace(shard_for=lambda user: "s0"),
            shard=lambda name: shard,
        )
        return oracle_failures(cluster, bank_policy_set(), requests, effects)

    @staticmethod
    def _stream():
        from repro.core import (
            ContextName,
            DecisionRequest,
            InMemoryRetainedADIStore,
            MSoDEngine,
        )
        from repro.workload import TELLER, bank_policy_set

        requests = [
            DecisionRequest(
                user_id=f"u{i}",
                roles=(TELLER,),
                operation="handleCash",
                target="till://1",
                context_instance=ContextName.parse(f"Branch=B{i}, Period=P1"),
                timestamp=float(i),
            )
            for i in range(4)
        ]
        store = InMemoryRetainedADIStore()
        engine = MSoDEngine(bank_policy_set(), store)
        effects = [engine.check(request).effect for request in requests]
        return store, requests, effects

    def test_identical_shard_passes(self):
        store, requests, effects = self._stream()
        assert effects == ["grant"] * 4
        assert self._check(store, requests, effects) == []

    def test_shifted_grant_timestamp_is_a_divergence(self):
        from repro.core import InMemoryRetainedADIStore

        store, requests, effects = self._stream()
        shifted = InMemoryRetainedADIStore()
        for record in store.records():
            shifted.add(record._replace(granted_at=record.granted_at + 1))
        assert self._check(shifted, requests, effects) == [
            "s0 retained ADI differs from its single-node oracle"
        ]


# --------------------------------------------------------------------------
# The parser tree, pinned: every leaf verb path with each action's option
# strings, dest, default, type name, choices, required flag and action
# class.  A fold of the CLI's wiring must leave this byte-identical.

PARSER_TREE = {
    "validate": [
        ((), "policy", None, None, None, True, "_StoreAction"),
    ],
    "show": [
        ((), "policy", None, None, None, True, "_StoreAction"),
    ],
    "decide": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
        (("--user",), "user", None, None, None, True, "_StoreAction"),
        (("--role",), "role", None, "_parse_role", None, True, "_AppendAction"),
        (("--operation",), "operation", None, None, None, True, "_StoreAction"),
        (("--target",), "target", None, None, None, True, "_StoreAction"),
        (("--context",), "context", None, None, None, True, "_StoreAction"),
        (("--literal",), "literal", False, None, None, False, "_StoreTrueAction"),
        (("--trace",), "trace", False, None, None, False, "_StoreTrueAction"),
        (("--explain",), "explain", False, None, None, False, "_StoreTrueAction"),
    ],
    "compile": [
        ((), "source", None, None, None, True, "_StoreAction"),
        (("-o", "--output"), "output", None, None, None, False, "_StoreAction"),
    ],
    "decompile": [
        ((), "policy", None, None, None, True, "_StoreAction"),
    ],
    "lint": [
        ((), "policy", None, None, None, True, "_StoreAction"),
    ],
    "verify": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--permis",), "permis", None, None, None, False, "_StoreAction"),
        (("--host",), "host", None, None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--json",), "json", False, None, None, False, "_StoreTrueAction"),
    ],
    "whatif": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--audit-dir",), "audit_dir", None, None, None, False, "_StoreAction"),
        (("--audit-key",), "audit_key", "audit-trail-key", None, None, False, "_StoreAction"),
        (("--last-n-trails",), "last_n_trails", None, "_non_negative", None, False, "_StoreAction"),
        (("--since",), "since", 0.0, "float", None, False, "_StoreAction"),
        (("--max-flips",), "max_flips", 0, "int", None, False, "_StoreAction"),
        (("--host",), "host", None, None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--json",), "json", False, None, None, False, "_StoreTrueAction"),
    ],
    "explain": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
        (("--user",), "user", None, None, None, True, "_StoreAction"),
        (("--role",), "role", None, "_parse_role", None, True, "_AppendAction"),
        (("--operation",), "operation", None, None, None, True, "_StoreAction"),
        (("--target",), "target", None, None, None, True, "_StoreAction"),
        (("--context",), "context", None, None, None, True, "_StoreAction"),
    ],
    "history": [
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
    ],
    "purge": [
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
        (("--context",), "context", None, None, None, False, "_StoreAction"),
        (("--user",), "user", None, None, None, False, "_StoreAction"),
        (("--older-than",), "older_than", None, "float", None, False, "_StoreAction"),
        (("--all",), "all", False, None, None, False, "_StoreTrueAction"),
    ],
    "serve": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--shards",), "shards", 4, "int", None, False, "_StoreAction"),
        (("--queue-depth",), "queue_depth", 256, "int", None, False, "_StoreAction"),
        (("--batch-max",), "batch_max", 32, "int", None, False, "_StoreAction"),
        (("--gather-window",), "gather_window", None, "float", None, False, "_StoreAction"),
        (("--literal",), "literal", False, None, None, False, "_StoreTrueAction"),
        (("--relaxed",), "relaxed", False, None, None, False, "_StoreTrueAction"),
        (("--trace",), "trace", False, None, None, False, "_StoreTrueAction"),
        (("--slowlog-size",), "slowlog_size", 32, "int", None, False, "_StoreAction"),
        (("--audit-dir",), "audit_dir", None, None, None, False, "_StoreAction"),
        (("--audit-fsync",), "audit_fsync", False, None, None, False, "_StoreTrueAction"),
        (("--audit-key",), "audit_key", "audit-trail-key", None, None, False, "_StoreAction"),
        (("--audit-max-records",), "audit_max_records", 10_000, "int", None, False, "_StoreAction"),
        (("--audit-max-bytes",), "audit_max_bytes", None, "int", None, False, "_StoreAction"),
    ],
    "remote-decide": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--protocol",), "protocol", "v2", None, ("v1", "v2"), False, "_StoreAction"),
        (("--user",), "user", None, None, None, True, "_StoreAction"),
        (("--role",), "role", None, "_parse_role", None, True, "_AppendAction"),
        (("--operation",), "operation", None, None, None, True, "_StoreAction"),
        (("--target",), "target", None, None, None, True, "_StoreAction"),
        (("--context",), "context", None, None, None, True, "_StoreAction"),
    ],
    "remote-status": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--metrics",), "metrics", False, None, None, False, "_StoreTrueAction"),
        (("--slowlog",), "slowlog", False, None, None, False, "_StoreTrueAction"),
    ],
    "metrics": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "policy status": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "policy reload": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8750, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--verify",), "verify", False, None, None, False, "_StoreTrueAction"),
        (("--max-flips",), "max_flips", 0, "int", None, False, "_StoreAction"),
        (("--force",), "force", False, None, None, False, "_StoreTrueAction"),
        (("--principal",), "principal", None, None, None, False, "_StoreAction"),
    ],
    "cluster serve": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--data-dir",), "data_dir", None, None, None, True, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--cluster-shards",), "cluster_shards", 2, "int", None, False, "_StoreAction"),
        (("--store",), "store", "sqlite", None, None, False, "_StoreAction"),
        (("--no-fsync",), "no_fsync", False, None, None, False, "_StoreTrueAction"),
        (("--audit-key",), "audit_key", "cluster-trail-key", None, None, False, "_StoreAction"),
        (("--audit-max-records",), "audit_max_records", 10_000, "int", None, False, "_StoreAction"),
        (("--audit-max-bytes",), "audit_max_bytes", None, "int", None, False, "_StoreAction"),
    ],
    "cluster node": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--name",), "name", None, None, None, True, "_StoreAction"),
        (("--shard",), "shard", None, None, None, True, "_StoreAction"),
        (("--role",), "role", "primary", None, ("primary", "standby"), False, "_StoreAction"),
        (("--epoch",), "epoch", 1, "int", None, False, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 0, "int", None, False, "_StoreAction"),
        (("--adi",), "adi", None, None, None, False, "_StoreAction"),
        (("--store",), "store", None, None, None, False, "_StoreAction"),
        (("--audit-dir",), "audit_dir", None, None, None, True, "_StoreAction"),
        (("--audit-key",), "audit_key", "cluster-trail-key", None, None, False, "_StoreAction"),
        (("--audit-max-records",), "audit_max_records", 10_000, "int", None, False, "_StoreAction"),
        (("--audit-max-bytes",), "audit_max_bytes", None, "int", None, False, "_StoreAction"),
        (("--no-fsync",), "no_fsync", False, None, None, False, "_StoreTrueAction"),
    ],
    "cluster status": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "cluster route": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "cluster metrics": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "cluster reload": [
        ((), "policy", None, None, None, True, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--verify",), "verify", False, None, None, False, "_StoreTrueAction"),
        (("--max-flips",), "max_flips", 0, "int", None, False, "_StoreAction"),
        (("--force",), "force", False, None, None, False, "_StoreTrueAction"),
        (("--canary",), "canary", False, None, None, False, "_StoreTrueAction"),
        (("--principal",), "principal", None, None, None, False, "_StoreAction"),
    ],
    "cluster resize add-node": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--wait",), "wait", False, None, None, False, "_StoreTrueAction"),
        (("--wait-timeout",), "wait_timeout", 120.0, "float", None, False, "_StoreAction"),
    ],
    "cluster resize drain": [
        ((), "shard", None, None, None, True, "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--wait",), "wait", False, None, None, False, "_StoreTrueAction"),
        (("--wait-timeout",), "wait_timeout", 120.0, "float", None, False, "_StoreAction"),
    ],
    "cluster resize rebalance": [
        (("--threshold",), "threshold", 1.5, "float", None, False, "_StoreAction"),
        (("--apply",), "apply", False, None, None, False, "_StoreTrueAction"),
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--wait",), "wait", False, None, None, False, "_StoreTrueAction"),
        (("--wait-timeout",), "wait_timeout", 120.0, "float", None, False, "_StoreAction"),
    ],
    "cluster resize status": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
    ],
    "cluster decide": [
        (("--host",), "host", "127.0.0.1", None, None, False, "_StoreAction"),
        (("--port",), "port", 8760, "int", None, False, "_StoreAction"),
        (("--timeout",), "timeout", 5.0, "float", None, False, "_StoreAction"),
        (("--user",), "user", None, None, None, True, "_StoreAction"),
        (("--role",), "role", None, "_parse_role", None, True, "_AppendAction"),
        (("--operation",), "operation", None, None, None, True, "_StoreAction"),
        (("--target",), "target", None, None, None, True, "_StoreAction"),
        (("--context",), "context", None, None, None, True, "_StoreAction"),
    ],
}

#: Mutually exclusive groups per leaf: (required, member dests).
MUTEX_GROUPS = {
    "purge": [(True, ("context", "user", "older_than", "all"))],
    "remote-status": [(False, ("metrics", "slowlog"))],
}


def _leaves(parser, path=()):
    subcommands = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subcommands:
        yield " ".join(path), parser
        return
    for name, sub in subcommands[0].choices.items():
        yield from _leaves(sub, path + (name,))


def _describe(action):
    return (
        tuple(action.option_strings),
        action.dest,
        action.default,
        None if action.type is None else action.type.__name__,
        None if action.choices is None else tuple(action.choices),
        action.required,
        type(action).__name__,
    )


class TestParserTree:
    def test_every_leaf_and_option_is_pinned(self):
        tree = {
            path: [
                _describe(action)
                for action in leaf._actions
                if not isinstance(action, argparse._HelpAction)
            ]
            for path, leaf in _leaves(build_parser())
        }
        assert tree == PARSER_TREE
        assert len(tree) == 28
        options = [row for rows in tree.values() for row in rows if row[0]]
        assert len(options) == 151

    def test_mutually_exclusive_groups(self):
        groups = {
            path: [
                (group.required, tuple(a.dest for a in group._group_actions))
                for group in leaf._mutually_exclusive_groups
            ]
            for path, leaf in _leaves(build_parser())
            if leaf._mutually_exclusive_groups
        }
        assert groups == MUTEX_GROUPS

