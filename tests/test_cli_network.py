"""The networked CLI verbs, driven through ``main([...])`` in process.

Each verb runs against a live :func:`repro.api.open_server` or
:func:`repro.api.open_cluster`; ``serve`` itself runs as a subprocess,
because its shutdown path is a signal.  The assertions pin what a shell
sees: stdout shape and the exit code (0 grant/ok, 1 gate refused,
2 deny, 3 error).
"""

import json
import logging
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.api import open_cluster, open_server
from repro.audit import EVENT_DECISION, AuditTrailManager
from repro.cli import main
from repro.core import (
    MMCD,
    MMER,
    ContextName,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
)
from repro.core.constraints import policy_store_boundary
from repro.workload import bank_policy_set
from repro.xmlpolicy import write_policy_set_file

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
GRANTED = [
    "--user", "alice", "--role", "employee:Teller",
    "--operation", "handleCash", "--target", "till://1",
    "--context", "Branch=York, Period=2006",
]
DENIED = [
    "--user", "alice", "--role", "employee:Auditor",
    "--operation", "auditBooks", "--target", "ledger://1",
    "--context", "Branch=Leeds, Period=2006",
]


def run(capsys, *argv):
    """``main(argv)`` as a shell sees it: (exit code, stdout, stderr)."""
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _policy_file(directory, policy_set, name):
    path = directory / name
    write_policy_set_file(policy_set, str(path))
    return str(path)


def _extended():
    return MSoDPolicySet(
        list(bank_policy_set())
        + [
            MSoDPolicy(
                ContextName.parse("Region=*, Quarter=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="regional",
            )
        ]
    )


@pytest.fixture(scope="module")
def policies(tmp_path_factory):
    directory = tmp_path_factory.mktemp("policies")
    broken = MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2), MMER([AUDITOR, TELLER], 2)],
                policy_id="broken",
            )
        ]
    )
    return {
        "bank": _policy_file(directory, bank_policy_set(), "bank.xml"),
        "extended": _policy_file(directory, _extended(), "extended.xml"),
        "broken": _policy_file(directory, broken, "broken.xml"),
    }


@pytest.fixture(scope="module")
def server():
    with open_server(bank_policy_set(), n_shards=2, trace=True) as handle:
        yield handle


class TestRemoteVerbs:
    def address(self, server):
        return ["--host", server.host, "--port", server.port]

    def test_remote_decide_grant_then_deny(self, server, capsys):
        code, out, _ = run(
            capsys, "remote-decide", *self.address(server), *GRANTED
        )
        assert code == 0
        assert out.startswith("GRANT alice handleCash@till://1")
        assert out.splitlines()[1] == "recorded 2 record(s), purged 0"
        code, out, _ = run(
            capsys,
            "remote-decide", *self.address(server), "--protocol", "v1", *DENIED,
        )
        assert code == 2
        assert out.startswith("DENY alice auditBooks@ledger://1")
        assert "MMER" in out and len(out.splitlines()) == 1

    def test_remote_status_health(self, server, capsys):
        code, out, _ = run(capsys, "remote-status", *self.address(server))
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "ok" and body["shards"] == 2

    def test_remote_status_metrics(self, server, capsys):
        code, out, _ = run(
            capsys, "remote-status", *self.address(server), "--metrics"
        )
        assert code == 0
        assert "engine.requests" in json.loads(out)["perf"]["counters"]

    def test_remote_status_slowlog(self, server, capsys):
        run(capsys, "remote-decide", *self.address(server), *GRANTED)
        code, out, _ = run(
            capsys, "remote-status", *self.address(server), "--slowlog"
        )
        assert code == 0
        body = json.loads(out)
        assert body["enabled"] is True and body["traces"]

    def test_remote_status_kinds_are_exclusive(self, server):
        with pytest.raises(SystemExit):
            main(
                ["remote-status", "--port", str(server.port), "--metrics",
                 "--slowlog"]
            )

    def test_metrics_exposition(self, server, capsys):
        code, out, _ = run(capsys, "metrics", *self.address(server))
        assert code == 0
        assert out.startswith("# HELP ")
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert "repro_shard_queue_depth" in out

    def test_verify_on_the_server(self, server, policies, capsys):
        code, out, _ = run(
            capsys, "verify", policies["bank"], *self.address(server)
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("ok: 0 error(s)")
        code, out, _ = run(
            capsys, "verify", policies["broken"], *self.address(server),
            "--json",
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_whatif_without_a_server_trail_is_an_error(
        self, server, policies, capsys
    ):
        code, out, err = run(
            capsys, "whatif", policies["bank"], *self.address(server)
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "audit trail" in err


class TestPolicyVerbs:
    @pytest.fixture
    def live(self):
        with open_server(bank_policy_set(), n_shards=2) as handle:
            yield handle

    def test_status_then_noop_then_changed_reload(self, live, policies, capsys):
        address = ["--port", live.port]
        code, out, _ = run(capsys, "policy", "status", *address)
        assert code == 0
        body = json.loads(out)
        assert body["version"]["epoch"] == 1 and body["reloads"] == 0
        code, out, _ = run(
            capsys, "policy", "reload", policies["bank"], *address
        )
        assert code == 0
        assert out.splitlines()[-1].startswith(
            "no-op: digest unchanged, still epoch 1"
        )
        code, out, _ = run(
            capsys, "policy", "reload", policies["extended"], *address
        )
        assert code == 0
        assert re.search(r"^reloaded: epoch 1 .* -> epoch 2", out, re.M)
        code, out, _ = run(capsys, "policy", "status", *address)
        assert json.loads(out)["version"]["epoch"] == 2

    def test_verify_gate_refuses_error_findings(self, live, policies, capsys):
        code, out, err = run(
            capsys, "policy", "reload", policies["broken"],
            "--port", live.port, "--verify",
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ")
        assert live.policy_version().epoch == 1

    def test_principal_refused_by_the_admin_boundary(self, tmp_path, capsys):
        review = Privilege("review", "filing://annual")
        signoff = Privilege("signoff", "filing://annual")
        duty = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=!"),
                    constraints=[MMCD([review, signoff])],
                    policy_id="filing-binding",
                ),
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=*"),
                    constraints=[policy_store_boundary()],
                    policy_id="store-guard",
                ),
            ]
        )
        path = _policy_file(tmp_path, duty, "duty.xml")
        with open_server(duty, n_shards=2) as live:
            address = ["--port", live.port]
            code, _, _ = run(
                capsys, "remote-decide", *address, "--user", "alice",
                "--role", "employee:Auditor", "--operation", "review",
                "--target", "filing://annual",
                "--context", "Filing=Annual, Case=C1",
            )
            assert code == 0
            code, out, err = run(
                capsys, "policy", "reload", path, *address,
                "--principal", "alice",
            )
            assert code == 3 and out == "" and err.startswith("error: ")
            code, out, _ = run(
                capsys, "policy", "reload", path, *address,
                "--principal", "operator",
            )
            assert code == 0 and "no-op" in out


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    with open_cluster(
        bank_policy_set(),
        str(tmp_path_factory.mktemp("cluster")),
        n_shards=2,
        store="memory",
        fsync=False,
    ) as handle:
        yield handle


class TestClusterVerbs:
    def address(self, cluster):
        return ["--host", cluster.host, "--port", cluster.port]

    def test_status(self, cluster, capsys):
        code, out, _ = run(capsys, "cluster", "status", *self.address(cluster))
        assert code == 0
        assert sorted(json.loads(out)["shards"]) == ["shard-0", "shard-1"]

    def test_route(self, cluster, capsys):
        code, out, _ = run(capsys, "cluster", "route", *self.address(cluster))
        assert code == 0
        body = json.loads(out)
        assert sorted(body["shards"]) == ["shard-0", "shard-1"]
        assert body["version"] >= 1

    def test_metrics(self, cluster, capsys):
        code, out, _ = run(
            capsys, "cluster", "metrics", *self.address(cluster)
        )
        assert code == 0
        assert "repro_cluster_node_up" in out and out.endswith("\n")

    def test_decide_grant_then_deny(self, cluster, capsys):
        code, out, _ = run(
            capsys, "cluster", "decide", *self.address(cluster), *GRANTED
        )
        assert code == 0
        assert out.startswith("GRANT alice") and len(out.splitlines()) == 1
        code, out, _ = run(
            capsys, "cluster", "decide", *self.address(cluster), *DENIED
        )
        assert code == 2
        assert out.startswith("DENY alice") and "MMER" in out

    def test_reload_noop(self, cluster, policies, capsys):
        code, out, _ = run(
            capsys, "cluster", "reload", policies["bank"],
            *self.address(cluster),
        )
        assert code == 0
        body = json.loads(out)
        assert body["changed"] is False and body["nodes"]

    def test_resize_status(self, cluster, capsys):
        code, out, _ = run(
            capsys, "cluster", "resize", "status", *self.address(cluster)
        )
        assert code == 0
        body = json.loads(out)
        assert body["active"] is False
        assert body["serving_shards"] == ["shard-0", "shard-1"]


def _fresh_cluster(directory):
    return open_cluster(
        bank_policy_set(), str(directory), n_shards=2, store="memory",
        fsync=False,
    )


class TestRebalanceThreshold:
    def test_threshold_reaches_the_coordinator(self, tmp_path, capsys):
        """On a fresh cluster every shard is empty, so the imbalance is
        1.0: a threshold of 1.0 recommends a split, and the plan says so
        (the coordinator used to plan at 1.5 and the CLI then printed
        the user's threshold over it)."""
        with _fresh_cluster(tmp_path) as handle:
            code, out, _ = run(
                capsys, "cluster", "resize", "rebalance",
                "--port", handle.port, "--threshold", "1.0",
            )
        assert code == 0
        body = json.loads(out)
        assert body["imbalance"] == 1.0 and body["threshold"] == 1.0
        assert body["action"] == "split"

    def test_default_threshold_plans_no_split(self, tmp_path, capsys):
        with _fresh_cluster(tmp_path) as handle:
            code, out, _ = run(
                capsys, "cluster", "resize", "rebalance",
                "--port", handle.port,
            )
        assert code == 0
        body = json.loads(out)
        assert body["threshold"] == 1.5 and body["action"] == "none"

    def test_client_leaves_the_default_to_the_protocol(self, tmp_path):
        """``ClusterPDP.resize`` without a threshold sends none, and the
        coordinator plans at the frame's default."""
        with _fresh_cluster(tmp_path) as handle, handle.client() as pdp:
            assert pdp.resize("rebalance")["threshold"] == 1.5
            assert pdp.resize("rebalance", threshold=1.0)["action"] == "split"


class TestConnectionTeardown:
    def test_no_cancelled_callback_logged(self, tmp_path, capsys, caplog):
        """Closing a cluster right after a CLI verb must not log asyncio's
        'Exception in callback ... CancelledError' for the connection."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        for cycle in range(5):
            with _fresh_cluster(tmp_path / f"c{cycle}") as handle:
                code, _, _ = run(
                    capsys, "cluster", "resize", "rebalance",
                    "--port", handle.port,
                )
                assert code == 0
        noisy = [r for r in caplog.records if r.name == "asyncio"]
        assert noisy == [], [r.getMessage() for r in noisy]


def test_serve_closes_store_and_trail_when_setup_raises(
    tmp_path, policies, monkeypatch
):
    """A constructor that raises after the store and the trail are open
    (here ``AuthorizationService`` on ``--shards 0``) closes both."""
    closed = []
    close = AuditTrailManager.close

    def spy(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(AuditTrailManager, "close", spy)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError):
        main([
            "serve", policies["bank"], "--store",
            f"sqlite:{tmp_path / 'adi.db'}", "--shards", "0",
            "--audit-dir", str(tmp_path / "trails"),
        ])
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(closed) == 1


@pytest.mark.parametrize("window", ["inf", "nan", "-0.001"])
def test_serve_reports_a_bad_gather_window(policies, capsys, window):
    """A non-finite window would hang a loaded shard (inf) or disable
    the linger unnoticed (nan): ``serve`` refuses it as an error."""
    code, out, err = run(
        capsys, "serve", policies["bank"], "--store", "memory",
        "--port", "0", "--gather-window", window,
    )
    assert code == 3 and out == ""
    assert err.startswith("error: --gather-window must be a finite number")
    assert "Traceback" not in err


BANNER = re.compile(r"serving MSoD decisions on (\S+):(\d+) ")


def test_serve_subprocess_drains_on_sigterm(tmp_path, policies, capsys):
    trails = tmp_path / "trails"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", policies["bank"],
            "--store", "memory", "--port", "0", "--shards", "2",
            "--audit-dir", str(trails),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = BANNER.search(banner)
        assert match, banner
        assert banner.rstrip().endswith("(2 shards, queue depth 256, batch max 32)")
        host, port = match.group(1), match.group(2)
        code, out, _ = run(
            capsys, "remote-decide", "--host", host, "--port", port, *GRANTED
        )
        assert code == 0 and out.startswith("GRANT")
        code, out, _ = run(
            capsys, "verify", policies["bank"], "--host", host, "--port", port
        )
        assert code == 0 and "ok: 0 error(s)" in out
        code, out, _ = run(
            capsys, "whatif", policies["bank"], "--host", host, "--port", port
        )
        assert code == 0
        assert "replayed 1 decision(s)" in out and "0 flip(s)" in out
        process.send_signal(signal.SIGTERM)
        rest, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    assert rest.splitlines() == ["draining shard queues..."]
    with AuditTrailManager(str(trails), b"audit-trail-key") as manager:
        assert manager.verify_all() == 1
        events = list(manager.events())
    assert [event.event_type for event in events] == [EVENT_DECISION]


def _spawn(*argv):
    """``python -m repro ARGV`` with piped text output; its first
    stdout line, the banner, is read by the caller."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _stop(process):
    """SIGTERM, then the exit code and the rest of stdout."""
    try:
        process.send_signal(signal.SIGTERM)
        rest, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    return rest.splitlines()


def test_cluster_serve_subprocess_stops_on_sigterm(tmp_path, policies, capsys):
    process = _spawn(
        "cluster", "serve", policies["bank"], "--data-dir", tmp_path,
        "--port", 0, "--cluster-shards", 2, "--store", "memory", "--no-fsync",
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"cluster coordinator on (\S+):(\d+) ", banner)
        assert match, banner
        assert banner.rstrip().endswith("(2 shards, store=memory, fsync=off)")
        shards = [process.stdout.readline() for _ in range(2)]
        assert [line.split(":")[0].strip() for line in shards] == [
            "shard-0",
            "shard-1",
        ]
        code, out, _ = run(
            capsys, "cluster", "decide", "--host", match.group(1),
            "--port", match.group(2), *GRANTED,
        )
        assert code == 0 and out.startswith("GRANT alice")
    finally:
        rest = _stop(process)
    assert rest == ["stopping cluster..."]


def test_cluster_node_subprocess_stops_on_sigterm(tmp_path, policies, capsys):
    process = _spawn(
        "cluster", "node", policies["bank"], "--name", "n1", "--shard",
        "shard-0", "--port", 0, "--store", "memory",
        "--audit-dir", tmp_path / "trail", "--no-fsync",
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"node n1 serving shard shard-0 on (\S+):(\d+) ", banner)
        assert match, banner
        assert banner.rstrip().endswith("role=primary epoch=1")
        code, out, _ = run(
            capsys, "remote-decide", "--host", match.group(1),
            "--port", match.group(2), *GRANTED,
        )
        assert code == 0 and out.startswith("GRANT")
    finally:
        rest = _stop(process)
    assert rest == ["stopping node..."]
