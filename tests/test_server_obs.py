"""Tests for the server-side observability surface.

Covers the ``metrics`` verb's Prometheus format, the ``slowlog`` verb,
trace pass-through over the wire, and the CLI scrape commands — the
full path a Prometheus scrape job or an on-call engineer would take.
"""

import pytest

from repro.api import open_pdp, open_server
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
)
from repro.errors import ProtocolError
from repro.obs import Recorder, parse_exposition
from repro.server import protocol

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def bank_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )


def make_request(user, role, index=0):
    operation, target = (
        ("handleCash", "till://1") if role is TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        timestamp=float(index),
        request_id=f"req-{user}-{index}",
    )


@pytest.fixture
def traced_server():
    perf = Recorder()
    with open_server(
        bank_policy_set(), n_shards=2, perf=perf, trace=True
    ) as server:
        yield server


class TestMetricsVerb:
    def test_prometheus_exposition_parses_and_names_shards(self, traced_server):
        with traced_server.client() as pdp:
            for index in range(6):
                pdp.decide(make_request(f"user-{index}", TELLER, index))
            text = pdp.metrics_text()
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        # Per-shard queue gauges, one sample per shard.
        depth = by_name["repro_shard_queue_depth"]
        assert {labels["shard"] for labels, _ in depth} == {"0", "1"}
        assert "repro_shard_queue_depth_limit" in by_name
        assert "repro_shard_rejected_total" in by_name
        completed = sum(v for _, v in by_name["repro_shard_completed_total"])
        assert completed == 6.0
        # Engine/service perf counters surface as counters too.
        assert by_name["repro_engine_requests_total"][0][1] == 6.0
        assert by_name["repro_server_decided_total"][0][1] == 6.0
        # Stage histograms carry cumulative buckets.
        stages = {
            labels["stage"]
            for labels, _ in by_name["repro_stage_duration_seconds_bucket"]
        }
        assert "server.decide" in stages

    def test_json_metrics_still_default(self, traced_server):
        with traced_server.client() as pdp:
            body = pdp.metrics()
        assert isinstance(body, dict)
        assert "shards" in body and "perf" in body

    @pytest.mark.parametrize("service_perf", [None, Recorder()])
    def test_json_and_prometheus_bodies_share_one_recorder_set(self, service_perf):
        # An instrumented engine under a service given no recorder of
        # its own (or a second one): both bodies must tell one story.
        import asyncio

        from repro.core import InMemoryRetainedADIStore, MSoDEngine
        from repro.server import AuthorizationService

        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=Recorder()
        )

        async def scenario():
            service = AuthorizationService(engine, n_shards=1, perf=service_perf)
            await service.start()
            for index in range(3):
                await service.decide(make_request(f"user-{index}", TELLER, index))
            await service.stop()
            return service.metrics()["perf"], service.metrics_registry().render()

        perf_json, exposition = asyncio.run(scenario())
        scraped = {
            name: value for name, labels, value in parse_exposition(exposition)
            if not labels
        }
        assert perf_json["counters"]["engine.requests"] == 3
        assert perf_json["counters"]["server.decided"] == 3
        for name, value in perf_json["counters"].items():
            assert scraped[f"repro_{name.replace('.', '_')}_total"] == value
        assert {"engine.check", "server.decide"} <= set(perf_json["stages"])

    def test_unknown_format_is_protocol_error(self, traced_server):
        with traced_server.client() as pdp:
            with pytest.raises(ProtocolError):
                pdp.request(protocol.OP_METRICS, retriable=True, format="xml")

    def test_cli_metrics_scrape(self, traced_server, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(
            [
                "metrics",
                "--host",
                traced_server.host,
                "--port",
                str(traced_server.port),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        samples = parse_exposition(out)
        assert any(name == "repro_shard_queue_depth" for name, _, _ in samples)


class TestPolicyMetrics:
    def test_policy_epoch_gauge_tracks_reloads(self, traced_server):
        from repro.core import MSoDPolicySet
        from repro.xmlpolicy import write_policy_set

        extended = MSoDPolicySet(
            list(bank_policy_set())
            + [
                MSoDPolicy(
                    ContextName.parse("Region=*, Quarter=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="regional",
                )
            ]
        )
        with traced_server.client() as pdp:
            before = dict(
                (name, value)
                for name, _, value in parse_exposition(pdp.metrics_text())
            )
            assert before["repro_policy_epoch"] == 1.0
            assert before["repro_policy_reloads_total"] == 0.0
            report = pdp.reload_policy(write_policy_set(extended))
            assert report.changed
            after = dict(
                (name, value)
                for name, _, value in parse_exposition(pdp.metrics_text())
            )
        assert after["repro_policy_epoch"] == 2.0
        assert after["repro_policy_reloads_total"] == 1.0


class TestSlowlogVerb:
    def test_slowlog_returns_retained_traces(self, traced_server):
        with traced_server.client() as pdp:
            pdp.decide(make_request("alice", TELLER, 0))
            denied = pdp.decide(make_request("alice", AUDITOR, 1))
            assert not denied.granted
            body = pdp.slowlog()
        assert body["enabled"] is True
        assert body["offered"] == 2
        traces = body["traces"]
        assert len(traces) == 2
        denied_traces = [t for t in traces if t["effect"] == "deny"]
        assert denied_traces[0]["violation"]["policy_id"] == "bank"

    def test_slowlog_disabled_without_tracing(self):
        with open_server(bank_policy_set()) as server:
            with server.client() as pdp:
                pdp.decide(make_request("alice", TELLER))
                body = pdp.slowlog()
        assert body == {
            "enabled": False,
            "capacity": 0,
            "offered": 0,
            "traces": [],
        }

    def test_cli_remote_status_slowlog(self, traced_server, capsys):
        import json

        from repro.cli import main as cli_main

        with traced_server.client() as pdp:
            pdp.decide(make_request("alice", TELLER))
        rc = cli_main(
            [
                "remote-status",
                "--host",
                traced_server.host,
                "--port",
                str(traced_server.port),
                "--slowlog",
            ]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["enabled"] is True
        assert body["traces"]


class TestTraceOverTheWire:
    def test_traced_decisions_round_trip(self, traced_server):
        with traced_server.client() as pdp:
            granted = pdp.decide(make_request("alice", TELLER, 0))
            denied = pdp.decide(make_request("alice", AUDITOR, 1))
        assert granted.trace is not None
        assert granted.trace.stage_durations()
        assert denied.trace is not None
        assert denied.trace.violation.policy_id == "bank"
        assert denied.trace.violation.constraint_kind == "MMER"

    def test_untraced_server_sends_no_trace(self):
        with open_server(bank_policy_set()) as server:
            with server.client() as pdp:
                decision = pdp.decide(make_request("alice", TELLER))
        assert decision.trace is None

    def test_remote_decisions_match_local(self):
        script = [
            ("alice", TELLER),
            ("alice", AUDITOR),
            ("bob", AUDITOR),
            ("bob", TELLER),
        ]
        local = open_pdp(bank_policy_set())
        local_decisions = [
            local.decide(make_request(user, role, index))
            for index, (user, role) in enumerate(script)
        ]
        local.close()
        with open_server(bank_policy_set(), trace=True) as server:
            with server.client() as pdp:
                remote_decisions = [
                    pdp.decide(make_request(user, role, index))
                    for index, (user, role) in enumerate(script)
                ]
        # Decision equality ignores the attached trace, so a traced
        # server must be decision-for-decision identical to a plain
        # local engine.
        assert remote_decisions == local_decisions
