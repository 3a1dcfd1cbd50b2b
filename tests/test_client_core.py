"""Socket-free tests of the client core both IO shells are built on.

The decide pipeline is driven exactly as a shell drives it — submit,
cut a frame, feed a response, report a death — with plain strings as
waiters, and the server's half of the exchange played by
``encode/decode_frame_v2``.  The retry rule is exercised on a bare
:class:`ClientCore` with no IO at all.
"""

import math
import random

import pytest

from repro.client._core import ClientCore, DecidePipeline
from repro.errors import (
    PDPConnectError,
    PDPFencedError,
    PDPOverloadedError,
    PDPUnavailableError,
    ProtocolError,
)
from repro.obs import Recorder
from repro.server import protocol


def sent_frame(payload: bytes) -> dict:
    """What the server would decode from a cut frame's wire bytes."""
    length = protocol.v2_payload_length(payload[: protocol.V2_HEADER_BYTES])
    body = payload[protocol.V2_HEADER_BYTES :]
    assert len(body) == length
    return protocol.decode_frame_v2(body)


def ok_response(frame: dict, decisions: list) -> dict:
    return {
        "id": frame["id"],
        "ok": True,
        "results": [{"ok": True, "decision": d} for d in decisions],
    }


def submit_all(pipeline: DecidePipeline, entries, submitted=0.0) -> None:
    for waiter, epoch in entries:
        pipeline.submit(waiter, {"user": waiter}, epoch, submitted)


class TestBatchCutting:
    def test_frames_group_by_epoch_in_submission_order(self):
        pipeline = DecidePipeline(batch_max=8)
        submit_all(
            pipeline, [("a", 3), ("b", 3), ("c", 4), ("d", None), ("e", None)]
        )
        cut = []
        while pipeline.has_unsent:
            payload, size, failed = pipeline.next_frame()
            assert failed == []
            frame = sent_frame(payload)
            assert frame["op"] == protocol.OP_DECIDE_BATCH
            assert size == len(frame["requests"])
            cut.append(
                ([r["user"] for r in frame["requests"]], frame.get("epoch"))
            )
        assert cut == [(["a", "b"], 3), (["c"], 4), (["d", "e"], None)]

    def test_batch_max_caps_every_frame(self):
        pipeline = DecidePipeline(batch_max=2)
        submit_all(pipeline, [(f"w{i}", 7) for i in range(5)])
        sizes = []
        while pipeline.has_unsent:
            sizes.append(pipeline.next_frame()[1])
        assert sizes == [2, 2, 1]

    def test_a_burst_on_an_idle_pipeline_leaves_on_two_frames(self):
        pipeline = DecidePipeline(batch_max=64)
        submit_all(pipeline, [(f"w{i}", 1) for i in range(64)])
        first, size_1, _ = pipeline.next_frame()
        assert size_1 == 32 and pipeline.in_flight == 32
        _, size_2, _ = pipeline.next_frame()
        assert size_2 == 32 and pipeline.in_flight == 64
        assert not pipeline.has_unsent
        # The first frame's callers come back while the second is out:
        # their 32 decides leave as one frame, keeping two in flight.
        answered = pipeline.receive(ok_response(sent_frame(first), [None] * 32))
        assert len(answered) == 32 and pipeline.in_flight == 32
        submit_all(pipeline, [(f"r{i}", 1) for i in range(32)])
        assert pipeline.next_frame()[1] == 32
        assert pipeline.in_flight == 64 and not pipeline.has_unsent

    def test_batch_max_and_epochs_cap_the_half(self):
        pipeline = DecidePipeline(batch_max=8)
        submit_all(pipeline, [(f"w{i}", 1) for i in range(40)])
        submit_all(pipeline, [(f"e{i}", 2) for i in range(40)])
        sizes, epochs = [], []
        while pipeline.has_unsent:
            payload, size, _ = pipeline.next_frame()
            sizes.append(size)
            epochs.append(sent_frame(payload)["epoch"])
        assert sizes == [8] * 10
        assert epochs == [1] * 5 + [2] * 5
        pipeline = DecidePipeline(batch_max=64)
        submit_all(pipeline, [("a", 1)] * 10 + [("b", 2)] * 30)
        # Half of 40 is 20, but the epoch boundary ends the first frame.
        assert pipeline.next_frame()[1] == 10
        assert pipeline.next_frame()[1] == 20  # half of 30 unsent + 10 sent
        assert pipeline.next_frame()[1] == 10
        assert pipeline.in_flight == 40

    def test_fail_returns_the_in_flight_count_to_zero(self):
        pipeline = DecidePipeline(batch_max=4)
        submit_all(pipeline, [(f"w{i}", None) for i in range(6)])
        pipeline.next_frame()
        pipeline.next_frame()
        assert pipeline.in_flight == 6 and not pipeline.has_unsent
        pipeline.drop(PDPUnavailableError("reset"), -math.inf)
        assert pipeline.in_flight == 0

    def test_nothing_queued_cuts_nothing(self):
        assert DecidePipeline(batch_max=4).next_frame() == (None, 0, [])

    def test_unencodable_request_fails_its_batch_and_keeps_the_wire(self):
        pipeline = DecidePipeline(batch_max=8)
        pipeline.submit("bad", {"user": object()}, 1, 0.0)  # not a payload value
        pipeline.submit("good", {"user": "good"}, 2, 0.0)
        payload, size, failed = pipeline.next_frame()
        assert payload is None and size == 0
        [(waiter, decision, error)] = failed
        assert waiter == "bad" and decision is None
        assert isinstance(error, ProtocolError)
        # The connection is untouched: the next batch is cut and answered.
        assert pipeline.in_flight == 0 and pipeline.has_unsent
        payload, size, failed = pipeline.next_frame()
        assert size == 1 and failed == []
        frame = sent_frame(payload)
        assert pipeline.receive(ok_response(frame, ["D"])) == [
            ("good", "D", None)
        ]


class TestResponseResolution:
    def cut(self, pipeline, waiters, epoch=None):
        """One frame carrying exactly ``waiters``.

        A frame holds at most half the outstanding decides, so an equal
        ballast of another epoch is queued behind the waiters to let them
        leave together; the ballast then goes out on its own frame and
        is answered at once, leaving only the waiters' frame in flight.
        """
        other_epoch = 0 if epoch is None else None
        submit_all(pipeline, [(w, epoch) for w in waiters])
        submit_all(pipeline, [("ballast", other_epoch)] * len(waiters))
        payload, size, _ = pipeline.next_frame()
        assert size == len(waiters)
        ballast = sent_frame(pipeline.next_frame()[0])
        pipeline.receive(ok_response(ballast, [None] * len(waiters)))
        return sent_frame(payload)

    def test_entries_resolve_their_waiters_in_order_out_of_frame_order(self):
        pipeline = DecidePipeline(batch_max=2)
        first = self.cut(pipeline, ["a", "b"])
        second = self.cut(pipeline, ["c"])
        assert pipeline.receive(ok_response(second, ["Dc"])) == [
            ("c", "Dc", None)
        ]
        mixed = {
            "id": first["id"],
            "ok": True,
            "results": [
                {"ok": True, "decision": "Da"},
                {
                    "ok": False,
                    "error": {"kind": protocol.ERR_FENCED, "detail": "stale"},
                },
            ],
        }
        (a, b) = pipeline.receive(mixed)
        assert a == ("a", "Da", None)
        assert b[0] == "b" and b[1] is None
        assert isinstance(b[2], PDPFencedError)

    def test_whole_frame_error_fans_out_to_every_waiter(self):
        pipeline = DecidePipeline(batch_max=4)
        frame = self.cut(pipeline, ["a", "b", "c"])
        response = protocol.error_frame(
            frame["id"], protocol.ERR_OVERLOADED, "shard full", retry_after=0.25
        )
        resolutions = pipeline.receive(response)
        assert [w for w, _, _ in resolutions] == ["a", "b", "c"]
        errors = {id(e) for _, _, e in resolutions}
        assert len(errors) == 1  # one typed error, shared
        error = resolutions[0][2]
        assert isinstance(error, PDPOverloadedError)
        assert error.retry_after == 0.25

    def test_unsolicited_frame_id_is_a_protocol_error(self):
        pipeline = DecidePipeline(batch_max=4)
        self.cut(pipeline, ["a"])
        with pytest.raises(ProtocolError, match="unsolicited"):
            pipeline.receive({"id": "c-nobody", "ok": True, "results": []})

    def test_entry_count_mismatch_is_a_protocol_error_and_stays_sent(self):
        pipeline = DecidePipeline(batch_max=4)
        frame = self.cut(pipeline, ["a", "b"])
        with pytest.raises(ProtocolError, match="1 results for 2"):
            pipeline.receive(ok_response(frame, ["only-one"]))
        # The shell answers a violation with drop(): the batch was sent,
        # so its waiters get the transport error — never left hanging.
        lost = PDPUnavailableError("protocol violation from server")
        assert pipeline.drop(lost, -math.inf) == [
            ("a", None, lost),
            ("b", None, lost),
        ]


class TestFailTimeClassification:
    def test_lost_connection_fails_sent_keeps_unsent(self):
        pipeline = DecidePipeline(batch_max=2)
        submit_all(pipeline, [("sent1", 1), ("sent2", 1), ("queued", 1)])
        payload, size, _ = pipeline.next_frame()
        assert size == 2 and payload is not None
        lost = PDPUnavailableError("PDP transport failure: reset")
        # Sent: ambiguous on the server, the caller must not replay.
        assert pipeline.drop(lost, -math.inf) == [
            ("sent1", None, lost),
            ("sent2", None, lost),
        ]
        # Unsent: provably never left the client, so it goes out on the
        # next connection, ahead of a decide submitted after the loss.
        submit_all(pipeline, [("later", 1)])
        assert pipeline.in_flight == 0
        users = []
        while pipeline.has_unsent:
            frame = sent_frame(pipeline.next_frame()[0])
            users += [request["user"] for request in frame["requests"]]
        assert users == ["queued", "later"]

    def test_drop_settles_the_sent_and_the_old_and_keeps_the_rest_in_order(
        self,
    ):
        pipeline = DecidePipeline(batch_max=2)
        submit_all(pipeline, [("sent1", 1), ("sent2", 1)], submitted=1.0)
        submit_all(pipeline, [("old", 1)], submitted=2.0)
        submit_all(pipeline, [("young1", 1), ("young2", 1)], submitted=3.0)
        assert pipeline.next_frame()[1] == 2
        lost = PDPUnavailableError("no response within 1s")
        assert pipeline.drop(lost, 2.0) == [
            ("sent1", None, lost),
            ("sent2", None, lost),
            ("old", None, lost),
        ]
        # The queue outlives the connection, in call order.
        assert pipeline.in_flight == 0
        assert pipeline.oldest() == 3.0
        users = []
        while pipeline.has_unsent:
            frame = sent_frame(pipeline.next_frame()[0])
            users += [request["user"] for request in frame["requests"]]
        assert users == ["young1", "young2"]

    def test_oldest_is_the_first_frame_still_in_flight_else_the_queue(self):
        pipeline = DecidePipeline(batch_max=1)
        assert pipeline.oldest() is None
        for index, waiter in enumerate(("a", "b", "c")):
            submit_all(pipeline, [(waiter, None)], submitted=float(index))
        first = sent_frame(pipeline.next_frame()[0])
        second = sent_frame(pipeline.next_frame()[0])
        assert pipeline.oldest() == 0.0
        pipeline.receive(ok_response(second, [None]))  # out of order
        assert pipeline.oldest() == 0.0
        pipeline.receive(ok_response(first, [None]))
        assert pipeline.oldest() == 2.0  # only "c" is left, unsent
        pipeline.next_frame()
        assert pipeline.oldest() == 2.0


class IdleCore(ClientCore):
    """A client core with no IO shell attached."""

    def _init_io(self) -> None:
        pass


class TestRetryRule:
    def core(self, **kwargs):
        perf = Recorder()
        core = IdleCore(
            "127.0.0.1",
            1,
            max_retries=2,
            backoff_base=0.01,
            backoff_cap=0.04,
            rng=random.Random(7),
            perf=perf,
            **kwargs,
        )
        return core, perf

    def test_connect_failure_retries_even_a_decide(self):
        core, perf = self.core()
        exc = PDPConnectError("refused")
        assert 0.0 <= core.retry_delay(exc, 0, retriable=False) <= 0.01
        assert 0.0 <= core.retry_delay(exc, 1, retriable=False) <= 0.02
        with pytest.raises(PDPConnectError):
            core.retry_delay(exc, 2, retriable=False)  # budget spent
        assert perf.counters() == {
            "client.transport_failures": 3,
            "client.retries": 2,
        }

    def test_sent_then_lost_is_retried_only_when_idempotent(self):
        core, perf = self.core()
        exc = PDPUnavailableError("connection closed mid-response")
        assert core.retry_delay(exc, 0, retriable=True) <= 0.01
        with pytest.raises(PDPUnavailableError) as excinfo:
            core.retry_delay(exc, 0, retriable=False)
        assert excinfo.value is exc
        assert perf.counters()["client.retries"] == 1

    def test_overload_is_retried_after_the_servers_hint(self):
        core, perf = self.core()
        exc = PDPOverloadedError("shard full", retry_after=0.5)
        delay = core.retry_delay(exc, 1, retriable=False)
        assert 0.5 <= delay <= 0.5 + 0.02
        assert perf.counters() == {
            "client.overload_rejections": 1,
            "client.retries": 1,
        }

    def test_backoff_is_capped(self):
        core, _ = self.core()
        core._max_retries = 50
        exc = PDPConnectError("refused")
        assert all(
            core.retry_delay(exc, attempt, retriable=True) <= 0.04
            for attempt in range(10, 20)
        )

    def test_configuration_is_validated_once(self):
        for bad in (
            {"protocol_version": "v3"},
            {"protocol_version": "auto"},
            {"batch_max": 0},
            {"batch_max": -1},
            {"batch_max": protocol.MAX_WIRE_BATCH + 1},
            {"pipeline_window": 0},
            {"pool_size": 0},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"timeout": math.nan},
            {"health_timeout": 0.0},
        ):
            [name] = bad
            with pytest.raises(ValueError, match=name):
                IdleCore("127.0.0.1", 1, **bad)
        IdleCore("h", 1, batch_max=protocol.MAX_WIRE_BATCH, pipeline_window=1)

    @pytest.mark.parametrize("port", [0, -5, 65536, 99999])
    def test_a_port_out_of_range_is_refused(self, port):
        # The resolver would wrap 99999 to 34463 and connect there.
        with pytest.raises(ValueError, match="port"):
            IdleCore("127.0.0.1", port)
        IdleCore("127.0.0.1", 65535)


class TestOpenFailures:
    """What a failed open of the pipelined connection does to the queue."""

    def test_a_spent_connect_budget_fails_what_was_queued_before_it(self):
        core = IdleCore(
            "h", 1, max_retries=1, backoff_base=0.01, rng=random.Random(7)
        )
        submit_all(core._queue, [("early", None)], submitted=1.0)
        lost = PDPConnectError("refused")
        delay, settled = core.open_failed(lost, started=2.0)
        assert 0.0 <= delay <= 0.01 and settled == []
        submit_all(core._queue, [("late", None)], submitted=3.0)
        assert core.open_failed(lost, started=4.0) == (0.0, [("early", None, lost)])
        # "late" came after the first failed attempt began: it waits for
        # the next round of attempts, which starts a new budget.
        assert core._queue.oldest() == 3.0
        assert 0.0 <= core.open_failed(lost, started=5.0)[0] <= 0.01
