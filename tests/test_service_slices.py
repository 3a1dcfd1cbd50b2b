"""A ``decide-batch`` frame is the service's unit of work: the entries
it sends one shard travel as one queue slice with one future, admission
and micro-batches count requests, and a failed commit fails its batch
without taking the shard worker down."""

import asyncio

import pytest

from repro.core import ContextName, SQLiteRetainedADIStore
from repro.core.retained_adi import store_digest
from repro.errors import StoreError
from repro.server import (
    AuthorizationService,
    MSoDServer,
    ServiceOverloadedError,
    shard_of,
)
from tests.test_retained_adi import _FailNextCommit
from tests.test_server import (
    AUDITOR,
    TELLER,
    batch_frame,
    make_engine,
    make_request,
)


def users_on(shard, n_shards, count, prefix="u"):
    """``count`` user ids that :func:`shard_of` puts on ``shard``."""
    users = []
    index = 0
    while len(users) < count:
        user = f"{prefix}{index}"
        if shard_of(user, n_shards) == shard:
            users.append(user)
        index += 1
    return users


def answer_frames(service, *frames):
    """Each frame through the server's ``decide-batch`` handler, in process.

    Every frame is queued before any shard worker runs, as frames a
    pipelining client sent back to back would be.
    """

    async def scenario():
        server = MSoDServer(service)
        await service.start()
        try:
            return await asyncio.gather(
                *(server._decide_batch(frame["id"], frame) for frame in frames)
            )
        finally:
            await service.stop()

    return asyncio.run(scenario())


def kinds(reply):
    return [
        entry["decision"]["effect"] if entry["ok"] else entry["error"]["kind"]
        for entry in reply["results"]
    ]


class _CheckLog:
    """An engine that logs the request ids it checks, in order."""

    def __init__(self, engine):
        self._engine = engine
        self.store = engine.store
        self.perf = engine.perf
        self.checked = []

    def check(self, request):
        self.checked.append(request.request_id)
        return self._engine.check(request)


class _CountCommits:
    def __init__(self, conn):
        self._conn = conn
        self.commits = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self):
        self.commits += 1
        self._conn.commit()


class TestFrameSlices:
    def test_a_frame_makes_one_future_per_shard_it_touches(self, monkeypatch):
        n_shards = 3
        service = AuthorizationService(make_engine(), n_shards=n_shards)
        requests = [make_request(f"user-{index}", TELLER, index) for index in range(24)]
        created = []

        def no_single_submits(request):
            raise AssertionError("a frame entry went through submit()")

        enqueue = service._enqueue

        def counting_enqueue(batch, single):
            loop = asyncio.get_running_loop()
            create_future = loop.create_future

            def counting():
                created.append(create_future())
                return created[-1]

            loop.create_future = counting
            try:
                return enqueue(batch, single)
            finally:
                del loop.create_future

        monkeypatch.setattr(service, "submit", no_single_submits)
        monkeypatch.setattr(service, "_enqueue", counting_enqueue)
        [reply] = answer_frames(service, batch_frame("f-1", *requests))
        assert kinds(reply) == ["grant"] * 24
        shards = {shard_of(request.user_id, n_shards) for request in requests}
        assert len(shards) == n_shards
        assert len(created) == n_shards

    def test_a_slice_past_the_bound_sheds_exactly_its_overflow(self):
        service = AuthorizationService(
            make_engine(), n_shards=2, queue_depth=3, retry_after=0.125
        )
        crowded = users_on(0, 2, 7, prefix="c")
        roomy = users_on(1, 2, 2, prefix="r")
        # Frame 1 takes two of shard 0's three places; frame 2 fits one
        # more entry there, and all of its shard-1 entries.
        first = batch_frame(
            "f-1", *(make_request(user, TELLER) for user in crowded[:2])
        )
        second = batch_frame(
            "f-2",
            make_request(crowded[2], TELLER),
            make_request(roomy[0], TELLER),
            make_request(crowded[3], TELLER),
            make_request(crowded[4], TELLER),
            make_request(roomy[1], TELLER),
        )
        one, two = answer_frames(service, first, second)
        assert kinds(one) == ["grant", "grant"]
        assert kinds(two) == ["grant", "grant", "overloaded", "overloaded", "grant"]
        shed = {
            "ok": False,
            "error": {
                "kind": "overloaded",
                "detail": "shard 0 queue is full (3 requests pending)",
                "retry_after": 0.125,
            },
        }
        assert two["results"][2] == two["results"][3] == shed
        shards = service.metrics()["shards"]
        assert (shards[0]["submitted"], shards[0]["rejected"]) == (3, 2)
        assert (shards[1]["submitted"], shards[1]["rejected"]) == (2, 0)

    def test_a_full_shard_sheds_a_whole_slice_and_queues_nothing(self):
        service = AuthorizationService(make_engine(), n_shards=1, queue_depth=2)

        async def scenario():
            await service.start()
            held = asyncio.ensure_future(service.decide_many(
                [make_request(f"a{index}", TELLER) for index in range(2)]
            ))
            late = asyncio.ensure_future(
                service.decide_many([make_request("late", TELLER)])
            )
            await asyncio.sleep(0)  # both queue before a worker runs
            depths = service.queue_depths()
            outcomes = await asyncio.gather(held, late)
            await service.stop()
            return outcomes, depths

        (held, [late]), depths = asyncio.run(scenario())
        assert [decision.effect for decision in held] == ["grant", "grant"]
        assert isinstance(late, ServiceOverloadedError)
        assert depths == [2]
        shard = service.metrics()["shards"][0]
        assert (shard["submitted"], shard["rejected"]) == (2, 1)

    def test_a_users_entries_keep_frame_order_across_slices_and_frames(self):
        engine = _CheckLog(make_engine())
        service = AuthorizationService(engine, n_shards=2, batch_max=2)
        users = users_on(0, 2, 2, prefix="a") + users_on(1, 2, 2, prefix="b")
        roles = [AUDITOR, TELLER, AUDITOR, TELLER]
        frames = []
        sent = {user: [] for user in users}
        for frame_index in range(3):
            requests = []
            for turn in range(2):
                for user in users:
                    step = 2 * frame_index + turn
                    request = make_request(user, roles[step % 4], step)
                    requests.append(request)
                    sent[user].append(request.request_id)
            frames.append(batch_frame(f"f-{frame_index}", *requests))
        replies = answer_frames(service, *frames)
        for user in users:
            assert [rid for rid in engine.checked if rid in set(sent[user])] == sent[user]
        # Each user's first request (auditor) wins the MMER: a teller
        # step after it is denied, which only holds if it ran first.
        for reply in replies:
            assert kinds(reply) == ["grant"] * 4 + ["deny"] * 4
        assert service.metrics()["shards"][0]["max_batch"] == 2

    def test_a_slice_of_three_batches_commits_three_times(self):
        store = SQLiteRetainedADIStore(":memory:")
        store._conn = counter = _CountCommits(store._conn)
        service = AuthorizationService(make_engine(store), n_shards=1, batch_max=4)
        requests = [make_request(f"user-{index}", TELLER, index) for index in range(12)]
        [reply] = answer_frames(service, batch_frame("f-1", *requests))
        assert kinds(reply) == ["grant"] * 12
        assert counter.commits == 3
        shard = service.metrics()["shards"][0]
        assert (shard["batches"], shard["max_batch"], shard["completed"]) == (3, 4, 12)
        added = sum(entry["decision"]["records_added"] for entry in reply["results"])
        assert store.count() == added >= 12
        store.close()


class TestLifecycleWithSlices:
    def test_graceful_drain_answers_every_queued_slice(self):
        async def scenario():
            service = AuthorizationService(make_engine(), n_shards=2, batch_max=2)
            await service.start()
            frame = asyncio.ensure_future(service.decide_many(
                [make_request(f"user-{index}", TELLER, index) for index in range(9)]
            ))
            await asyncio.sleep(0)  # the frame's slices are queued
            single = service.submit(make_request("solo", TELLER))
            await service.stop()
            assert single.done()
            return await frame, single.result()

        decisions, single = asyncio.run(scenario())
        assert single.granted
        assert len(decisions) == 9 and all(decision.granted for decision in decisions)

    def test_abort_abandons_queued_slices(self):
        async def scenario():
            service = AuthorizationService(make_engine(), n_shards=2)
            await service.start()
            frame = asyncio.ensure_future(service.decide_many(
                [make_request(f"user-{index}", TELLER, index) for index in range(6)]
            ))
            await asyncio.sleep(0)  # the frame's slices are queued
            single = service.submit(make_request("solo", TELLER))
            await service.abort()
            await asyncio.sleep(0.05)
            abandoned = not frame.done() and not single.done()
            frame.cancel()
            return abandoned, sum(service.queue_depths())

        abandoned, queued = asyncio.run(scenario())
        assert abandoned and queued == 7


class TestFailedCommit:
    def test_a_failed_commit_fails_its_batch_and_the_shard_keeps_serving(
        self, tmp_path
    ):
        path = str(tmp_path / "adi.db")
        store = SQLiteRetainedADIStore(path)
        store._conn = _FailNextCommit(store._conn)
        service = AuthorizationService(make_engine(store), n_shards=1)

        async def scenario():
            server = MSoDServer(service)
            await service.start()
            try:
                frame = batch_frame("f-1", make_request("alice", TELLER, 0))
                reply = await asyncio.wait_for(server._decide_batch("f-1", frame), 2.0)
                store._conn.armed = True
                with pytest.raises(StoreError):
                    await asyncio.wait_for(
                        service.decide(make_request("carol", AUDITOR, 1)), 2.0
                    )
                later = await asyncio.wait_for(
                    service.decide(make_request("bob", TELLER, 2)), 2.0
                )
            finally:
                # A dead shard worker would leave the drain waiting forever.
                await asyncio.wait_for(service.stop(), 2.0)
            return reply, later

        reply, later = asyncio.run(scenario())
        [entry] = reply["results"]
        assert entry["ok"] is False
        assert entry["error"]["kind"] == "internal"
        assert entry["error"]["detail"].startswith("StoreError")
        assert later.granted
        scope = ContextName.parse("Branch=*, Period=P1")
        live = (store.user_roles("alice", scope), store_digest(store))
        store.close()
        reopened = SQLiteRetainedADIStore(path)
        try:
            assert live == (reopened.user_roles("alice", scope), store_digest(reopened))
            assert {record.user_id for record in reopened.records()} == {"bob"}
        finally:
            reopened.close()
