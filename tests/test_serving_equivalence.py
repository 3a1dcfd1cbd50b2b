"""Differential serving tests: remote must equal in-process, bit for bit.

Two engines built identically, one consulted in process and one through
the full network stack (wire encoding, sharded queues, micro-batching,
SQLite batch transactions), must produce identical decision streams and
identical retained-ADI stores.  And under many concurrent clients
hammering one user, the per-user shard serialization must keep the MSoD
exclusivity invariant — the race it prevents would admit both mutually
exclusive roles.
"""

import threading

import pytest

from repro.client import RemotePDP
from repro.core import (
    MMER,
    ContextName,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    SQLiteRetainedADIStore,
)
from repro.obs import Recorder
from repro.server import AuthorizationService, ServerThread
from repro.workload import (
    AUDITOR,
    TELLER,
    decision_request_stream,
    hot_user_stream,
)


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


def store_digest(store):
    """An order-independent, id-independent fingerprint of a store."""
    return tuple(
        sorted(
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
    )


def record_digest(records):
    """The same fingerprint, built from decisions' ``adi_adds``."""
    return tuple(
        sorted(
            (
                record.user_id,
                tuple(sorted((r.role_type, r.value) for r in record.roles)),
                record.operation,
                record.target,
                str(record.context_instance),
                record.granted_at,
                record.request_id,
            )
            for record in records
        )
    )


class TestDifferentialEquivalence:
    def _requests(self):
        return list(
            decision_request_stream(
                300, n_users=40, n_branches=3, n_periods=2,
                conflict_fraction=0.3, seed=17,
            )
        )

    def _remote_leg(self, requests, protocol_version, backend):
        """Run the stream through a fresh server over one wire protocol;
        also return how many decisions the server received batched."""
        if backend == "memory":
            store = InMemoryRetainedADIStore()  # workers never linger
        else:
            store = SQLiteRetainedADIStore(":memory:")
        engine = MSoDEngine(bank_policy_set(), store)
        perf = Recorder()
        service = AuthorizationService(engine, n_shards=4, batch_max=8, perf=perf)
        with ServerThread(service) as server:
            with RemotePDP(
                server.host,
                server.port,
                timeout=10.0,
                protocol_version=protocol_version,
            ) as pdp:
                decisions = [pdp.decide(request) for request in requests]
        digest = store_digest(store)
        store.close()
        batched = perf.sizes().get("wire.batch_size")
        return decisions, digest, batched.total if batched else 0

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_remote_decisions_equal_in_process_bit_for_bit(self, backend):
        """In-process, v1 wire and v2 batched wire: one identical stream.

        The same request sequence must produce bit-identical decisions
        (full ``Decision`` equality including ``adi_adds``) and
        identical retained-ADI store fingerprints on all three paths —
        the differential guarantee that the binary batched protocol
        changed the wire, not the semantics.  The server's store is a
        memory store (batches cut at frame boundaries) or SQLite (the
        gather window grows batches that share a commit).
        """
        requests = self._requests()

        local_engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        local_decisions = [local_engine.check(request) for request in requests]
        local_digest = store_digest(local_engine.store)

        v1_decisions, v1_digest, v1_batched = self._remote_leg(
            requests, "v1", backend
        )
        v2_decisions, v2_digest, v2_batched = self._remote_leg(
            requests, "v2", backend
        )
        # Each leg ran over its own protocol: the server received every
        # v2 decision in a decide-batch frame, and no v1 one.
        assert v1_batched == 0
        assert v2_batched == len(requests)

        assert len(v1_decisions) == len(local_decisions)
        assert len(v2_decisions) == len(local_decisions)
        for local, v1, v2 in zip(local_decisions, v1_decisions, v2_decisions):
            assert v1 == local  # full Decision equality incl. adi_adds
            assert v2 == local

        assert v1_digest == local_digest
        assert v2_digest == local_digest

        grants = [d for d in local_decisions if d.granted]
        denies = [d for d in local_decisions if d.denied]
        assert grants and denies  # the workload exercised both paths


class TestConcurrentSameUserClients:
    N_CLIENTS = 8
    PER_CLIENT = 25

    def test_no_retained_adi_race_under_hot_user_hammering(self):
        store = SQLiteRetainedADIStore(":memory:")
        engine = MSoDEngine(bank_policy_set(), store)
        service = AuthorizationService(engine, n_shards=4, batch_max=16)
        total = self.N_CLIENTS * self.PER_CLIENT
        requests = list(hot_user_stream(total, conflict_fraction=0.5, seed=23))

        decisions_by_client = [[] for _ in range(self.N_CLIENTS)]
        errors = []

        with ServerThread(service) as server:
            with RemotePDP(
                server.host,
                server.port,
                pool_size=self.N_CLIENTS,
                timeout=20.0,
            ) as pdp:

                def client(index):
                    lo = index * self.PER_CLIENT
                    try:
                        for request in requests[lo:lo + self.PER_CLIENT]:
                            decisions_by_client[index].append(
                                pdp.decide(request)
                            )
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(self.N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)

        assert not errors, errors
        decisions = [d for client in decisions_by_client for d in client]
        assert len(decisions) == total

        # The MSoD exclusivity invariant: whichever duty was granted
        # first in the context, the other must never have been admitted.
        # A read-then-commit race between two interleaved same-user
        # requests is exactly what would put both roles in the store.
        retained_roles = {
            role for record in store.records() for role in record.roles
        }
        assert not {TELLER, AUDITOR} <= retained_roles

        grants = [d for d in decisions if d.granted]
        denies = [d for d in decisions if d.denied]
        assert grants and denies  # contention actually happened

        # Every granted record — and only those — is in the store.
        assert sum(d.records_added for d in grants) == store.count()
        granted_records = [
            record for decision in grants for record in decision.adi_adds
        ]
        assert record_digest(granted_records) == store_digest(store)
        store.close()

    def test_distinct_users_proceed_concurrently_and_independently(self):
        """Many users through many client threads: per-user outcomes match
        a sequential in-process replay of each user's own subsequence."""
        store = InMemoryRetainedADIStore()
        engine = MSoDEngine(bank_policy_set(), store)
        service = AuthorizationService(engine, n_shards=4)
        requests = list(
            decision_request_stream(
                160, n_users=8, n_branches=1, n_periods=1,
                conflict_fraction=0.4, seed=29,
            )
        )
        by_user = {}
        for request in requests:
            by_user.setdefault(request.user_id, []).append(request)

        results = {}
        errors = []
        with ServerThread(service) as server:
            with RemotePDP(
                server.host, server.port, pool_size=8, timeout=20.0
            ) as pdp:

                def client(user_id, user_requests):
                    try:
                        results[user_id] = [
                            pdp.decide(request) for request in user_requests
                        ]
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(user, reqs))
                    for user, reqs in by_user.items()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)

        assert not errors, errors
        # Each user's decision sequence must equal a sequential replay
        # of just that user (users don't interact under this policy).
        for user, user_requests in by_user.items():
            reference = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
            expected_effects = [
                reference.check(request).effect for request in user_requests
            ]
            assert [d.effect for d in results[user]] == expected_effects
