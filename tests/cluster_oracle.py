"""What the cluster fault tests share: the per-shard oracle and live load.

Per-user routing promises *per-shard* equivalence: each shard decides
and retains exactly what a single-node engine fed that shard's
substream does.  A single global engine is not the right oracle: step
4's context-started check spans users, so the record set for a shared
context depends on which other-shard users touched it first.
"""

import threading
import time

from repro.core import InMemoryRetainedADIStore, MSoDEngine
from repro.workload import AUDITOR, TELLER


def store_digest(store):
    """Every retained record as a sortable tuple, ``granted_at`` kept:
    §4.3 purges decide on it, so a replicated, failed-over or resharded
    record must carry its oracle's timestamp (``repro.core.store_digest``
    leaves it out)."""
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


def oracle_failures(cluster, policy_set, requests, effects):
    """How ``cluster`` differs from its per-shard oracles (empty: none).

    Each oracle is fed the substream the final ring sends its shard.
    Compares every effect and each shard primary's retained ADI, and
    checks that no user holds Teller and Auditor in one context.
    """
    oracles = {
        name: MSoDEngine(policy_set, InMemoryRetainedADIStore())
        for name in cluster.shard_names
    }
    oracle_effects = [
        oracles[cluster.ring.shard_for(request.user_id)].check(request).effect
        for request in requests
    ]
    failures = []
    mismatches = sum(a != b for a, b in zip(effects, oracle_effects))
    if mismatches:
        failures.append(f"{mismatches} decision(s) diverged from the oracle")
    held = {}
    for name in cluster.shard_names:
        store = cluster.shard(name).primary.store
        for record in store.records():
            key = (record.user_id, str(record.context_instance))
            held.setdefault(key, set()).update(record.roles)
        if store_digest(store) != store_digest(oracles[name].store):
            failures.append(
                f"{name} retained ADI differs from its single-node oracle"
            )
    exclusive = sum(TELLER in r and AUDITOR in r for r in held.values())
    if exclusive:
        failures.append(f"{exclusive} MMER exclusivity violation(s)")
    return failures


class LiveLoad:
    """Threads deciding until the ``with`` block exits.

    Worker ``i`` decides ``probes(i, serial)`` for serial 1, 2, ...,
    waiting for each decide, and logs ``(request, effect)`` in issue
    order.  The first error ends a worker and lands in ``errors``.
    """

    def __init__(self, pdp, probes, workers=1):
        self.errors, self.logs = [], [[] for _ in range(workers)]
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._run, args=(pdp, probes, i), daemon=True
            )
            for i in range(workers)
        ]

    def _run(self, pdp, probes, index):
        serial = 0
        while not self._stop.is_set():
            serial += 1
            for request in probes(index, serial):
                try:
                    effect = pdp.decide(request).effect
                except Exception as exc:
                    self.errors.append(f"worker {index}: {exc!r}")
                    return
                self.logs[index].append((request, effect))

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=60.0)

    def decided(self):
        return [entry for log in self.logs for entry in log]

    def wait_for(self, count, timeout=60.0):
        """Block until ``count`` decisions were made; fail on a stall."""
        deadline = time.monotonic() + timeout
        while len(self.decided()) < count:
            assert not self.errors, self.errors
            assert time.monotonic() < deadline, f"load stalled below {count}"
            time.sleep(0.02)
