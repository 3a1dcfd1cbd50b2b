"""BENCH_hotpath — decision-engine hot-path regression benchmark.

Measures ``MSoDEngine.check`` throughput on a mixed MMER+MMEP workload
(by default 10k requests against a 50-policy set) and compares the
optimized engine against a *seed-equivalent naive baseline*: a faithful
transcription of the pre-optimization store (linear context scans, no
aggregates) and policy dispatch (linear scan, per-component context
matching), driven through the same engine algorithm.

The run also verifies semantics: the naive baseline, the optimized
in-memory store and the optimized SQLite store must produce identical
decisions on the identical request stream, and the in-memory stores
must end with identical digests.

Results are written as machine-readable JSON to
``benchmarks/results/BENCH_hotpath.json`` so later PRs have a perf
trajectory to compare against.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_hotpath_regression.py           # full
    PYTHONPATH=src python benchmarks/bench_hotpath_regression.py --smoke  # CI

The baseline deliberately *under*-states the speedup: it still benefits
from the optimized ``ContextName`` hash/parse caches that global state
shares across runs; only the store/dispatch layers are naive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Iterator

from repro.api import open_pdp, open_store
from repro.core import (
    MMEP,
    MMER,
    ContextName,
    DecisionRequest,
    MODE_LITERAL,
    MODE_STRICT,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    Step,
    store_digest,
)
from repro.core.retained_adi import (
    ADIApplyOutcome,
    RetainedADIRecord,
    RetainedADIStore,
)
from repro.obs import Recorder

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_hotpath.json"
)


# ---------------------------------------------------------------------------
# Seed-equivalent naive baseline
# ---------------------------------------------------------------------------
def _naive_covers(pol_comp, comp) -> bool:
    if pol_comp.ctx_type != comp.ctx_type:
        return False
    if pol_comp.value in ("*", "!"):
        return True
    return pol_comp.value == comp.value


def _naive_subordinate(name: ContextName, policy: ContextName) -> bool:
    """The seed per-component matching loop (pre compiled-matcher)."""
    if len(policy) > len(name):
        return False
    return all(
        _naive_covers(pol_comp, comp)
        for pol_comp, comp in zip(policy.components, name.components)
    )


class NaiveRetainedADIStore(RetainedADIStore):
    """Transcription of the seed in-memory store: id-set indexes, linear
    context matching, history views rebuilt by full per-user scans."""

    def __init__(self) -> None:
        self._records: dict[int, RetainedADIRecord] = {}
        self._by_user: dict[str, list[int]] = {}
        self._by_context: dict[ContextName, set[int]] = {}
        self._next_id = 1

    def add(self, record):
        stored = RetainedADIRecord(
            user_id=record.user_id,
            roles=record.roles,
            operation=record.operation,
            target=record.target,
            context_instance=record.context_instance,
            granted_at=record.granted_at,
            request_id=record.request_id,
            record_id=self._next_id,
        )
        self._records[self._next_id] = stored
        self._by_user.setdefault(record.user_id, []).append(self._next_id)
        self._by_context.setdefault(record.context_instance, set()).add(
            self._next_id
        )
        self._next_id += 1
        return stored

    def records(self):
        return iter(list(self._records.values()))

    def _matching_contexts(self, effective_context):
        return [
            context
            for context in self._by_context
            if _naive_subordinate(context, effective_context)
        ]

    def find(self, effective_context):
        found = []
        for context in self._matching_contexts(effective_context):
            found.extend(
                self._records[record_id]
                for record_id in self._by_context[context]
            )
        found.sort(key=lambda record: record.record_id)
        return found

    def find_user(self, user_id, effective_context):
        ids = self._by_user.get(user_id, ())
        return [
            self._records[record_id]
            for record_id in ids
            if record_id in self._records
            and _naive_subordinate(
                self._records[record_id].context_instance, effective_context
            )
        ]

    def has_context(self, effective_context):
        return any(
            _naive_subordinate(context, effective_context)
            for context in self._by_context
        )

    def _delete(self, record_id):
        record = self._records.pop(record_id)
        bucket = self._by_context.get(record.context_instance)
        if bucket is not None:
            bucket.discard(record_id)
            if not bucket:
                del self._by_context[record.context_instance]

    def apply_detailed(self, mutation):
        """Context purges, then adds: all the engine's decisions ask."""
        evicted = []
        for context in mutation.purge_contexts:
            doomed = self.find(context)  # gone before the next context's find
            for record in doomed:
                self._delete(record.record_id)
            evicted += doomed
        added = [self.add(record) for record in mutation.adds]
        return ADIApplyOutcome(evicted, added)

    def clear(self):
        removed = len(self._records)
        self._records.clear()
        self._by_user.clear()
        self._by_context.clear()
        return removed

    def count(self):
        return len(self._records)


class NaivePolicySet(MSoDPolicySet):
    """Seed dispatch: scan every policy, match per component."""

    def matching(self, instance):
        return tuple(
            policy
            for policy in self.policies
            if _naive_subordinate(instance, policy.business_context)
        )


# ---------------------------------------------------------------------------
# Workload: 50 policies (mixed MMER+MMEP) over 10 business processes
# ---------------------------------------------------------------------------
N_DEPTS = 10
POLICIES_PER_DEPT = 5


def _dept_roles(dept: int) -> list[Role]:
    return [Role("employee", f"D{dept}-R{index}") for index in range(4)]


def _dept_privileges(dept: int) -> list[Privilege]:
    return [
        Privilege(f"op{index}", f"res://d{dept}/t{index}") for index in range(4)
    ]


def build_policy_set(factory=MSoDPolicySet) -> MSoDPolicySet:
    """50 policies: per business process, five mixed MMER/MMEP shapes."""
    policies = []
    for dept in range(N_DEPTS):
        roles = _dept_roles(dept)
        privileges = _dept_privileges(dept)
        lead = f"Dept{dept}"
        policies.append(
            MSoDPolicy(
                ContextName.parse(f"{lead}=*, Case=!"),
                mmers=[MMER(roles[:3], 2)],
                policy_id=f"d{dept}-mmer-case",
            )
        )
        policies.append(
            MSoDPolicy(
                ContextName.parse(f"{lead}=!"),
                mmeps=[MMEP(privileges[:3], 2)],
                policy_id=f"d{dept}-mmep-unit",
            )
        )
        policies.append(
            MSoDPolicy(
                ContextName.parse(f"{lead}=*"),
                mmers=[MMER(roles[1:], 2)],
                mmeps=[MMEP(privileges[1:], 3)],
                policy_id=f"d{dept}-mixed",
            )
        )
        policies.append(
            MSoDPolicy(
                ContextName.parse(f"{lead}=*, Case=*"),
                mmeps=[MMEP([privileges[0], privileges[0]], 2)],
                policy_id=f"d{dept}-mmep-cap",
            )
        )
        policies.append(
            MSoDPolicy(
                ContextName.parse(f"{lead}=!, Case=!"),
                mmers=[MMER(roles, 3)],
                first_step=Step("open", f"res://d{dept}/case"),
                last_step=Step("close", f"res://d{dept}/case"),
                policy_id=f"d{dept}-bracketed",
            )
        )
    return factory(policies)


def request_stream(
    n_requests: int, n_users: int, seed: int = 20260806
) -> Iterator[DecisionRequest]:
    """Seeded mixed traffic: MMER conflicts, MMEP repeats, open/close."""
    rng = random.Random(seed)
    home_role: dict[tuple[str, int], int] = {}
    for index in range(n_requests):
        user = f"u{rng.randrange(n_users):04d}"
        dept = rng.randrange(N_DEPTS)
        unit = rng.randrange(4)
        case = rng.randrange(8)
        context = ContextName.parse(
            f"Dept{dept}=unit{unit}, Case=c{case}"
        )
        roles = _dept_roles(dept)
        privileges = _dept_privileges(dept)
        home = home_role.setdefault((user, dept), rng.randrange(len(roles)))
        role_index = (
            home if rng.random() < 0.8 else rng.randrange(len(roles))
        )
        draw = rng.random()
        if draw < 0.04:
            operation, target = "open", f"res://d{dept}/case"
        elif draw < 0.06:
            operation, target = "close", f"res://d{dept}/case"
        elif draw < 0.66:
            privilege = privileges[rng.randrange(len(privileges))]
            operation, target = privilege.operation, privilege.target
        else:
            operation, target = "browse", f"res://d{dept}/public"
        yield DecisionRequest(
            user_id=user,
            roles=(roles[role_index],),
            operation=operation,
            target=target,
            context_instance=context,
            timestamp=float(index),
        )


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def _decision_key(decision) -> tuple:
    return (
        decision.effect,
        decision.reason,
        decision.matched_policy_ids,
        decision.records_added,
    )


def run_stream(engine: MSoDEngine, requests: list[DecisionRequest]):
    check = engine.check
    started = time.perf_counter()
    decisions = [check(request) for request in requests]
    elapsed = time.perf_counter() - started
    return elapsed, decisions


def run_benchmark(
    n_requests: int, n_users: int, mode: str = MODE_STRICT
) -> dict:
    requests = list(request_stream(n_requests, n_users))

    naive_store = NaiveRetainedADIStore()
    naive_engine = MSoDEngine(
        build_policy_set(NaivePolicySet), naive_store, mode=mode
    )
    naive_s, naive_decisions = run_stream(naive_engine, requests)

    perf = Recorder()
    memory_store = open_store("memory")
    memory_engine = open_pdp(
        build_policy_set(), store=memory_store, mode=mode, perf=perf
    ).engine
    memory_s, memory_decisions = run_stream(memory_engine, requests)

    sqlite_store = open_store("sqlite::memory:")
    sqlite_engine = open_pdp(
        build_policy_set(), store=sqlite_store, mode=mode
    ).engine
    sqlite_s, sqlite_decisions = run_stream(sqlite_engine, requests)

    # Semantics: all three backends must agree decision-for-decision,
    # purge counts included, and the stores must end bit-identical.
    for naive_d, memory_d, sqlite_d in zip(
        naive_decisions, memory_decisions, sqlite_decisions
    ):
        assert _decision_key(naive_d) == _decision_key(memory_d), (
            naive_d,
            memory_d,
        )
        assert _decision_key(memory_d) == _decision_key(sqlite_d), (
            memory_d,
            sqlite_d,
        )
        assert (
            naive_d.records_purged
            == memory_d.records_purged
            == sqlite_d.records_purged
        ), (naive_d, sqlite_d)
    assert store_digest(naive_store) == store_digest(memory_store)
    assert store_digest(memory_store) == store_digest(sqlite_store)
    sqlite_store.close()

    grants = sum(1 for decision in memory_decisions if decision.granted)
    return {
        "mode": mode,
        "requests": n_requests,
        "users": n_users,
        "policies": N_DEPTS * POLICIES_PER_DEPT,
        "grants": grants,
        "denies": n_requests - grants,
        "records_retained_final": memory_store.count(),
        "records_added_total": perf.counter("engine.records_added"),
        "timings_s": {
            "naive_inmemory": round(naive_s, 4),
            "optimized_inmemory": round(memory_s, 4),
            "optimized_sqlite": round(sqlite_s, 4),
        },
        "throughput_rps": {
            "naive_inmemory": round(n_requests / naive_s, 1),
            "optimized_inmemory": round(n_requests / memory_s, 1),
            "optimized_sqlite": round(n_requests / sqlite_s, 1),
        },
        "speedup_inmemory": round(naive_s / memory_s, 2),
        "decisions_identical_across_engines": True,
        "perf_snapshot_optimized_inmemory": perf.snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast run for CI (correctness + JSON shape, not timing)",
    )
    parser.add_argument("--requests", type=int, default=10_000)
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--output", default=RESULTS_PATH)
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_hotpath.json to gate against: fail when "
        "measured optimized-in-memory throughput drops below "
        "--min-ratio of the committed run's",
    )
    parser.add_argument("--min-ratio", type=float, default=0.95)
    args = parser.parse_args(argv)

    if args.smoke:
        n_requests, n_users = 1_000, 50
    else:
        n_requests, n_users = args.requests, args.users

    report = {
        "benchmark": "hotpath_regression",
        "smoke": args.smoke,
        "strict": run_benchmark(n_requests, n_users, MODE_STRICT),
        "literal": run_benchmark(max(n_requests // 5, 200), n_users, MODE_LITERAL),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
    }

    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    strict = report["strict"]
    print(
        f"hotpath[{strict['mode']}]: {strict['requests']} requests, "
        f"{strict['policies']} policies, "
        f"{strict['records_added_total']} records added\n"
        f"  naive in-memory     : {strict['timings_s']['naive_inmemory']:.3f}s "
        f"({strict['throughput_rps']['naive_inmemory']:.0f} rps)\n"
        f"  optimized in-memory : {strict['timings_s']['optimized_inmemory']:.3f}s "
        f"({strict['throughput_rps']['optimized_inmemory']:.0f} rps)\n"
        f"  optimized sqlite    : {strict['timings_s']['optimized_sqlite']:.3f}s "
        f"({strict['throughput_rps']['optimized_sqlite']:.0f} rps)\n"
        f"  speedup (in-memory) : {strict['speedup_inmemory']:.2f}x\n"
        f"  wrote {args.output}"
    )

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            committed = json.load(handle)
        # Absolute rps is machine- and load-dependent, so the gate is
        # on the *speedup ratio* (naive vs optimized on the same box,
        # same run): it must stay within --min-ratio of the committed
        # run's.  The naive baseline is a fixed workload, so a hot-path
        # slowdown shows up directly as a shrunken ratio.  Raw rps is
        # still printed for the human reading the log.
        committed_speedup = committed["strict"]["speedup_inmemory"]
        committed_rps = committed["strict"]["throughput_rps"][
            "optimized_inmemory"
        ]
        measured_rps = strict["throughput_rps"]["optimized_inmemory"]
        ratio = strict["speedup_inmemory"] / committed_speedup
        verdict = "ok" if ratio >= args.min_ratio else "REGRESSION"
        print(
            f"  baseline gate       : speedup {strict['speedup_inmemory']:.2f}x "
            f"vs committed {committed_speedup:.2f}x = {ratio:.2f} "
            f"(floor {args.min_ratio:.2f}); "
            f"rps {measured_rps:.0f} vs {committed_rps:.0f} -> {verdict}"
        )
        if ratio < args.min_ratio:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
