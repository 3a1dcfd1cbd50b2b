"""Tests for the unified store-spec grammar and builder.

``repro.storespec`` is the single parser every entry point routes
through (``open_pdp`` / ``open_server`` / ``open_cluster`` / the CLI /
the benches).  These tests pin the grammar, the typed
``StoreSpecError`` failures, the builder's ownership contract, and the
end-to-end surfaces the spec feeds: a tiered PDP through ``open_pdp``
and the store gauges a tiered server exports over the metrics verb.
"""

import pytest

from repro.api import (
    ParsedStoreSpec,
    StoreSpecError,
    build_store,
    open_pdp,
    open_server,
    open_store,
    parse_store_spec,
)
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.errors import PolicyError
from repro.obs import parse_exposition
from repro.storespec import DEFAULT_HOT_SHARDS, DEFAULT_HOT_USERS

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


def make_request(user, index=0):
    return DecisionRequest(
        user_id=user,
        roles=(TELLER,),
        operation="handleCash",
        target="till://1",
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        timestamp=float(index),
        request_id=f"req-{user}-{index}",
    )


class TestGrammar:
    def test_memory(self):
        parsed = parse_store_spec("memory")
        assert parsed.kind == "memory"
        assert not parsed.is_remote

    def test_sqlite_with_path(self):
        parsed = parse_store_spec("sqlite:/var/lib/adi.db")
        assert (parsed.kind, parsed.path) == ("sqlite", "/var/lib/adi.db")

    def test_bare_sqlite_defers_path(self):
        parsed = parse_store_spec("sqlite")
        assert (parsed.kind, parsed.path) == ("sqlite", None)

    def test_sqlite_empty_path_rejected(self):
        with pytest.raises(StoreSpecError, match="needs a path"):
            parse_store_spec("sqlite:")

    def test_remote(self):
        parsed = parse_store_spec("remote:pdp.internal:7001")
        assert parsed.is_remote
        assert (parsed.host, parsed.port) == ("pdp.internal", 7001)

    def test_remote_bad_port(self):
        with pytest.raises(StoreSpecError, match="non-numeric port"):
            parse_store_spec("remote:host:http")

    def test_remote_missing_parts(self):
        with pytest.raises(StoreSpecError):
            parse_store_spec("remote:7001")

    @pytest.mark.parametrize("port", ["0", "-5", "65536", "99999"])
    def test_remote_port_out_of_range(self, port):
        # The resolver would wrap 99999 to 34463 and connect there.
        with pytest.raises(StoreSpecError, match="1..65535"):
            parse_store_spec(f"remote:127.0.0.1:{port}")
        with pytest.raises(StoreSpecError, match="1..65535"):
            open_pdp(store=f"remote:127.0.0.1:{port}")

    def test_remote_port_bounds_accepted(self):
        assert parse_store_spec("remote:h:1").port == 1
        assert parse_store_spec("remote:h:65535").port == 65535

    def test_tiered_defaults(self):
        """``tiered:sqlite`` is the ``sqlite`` spec: one kind, one tier."""
        parsed = parse_store_spec("tiered:sqlite:/var/lib/adi.db")
        assert parsed == parse_store_spec("sqlite:/var/lib/adi.db")
        assert parsed.kind == "sqlite"
        assert (parsed.hot_users, parsed.hot_shards) == (
            DEFAULT_HOT_USERS,
            DEFAULT_HOT_SHARDS,
        )

    def test_tiered_sqlite_with_options(self):
        parsed = parse_store_spec(
            "tiered:sqlite:/var/lib/adi.db?hot_users=50000&shards=8"
        )
        assert (parsed.kind, parsed.path) == ("sqlite", "/var/lib/adi.db")
        assert (parsed.hot_users, parsed.hot_shards) == (50000, 8)

    def test_tiered_bare_sqlite_warm(self):
        parsed = parse_store_spec("tiered:sqlite?hot_users=4")
        assert (parsed.kind, parsed.path, parsed.hot_users) == ("sqlite", None, 4)

    @pytest.mark.parametrize(
        "spec",
        [
            "tiered:",
            "tiered:memory",
            "tiered:tiered:memory",
            "tiered:tiered:sqlite",
            "tiered:tiered:sqlite:adi.db?hot_users=4",
            "tiered:remote:h:1?hot_users=4",
            "tiered:sqlite:",
            "tiered:sqlite?hot_users=0",
            "tiered:sqlite?hot_users=many",
            "tiered:sqlite?cache=4",
            "tiered:sqlite?hot_users",
            "tiered:memory?hot_users=0",
            "tiered:memory?hot_users=many",
            "tiered:memory?cache=4",
            "tiered:memory?hot_users",
        ],
    )
    def test_tiered_malformed(self, spec):
        with pytest.raises(StoreSpecError):
            parse_store_spec(spec)

    def test_unknown_spec(self):
        with pytest.raises(StoreSpecError, match="unknown store spec"):
            parse_store_spec("redis:host")

    def test_non_string_rejected(self):
        with pytest.raises(StoreSpecError, match="got int"):
            parse_store_spec(7001)

    def test_instance_passthrough(self):
        store = InMemoryRetainedADIStore()
        parsed = parse_store_spec(store)
        assert parsed.kind == "instance"
        assert parsed.instance is store

    def test_error_is_policy_error(self):
        """Pre-existing ``except PolicyError`` handlers keep working."""
        assert issubclass(StoreSpecError, PolicyError)


class TestBuilder:
    def test_memory_owned(self):
        store, owns = build_store(parse_store_spec("memory"))
        assert isinstance(store, InMemoryRetainedADIStore)
        assert owns

    def test_instance_not_owned(self):
        original = InMemoryRetainedADIStore()
        store, owns = build_store(parse_store_spec(original))
        assert store is original
        assert not owns

    def test_sqlite_path(self, tmp_path):
        """A sqlite spec is the default tier over its file."""
        store = open_store(f"sqlite:{tmp_path / 'adi.db'}")
        try:
            assert isinstance(store, TieredADIStore)
            assert isinstance(store.warm, SQLiteRetainedADIStore)
            stats = store.stats()
            assert stats["hot_capacity"] == DEFAULT_HOT_USERS
            assert stats["hot_shards"] == DEFAULT_HOT_SHARDS
        finally:
            store.close()
        assert store.warm._closed  # the tier owns its warm layer

    def test_bare_sqlite_needs_default(self, tmp_path):
        with pytest.raises(StoreSpecError, match="host-assigned path"):
            build_store(parse_store_spec("sqlite"))
        store, owns = build_store(
            parse_store_spec("sqlite"),
            default_sqlite_path=str(tmp_path / "node.db"),
        )
        try:
            assert owns and isinstance(store, TieredADIStore)
            assert isinstance(store.warm, SQLiteRetainedADIStore)
        finally:
            store.close()

    def test_tiered_over_sqlite(self, tmp_path):
        store = open_store(
            f"tiered:sqlite:{tmp_path / 'warm.db'}?hot_users=4&shards=2"
        )
        try:
            assert isinstance(store, TieredADIStore)
            stats = store.stats()
            assert stats["hot_capacity"] == 4
            assert stats["hot_shards"] == 2
            assert stats["warm"]["backend"] == "sqlite"
        finally:
            store.close()

    def test_benchmark_spec_builds_its_budget(self, tmp_path):
        """The spec the durable benchmark workload opens."""
        store = open_store(
            f"tiered:sqlite:{tmp_path / 'adi.db'}?hot_users=128&shards=8"
        )
        try:
            assert isinstance(store.warm, SQLiteRetainedADIStore)
            stats = store.stats()
            assert (stats["hot_capacity"], stats["hot_shards"]) == (128, 8)
        finally:
            store.close()

    def test_remote_is_not_buildable(self):
        with pytest.raises(StoreSpecError, match="open_pdp"):
            build_store(parse_store_spec("remote:host:7001"))

    def test_parsed_spec_is_frozen(self):
        parsed = parse_store_spec("memory")
        assert isinstance(parsed, ParsedStoreSpec)
        with pytest.raises(AttributeError):
            parsed.kind = "sqlite"


class TestEntryPoints:
    def test_open_pdp_tiered(self, tmp_path):
        with open_pdp(
            bank_policy_set(), store=f"tiered:sqlite:{tmp_path / 'adi.db'}?hot_users=4"
        ) as pdp:
            decision = pdp.decide(make_request("alice"))
            assert decision.granted

    def test_open_pdp_bad_spec_is_typed(self):
        with pytest.raises(StoreSpecError):
            open_pdp(bank_policy_set(), store="riak:somewhere")

    def test_server_exports_store_stats_and_gauges(self, tmp_path):
        with open_server(
            bank_policy_set(), store=f"tiered:sqlite:{tmp_path / 'adi.db'}?hot_users=4"
        ) as server:
            with server.client() as pdp:
                for index in range(6):
                    pdp.decide(make_request(f"user-{index}", index))
                body = pdp.metrics()
                assert body["store"]["backend"] == "tiered"
                assert body["store"]["resident_users"] >= 1
                names = {
                    name for name, _, _ in parse_exposition(pdp.metrics_text())
                }
            assert "repro_store_resident_users" in names
            assert "repro_store_evictions_total" in names
            assert "repro_store_hydrations_total" in names

    def test_server_store_gauges_exist_for_memory_backend(self):
        """The gauges are uniform across backends, not tiered-only."""
        with open_server(bank_policy_set(), store="memory") as server:
            with server.client() as pdp:
                pdp.decide(make_request("alice"))
                body = pdp.metrics()
                assert body["store"]["backend"] == "memory"
                names = {
                    name for name, _, _ in parse_exposition(pdp.metrics_text())
                }
            assert "repro_store_resident_users" in names
