"""The unified retained-ADI store spec: one grammar, one builder.

Before this module, every entry point branched on the store string
itself — ``repro.api`` with one private parser, the CLI with ``--adi``
path arguments, the cluster with a two-value ``choices`` tuple, and
each benchmark with its own ``if``-ladder.  Adding a backend meant
finding all of them.  Now there is a single grammar, and this is the
one place it is written::

    memory                              in-process, volatile
    sqlite:<path>                       durable single file, served by a
                                        tier of hot in-memory aggregates
                                        with the default budget
                                        (hot_users=10000, shards=8)
    sqlite                              the same, path chosen by the host
                                        (per-node files under a cluster's
                                        data_dir; invalid where no default
                                        path exists)
    tiered:sqlite[:<path>]?hot_users=N[&shards=M]
                                        the same tier with its hot budget
                                        set, e.g.
                                        tiered:sqlite:adi.db?hot_users=50000
    remote:<host>:<port>                connect to a served PDP (port
                                        1-65535)

parsed by :func:`parse_store_spec` into a :class:`ParsedStoreSpec` and
materialised by :func:`build_store`.  Malformed specs raise
:class:`~repro.errors.StoreSpecError` (a :class:`PolicyError`
subclass, so pre-existing ``except PolicyError`` handlers keep
working).  ``repro.api`` re-exports both functions; import from either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.retained_adi import RetainedADIStore
from repro.core.store_memory import InMemoryRetainedADIStore
from repro.core.store_sqlite import SQLiteRetainedADIStore
from repro.core.tiered import TieredADIStore
from repro.errors import StoreSpecError

__all__ = [
    "DEFAULT_HOT_USERS",
    "DEFAULT_HOT_SHARDS",
    "ParsedStoreSpec",
    "parse_store_spec",
    "build_store",
    "open_store",
]

DEFAULT_HOT_USERS = 10_000
DEFAULT_HOT_SHARDS = 8

_TIERED = "'tiered:sqlite[:<path>]?hot_users=N[&shards=M]'"
_GRAMMAR = f"'memory', 'sqlite:<path>', 'sqlite', {_TIERED} or 'remote:<host>:<port>'"


@dataclass(frozen=True, slots=True)
class ParsedStoreSpec:
    """A normalised store spec, ready for :func:`build_store`.

    ``kind`` is one of ``memory`` / ``sqlite`` / ``remote`` /
    ``instance``.  A ``sqlite`` spec, with or without the ``tiered:``
    prefix, is one tier over its file, whose hot budget is
    ``hot_users`` and ``hot_shards``.  With ``path=None`` (the bare
    ``sqlite`` form) it defers the path to the builder's
    ``default_sqlite_path`` — the cluster uses this for its per-node
    files.  ``instance`` wraps an already-constructed store whose
    lifetime stays with the caller.
    """

    kind: str
    path: str | None = None
    host: str | None = None
    port: int | None = None
    hot_users: int = DEFAULT_HOT_USERS
    hot_shards: int = DEFAULT_HOT_SHARDS
    instance: RetainedADIStore | None = None

    @property
    def is_remote(self) -> bool:
        return self.kind == "remote"


def _parse_tiered(rest: str, spec: str) -> ParsedStoreSpec:
    sqlite_text, sep, query = rest.rpartition("?")
    if not sep:
        sqlite_text, query = rest, ""
    if not sqlite_text.startswith("sqlite"):
        raise StoreSpecError(f"tiered store spec must be {_TIERED}, got {spec!r}")
    budget = {"hot_users": DEFAULT_HOT_USERS, "shards": DEFAULT_HOT_SHARDS}
    for pair in query.split("&") if query else ():
        key, _, value = pair.partition("=")
        if key not in budget or not value.isdecimal() or int(value) < 1:
            raise StoreSpecError(
                f"tiered store option {pair!r} is not hot_users=N or shards=M "
                f"with N, M >= 1, in {spec!r}"
            )
        budget[key] = int(value)
    return replace(
        parse_store_spec(sqlite_text),
        hot_users=budget["hot_users"],
        hot_shards=budget["shards"],
    )


def parse_store_spec(store: "str | RetainedADIStore") -> ParsedStoreSpec:
    """Parse any accepted store spec into a :class:`ParsedStoreSpec`.

    Accepts the grammar in the module docstring, or an
    already-constructed :class:`RetainedADIStore` (wrapped as kind
    ``instance``).  Raises :class:`StoreSpecError` on anything else.
    """
    if isinstance(store, RetainedADIStore):
        return ParsedStoreSpec(kind="instance", instance=store)
    if not isinstance(store, str):
        raise StoreSpecError(
            f"store must be {_GRAMMAR} or a RetainedADIStore, "
            f"got {type(store).__name__}"
        )
    if store == "memory":
        return ParsedStoreSpec(kind="memory")
    if store == "sqlite":
        return ParsedStoreSpec(kind="sqlite", path=None)
    if store.startswith("sqlite:"):
        path = store[len("sqlite:"):]
        if not path:
            raise StoreSpecError(
                "sqlite store spec needs a path: 'sqlite:<path>'"
            )
        return ParsedStoreSpec(kind="sqlite", path=path)
    if store.startswith("remote:"):
        rest = store[len("remote:"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise StoreSpecError(
                f"remote store spec must be 'remote:<host>:<port>', got {store!r}"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise StoreSpecError(
                f"remote store spec has a non-numeric port: {store!r}"
            ) from None
        if not 1 <= port <= 65535:
            raise StoreSpecError(
                f"remote store spec port must be in 1..65535: {store!r}"
            )
        return ParsedStoreSpec(kind="remote", host=host, port=port)
    if store.startswith("tiered:"):
        return _parse_tiered(store[len("tiered:"):], store)
    raise StoreSpecError(f"unknown store spec {store!r} (expected {_GRAMMAR})")


def build_store(
    parsed: ParsedStoreSpec,
    *,
    default_sqlite_path: str | None = None,
) -> tuple[RetainedADIStore, bool]:
    """Materialise a parsed spec, returning ``(store, owns)``.

    ``owns`` is True when the call constructed the store (the caller is
    responsible for closing it) and False for ``instance`` specs.
    ``default_sqlite_path`` resolves the bare ``sqlite`` form; without
    one, bare ``sqlite`` is an error.  ``remote`` specs describe a
    connection, not an in-process store, and are rejected here — check
    :attr:`ParsedStoreSpec.is_remote` first.
    """
    if parsed.kind == "instance":
        assert parsed.instance is not None
        return parsed.instance, False
    if parsed.kind == "memory":
        return InMemoryRetainedADIStore(), True
    if parsed.kind == "sqlite":
        # A sqlite spec is a tier over its file.
        path = parsed.path if parsed.path is not None else default_sqlite_path
        if path is None:
            raise StoreSpecError(
                "bare 'sqlite' needs a host-assigned path (only valid where "
                "a default exists, e.g. cluster per-node files); use "
                "'sqlite:<path>' here"
            )
        return (
            TieredADIStore(
                SQLiteRetainedADIStore(path),
                hot_users=parsed.hot_users,
                shards=parsed.hot_shards,
                owns_warm=True,
            ),
            True,
        )
    if parsed.kind == "remote":
        raise StoreSpecError(
            "remote store specs are connections, not in-process stores; "
            "open them with open_pdp"
        )
    raise StoreSpecError(f"unknown parsed store kind {parsed.kind!r}")


def open_store(
    spec: "str | RetainedADIStore",
    *,
    default_sqlite_path: str | None = None,
) -> RetainedADIStore:
    """Parse and build in one call, returning just the store.

    The convenience form for scripts and benchmarks that don't need
    the ``owns`` flag; the caller closes the store.
    """
    return build_store(
        parse_store_spec(spec), default_sqlite_path=default_sqlite_path
    )[0]
