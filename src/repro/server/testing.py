"""Harnesses that own a private event loop on a background thread.

Synchronous callers (pytest, the closed-loop bench driver, the CI smoke
job, a cluster node inside ``LocalCluster``) need a live server without
owning an event loop.  :class:`LoopThread` is the one start → ready →
``run_forever`` → cancel-pending → close sequence; ``ServerThread``
runs an :class:`MSoDServer` on it and tears everything down — including
the graceful service drain and any ``owns=[...]`` resources (stores,
recorders) handed to it — on ``stop()`` / context-manager exit.  The
cluster coordinator runs its endpoint and background loops on the same
runner.

Most callers should not construct this directly: use
:func:`repro.api.open_server`, which builds the engine + service from a
policy/store spec and returns this class, already started.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Awaitable, Callable, Sequence

from repro.server.app import MSoDServer
from repro.server.service import AuthorizationService


class LoopThread:
    """A private event loop on a daemon thread.

    ``start()`` runs the ``boot`` coroutine function on the new loop
    and returns once it completed (re-raising its failure); the loop
    then runs until ``stop()``, which runs ``shutdown`` on it, cancels
    every task still pending — open connection handlers must not
    outlive the loop, or their teardown runs against a closed loop and
    warns — and joins the thread.
    """

    def __init__(
        self,
        name: str,
        boot: Callable[[], Awaitable[None]],
        shutdown: Callable[[], Awaitable[None]],
    ) -> None:
        self._boot = boot
        self._shutdown = shutdown
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None

    def start(self) -> "LoopThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError(f"{self._thread.name} failed to start in time")
        if self._boot_error is not None:
            self._thread.join()
            raise self._boot_error
        return self

    def run(self, coroutine: Awaitable):
        """Run ``coroutine`` on the loop from another thread; its result."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=30)

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._boot())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._boot_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown())
            pending = [
                task for task in asyncio.all_tasks(loop) if not task.done()
            ]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()


class ServerThread:
    """A live authorization server on its own event-loop thread.

    Usage::

        service = AuthorizationService(engine, n_shards=4)
        with ServerThread(service, owns=[engine.store]) as server:
            pdp = RemotePDP(server.host, server.port)
            ...

    ``owns`` lists resources whose ``close()`` the thread calls after
    the drain, so test fixtures cannot leak stores on assertion failure.
    """

    def __init__(
        self,
        service: AuthorizationService,
        host: str = "127.0.0.1",
        port: int = 0,
        owns: Sequence[object] = (),
        decide_gate=None,
    ) -> None:
        self._server = MSoDServer(
            service, host=host, port=port, decide_gate=decide_gate
        )
        self._host = host
        self._owns = tuple(owns)
        self._runner: LoopThread | None = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def service(self) -> AuthorizationService:
        return self._server.service

    @property
    def engine(self):
        return self._server.service.engine

    def client(self, **kwargs):
        """A :class:`~repro.client.RemotePDP` connected to this server."""
        from repro.client.remote import RemotePDP

        return RemotePDP(self.host, self.port, **kwargs)

    def policy_version(self):
        """The :class:`PolicyVersion` the server decides under."""
        return self.engine.policy_version()

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        """Boot the loop thread; blocks until the socket is listening."""
        if self._runner is None:
            self._runner = LoopThread(
                "msod-server", self._server.start, self._server.stop
            ).start()
        return self

    def reload_policy(
        self,
        policy,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ):
        """Thread-safe policy swap: runs the reload on the loop thread.

        ``policy`` is the source union :func:`repro.api.open_server`
        takes.  Scheduling the swap as a loop callback (like the wire
        handler) keeps it serialized with the shard workers'
        micro-batches, so no in-flight decision mixes two versions.
        Returns the :class:`~repro.core.policy_epoch.PolicySwapReport`.
        The keyword options mirror
        :meth:`~repro.server.service.AuthorizationService.reload_policy`.
        """
        from repro.api import load_policy_source

        if self._runner is None:
            raise RuntimeError("server thread is not running")
        policy_set = load_policy_source(policy)

        async def _swap():
            return self._server.service.reload_policy(
                policy_set,
                verify=verify,
                max_flips=max_flips,
                force=force,
                principal=principal,
            )

        return self._runner.run(_swap())

    def stop(self) -> None:
        """Stop listening, drain in-flight decisions, join the thread;
        then close the owned resources, also when it never started."""
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.stop()
        owned, self._owns = self._owns, ()
        for resource in owned:
            close = getattr(resource, "close", None)
            if callable(close):
                close()

    close = stop

    def kill(self) -> None:
        """Fault-injection stop: no drain, queued decisions abandoned.

        As close to ``kill -9`` as an in-process server gets: the
        listening socket closes, shard workers are cancelled at their
        next await point, and requests still queued never get answers
        (their clients see the connection drop).  Owned resources are
        still closed afterwards so test fixtures do not leak file
        handles — by then the "crashed" node has already stopped
        answering, which is what the failover harness observes.
        """
        if self._runner is not None:
            try:
                self._runner.run(self._server.abort())
            except Exception:  # pragma: no cover - abort is best-effort
                pass
        self.stop()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
