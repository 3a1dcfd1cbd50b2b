"""``wire-pipelined``: the round process is the client, the server its child.

The server never runs as a thread under the load generator's GIL: it is
a separate process on the other core, booted through ``open_server``
and driven over a line-oriented control channel on its stdin/stdout
(calibrate, report, ladder, quit).  Load comes from one event loop
with ``WIRE_CONCURRENCY`` closed-loop coroutines over one connection,
which keeps per-user order and therefore deterministic effects.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from contextlib import ExitStack

from repro.api import open_server
from repro.client import AsyncRemotePDP, RemotePDP
from repro.perf import PerfRecorder
from repro.storespec import open_store

from . import probes
from .calib import Block, BlockTimer, Calibrator
from .inputs import Generator, config_for, policy_set_for, request_stream
from .rounds import (
    CODE_FAILED,
    STREAM_LENGTH,
    Tally,
    code_of,
    load,
    peak_rss_mb,
    pin_to,
    policy_via_xml,
    summarise,
    work_dir,
)
from .spec import (
    WIRE_BATCH_MAX,
    WIRE_CONCURRENCY,
    WIRE_PIPELINE_WINDOW,
    WIRE_SHARDS,
)

LADDER_DECISIONS = 1_500
REPLAY_DECISIONS = 2_048
_TIMEOUT_S = 30.0


class _ServerChild:
    """The server process and its control channel."""

    def __init__(self, config: dict) -> None:
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "benchmarks.e2e.child",
                json.dumps(config | {"role": "server"}),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self.ready = self.reply()

    def send(self, command: str) -> None:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()

    def reply(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self._process.wait(timeout=30)}"
            )
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.send(command)
        return self.reply()

    def request(self) -> None:
        """BlockTimer's peer protocol: start the server's calibration."""
        self.send("sample")

    def close(self) -> None:
        try:
            if self._process.poll() is None:
                self.send("quit")
            self._process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait(timeout=30)
        finally:
            self._process.stdin.close()
            self._process.stdout.close()


async def _closed_loop(pdp, chunk: list, tally: Tally, keep: list | None) -> None:
    """WIRE_CONCURRENCY coroutines, each sending its next request on reply."""
    clock = time.perf_counter_ns
    base = len(tally.codes)
    tally.codes.extend(bytes(len(chunk)))
    cursor = iter(enumerate(chunk))

    async def worker() -> None:
        for index, request in cursor:
            t0 = clock()
            try:
                decision = await pdp.decide(request)
            except Exception as exc:  # a failed decision is data, not a crash
                tally.failed += 1
                tally.first_error = tally.first_error or repr(exc)
                tally.codes[base + index] = CODE_FAILED
                continue
            tally.samples.append(clock() - t0)
            tally.records_added += decision.records_added
            tally.codes[base + index] = code_of(decision)
            if keep is not None:
                keep.append((request, decision))

    await asyncio.gather(*(worker() for _ in range(WIRE_CONCURRENCY)))


def run_wire_round(config: dict) -> dict:
    workload, sizes, bank = load(config)
    traced = config["traced"]
    pin_to(config["cpu"])
    calibrator = Calibrator()
    generator = Generator()

    with ExitStack() as stack:
        server = _ServerChild(config | {"cpu": config["peer_cpu"]})
        stack.callback(server.close)
        ready = server.ready
        setup = BlockTimer(calibrator, peer=server)
        window = BlockTimer(calibrator, peer=server)
        tally = Tally()
        marks: list[int] = []
        kept: list | None = [] if traced else None
        stream = request_stream(workload, bank, STREAM_LENGTH)
        host, port = "127.0.0.1", ready["port"]

        async def drive() -> None:
            setup.open()
            pdp = AsyncRemotePDP(
                host,
                port,
                timeout=_TIMEOUT_S,
                protocol_version="v2",
                batch_max=WIRE_BATCH_MAX,
                pipeline_window=WIRE_PIPELINE_WINDOW,
            )
            try:
                await pdp.healthz()
                setup.close("connect")
                for chunk in generator.chunks(stream, sizes.warmup, sizes.chunk):
                    setup.open()
                    await _closed_loop(pdp, chunk, tally, None)
                    setup.close("warmup", len(chunk))
                tally.start_window()
                for chunk in generator.chunks(stream, sizes.window, sizes.chunk):
                    marks.append(len(tally.samples))
                    if kept is not None:
                        kept.clear()
                    window.open()
                    await _closed_loop(pdp, chunk, tally, kept)
                    window.close("window", len(chunk))
            finally:
                await pdp.close()

        poller = probes.QueueDepthPoller(host, port) if traced else None
        if poller:
            poller.start()
        try:
            asyncio.run(drive())
        finally:
            if poller:
                poller.stop()

        final = server.ask("final")
        result = summarise(
            config,
            tally,
            [Block(**block) for block in ready["setup"]] + setup.blocks,
            window.blocks,
            marks,
            sizes.warmup,
            final["peak_rss_mb"],
            calibrator,
        )
        result["store_sha256"] = ""  # interleaving across shards is not ordered
        counters = result["counters"]
        layers = result["layers"]
        counters["core.retained_adi.records_final"] = final["records_final"]
        layers["xmlpolicy.write_ms"] = ready["write_ms"]
        layers["xmlpolicy.parse_ms"] = ready["parse_ms"]
        layers["harness.generate_s"] = generator.seconds + ready["generate_s"]
        with RemotePDP(host, port, timeout=_TIMEOUT_S) as control:
            metrics = control.metrics()
        shards = metrics["shards"]
        batches = sum(shard["batches"] for shard in shards)
        completed = sum(shard["completed"] for shard in shards)
        rejected = sum(shard["rejected"] for shard in shards)
        client_cpu = sum(block.cpu_s for block in window.blocks)
        server_cpu = sum(block.peer_cpu_s for block in window.blocks)
        layers |= {
            "server.service.batches": batches,
            "server.service.mean_batch": completed / batches if batches else 0.0,
            "server.service.max_batch": max(shard["max_batch"] for shard in shards),
            "server.service.rejected": rejected,
            # every shed request is retried by the client after a back-off
            "client.remote.retries": rejected,
            "server.app.process_cpu_ms_per_decision": server_cpu * 1e3 / sizes.window,
            "client.remote.cpu_ms_per_decision": client_cpu * 1e3 / sizes.window,
        }
        if traced:
            traced_layers, result["checks"] = _traced_layers(
                server,
                metrics["perf"],
                kept,
                server_cpu * 1e6 / sizes.window,
                client_cpu * 1e6 / sizes.window,
            )
            layers |= traced_layers
            layers["server.service.queue_depth_max"] = poller.deepest
            for connections in (1, 2):
                probe = next(generator.chunks(stream, LADDER_DECISIONS, 10**6))
                layers |= probes.v1_sync_ladder(host, port, probe, connections)
    return result


def _traced_layers(
    server: _ServerChild, perf: dict, kept: list, server_us: float, client_us: float
) -> tuple[dict, dict]:
    """Wire layers from the server's perf snapshot, replay and ladder."""
    counters = perf["counters"]
    batch_sizes = perf.get("sizes", {}).get("wire.batch_size", {})
    wire_batches = batch_sizes.get("count", 0)
    mean_wire_batch = batch_sizes.get("mean_s", 1.0)  # StageStats' mean, any unit
    check = perf["stages"]["engine.check"]
    check_us = check["mean_s"] * 1e6
    requests = [request for request, _ in kept[-REPLAY_DECISIONS:]]
    decisions = [decision for _, decision in kept[-REPLAY_DECISIONS:]]
    replay = probes.replay_protocol(requests, decisions, max(1, round(mean_wire_batch)))
    ladder = server.ask("ladder")
    submit_us = ladder["service_us"] - ladder["engine_us"]
    server_codec_us = replay["v2_server_decode"] + replay["v2_server_encode"]
    client_codec_us = replay["v2_client_encode"] + replay["v2_client_decode"]
    total_us = server_us + client_us
    layers = {
        "core.engine.check_us": check_us,
        "core.engine.self_us": check_us,  # store calls are not seen from here
        "server.protocol.v2.request_us": replay["v2_client_encode"]
        + replay["v2_server_decode"],
        "server.protocol.v2.response_us": replay["v2_server_encode"]
        + replay["v2_client_decode"],
        "server.protocol.v2.bytes_per_decision": replay["v2_bytes_per_decision"],
        "server.protocol.v1.request_us": replay["v1_request"],
        "server.protocol.v1.response_us": replay["v1_response"],
        "server.protocol.v1.bytes_per_decision": replay["v1_bytes_per_decision"],
        "server.service.submit_us": submit_us,
        "server.app.residual_us": server_us - check_us - submit_us - server_codec_us,
        "server.app.frames_in": counters.get("wire.frames_in", 0),
        "server.app.bytes_in": counters.get("wire.bytes_in", 0),
        "server.app.bytes_out": counters.get("wire.bytes_out", 0),
        "client.remote.wire_batches": wire_batches,
        "client.remote.mean_wire_batch": mean_wire_batch,
        # Measured directly: engine timer, submit rung, codec replay.
        # The frame loop and the client's pipelining offer no seam from
        # outside; they are residuals and count as unattributed.
        "trace.unattributed_share": 1.0
        - (check_us + submit_us + server_codec_us + client_codec_us) / total_us,
    }
    checks = {
        "wire_layers_share_of_cpu": 1.0 - check_us / total_us,
        "ladder_engine_rung_us": ladder["engine_us"],
        "ladder_service_rung_us": ladder["service_us"],
    }
    return layers, checks


def run_server(config: dict) -> None:
    """Boot the server, then obey ``sample`` / ``final`` / ``ladder`` / ``quit``.

    The main thread sleeps on stdin while the server's loop thread
    works, and calibrates only on request, when nothing is in flight.
    """
    workload, sizes, bank = load(config)
    traced = config["traced"]
    pin_to(config["cpu"])
    calibrator = Calibrator()
    setup = BlockTimer(calibrator)
    generator = Generator()

    policy, write_ms, parse_ms = policy_via_xml(
        policy_set_for(workload, bank), work_dir(config), setup
    )
    setup.open()
    store = open_store("memory")
    setup.close("store_open")
    for chunk in generator.history(bank, sizes):
        setup.open()
        for record in chunk:
            store.add(record)
        setup.close("preload", len(chunk))
    setup.open()
    handle = open_server(
        policy, store, n_shards=WIRE_SHARDS, perf=PerfRecorder() if traced else None
    )
    setup.close("server_boot")

    def say(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    try:
        say(
            {
                "port": handle.port,
                "write_ms": write_ms,
                "parse_ms": parse_ms,
                "generate_s": generator.seconds,
                "setup": [
                    {
                        "label": block.label,
                        "units": block.units,
                        "wall_s": block.wall_s,
                        "cpu_s": block.cpu_s,
                        "speed": block.speed,
                    }
                    for block in setup.blocks
                ],
            }
        )
        for line in sys.stdin:
            command = line.strip()
            if command == "sample":
                before = time.process_time_ns()
                speed = calibrator.speed()
                say(
                    {
                        "cpu_before_ns": before,
                        "speed": speed,
                        "cpu_after_ns": time.process_time_ns(),
                    }
                )
            elif command == "final":
                say({"peak_rss_mb": peak_rss_mb(), "records_final": store.count()})
            elif command == "ladder":
                other = config_for(workload, sizes, config["seed"] + 1)
                requests = next(
                    generator.chunks(
                        request_stream(workload, other, STREAM_LENGTH),
                        2 * LADDER_DECISIONS,
                        10**6,
                    )
                )
                say(probes.service_ladder(handle.engine, requests))
            elif command == "quit":
                break
    finally:
        handle.close()
        store.close()
