"""Machine-speed witness and timed blocks stated at a reference speed.

On the reference box (2 shared vCPUs) the same pure-Python code runs
at speeds 0.75x to 1.25x of its median, in states that last seconds
and differ per core, at cpu/wall = 0.99 — so CPU time drifts with wall
time and no window length averages it out.  The benchmark therefore
brackets every timed block with a fixed calibration kernel, reports
its speed as the witness ``harness.calib_ops_per_s``, and states every
gated timing *as it would read on a host running the kernel at*
``REFERENCE_SPEED``.  ``AA.json`` holds, for every workload and gated
timing, the spread of the readings as measured beside the spread at
reference speed: 17-30 % against 2-8 % on the engine workloads, 12-29 %
against 5-12 % on the wire and 19-33 % against 8-20 % on
``durable-cold``, in the box's noisy hours.

The kernel has two halves because the decision path is sensitive to
both: ``_compute`` is dict/tuple/hash work in cache, ``_memory`` adds
one random read per iteration over a buffer the size of a core's L2.
Normalising same-seed ``engine-hot`` windows by their geometric mean
left 2.4 % between runs (9.3 % as measured); either half alone left
3-4 %, and a 64 MiB buffer did no better (2.0 %) while adding 64 MiB
of harness to the gated peak RSS.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from dataclasses import dataclass

#: Kernel speed (iterations/s, geometric mean of both halves) that
#: defines the unit of every gated timing: the reference box's median
#: when the benchmark was written.  A constant of the benchmark, not a
#: measurement; changing it rescales every baseline.
REFERENCE_SPEED = 3.1e6

_ITERATIONS = 4_000
_REPEATS = 3
_BUFFER_BITS = 21


def _compute(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 7))
    return acc


class Calibrator:
    """Samples the speed of the core this process runs on (~10 ms each)."""

    def __init__(self) -> None:
        # bytes, not a list: nothing here is tracked by the garbage
        # collector, so the witness adds no work to the program's GC.
        self._buffer = bytearray(b"\x01") * (1 << _BUFFER_BITS)
        self._cursor = 12345
        self.samples = array("d")

    def _memory(self, n: int) -> int:
        buffer = self._buffer
        mask = (1 << _BUFFER_BITS) - 1
        x = self._cursor
        acc = 0
        table: dict[int, int] = {}
        for i in range(n):
            x = (x * 1664525 + 1013904223) & mask
            acc += buffer[x]
            key = x & 0x3FF
            table[key] = table.get(key, 0) + acc
            acc ^= hash((key, i & 7)) & 1
        self._cursor = x
        return acc

    def speed(self) -> float:
        """Kernel iterations per second right now (median of 3 short runs)."""
        compute = []
        memory = []
        clock = time.perf_counter_ns
        for _ in range(_REPEATS):
            t0 = clock()
            _compute(_ITERATIONS)
            t1 = clock()
            self._memory(_ITERATIONS)
            t2 = clock()
            compute.append(t1 - t0)
            memory.append(t2 - t1)
        speed = _ITERATIONS * 1e9 / math.sqrt(
            statistics.median(compute) * statistics.median(memory)
        )
        self.samples.append(speed)
        return speed


@dataclass(slots=True)
class Block:
    """One timed block with the host speed measured around it.

    ``peer_*`` is the server child's share on ``wire-pipelined`` (its
    CPU time over the block and the speed of its core); zero elsewhere.
    """

    label: str
    units: int
    wall_s: float
    cpu_s: float
    speed: float  # mean of the kernel speed before and after
    peer_cpu_s: float = 0.0
    peer_speed: float = 0.0

    @property
    def cpu_norm_s(self) -> float:
        """CPU time at reference speed, each process scaled by its own core."""
        return (
            self.cpu_s * self.speed + self.peer_cpu_s * self.peer_speed
        ) / REFERENCE_SPEED

    @property
    def wall_norm_s(self) -> float:
        """Wall time at reference speed.

        Time in which a process of the benchmark computed scales with
        the speed of its core; time in which none did (fsync, rename, a
        preempted core) is carried over as measured.  Client and server
        of the wire workload take turns (their CPU times add up to
        0.93 of the wall time), so their shares are scaled one by one.
        """
        cpu_s = self.cpu_s + self.peer_cpu_s
        if cpu_s <= 0.0:
            return self.wall_s
        busy_s = min(self.wall_s, cpu_s)
        return busy_s * self.cpu_norm_s / cpu_s + self.wall_s - busy_s


class BlockTimer:
    """Times blocks of program work; harness work between them is free.

    ``open()`` … ``close()`` brackets one block.  ``close`` samples the
    host speed; the next ``open`` reuses that sample when it is fresh,
    so back-to-back blocks cost one calibration per boundary.

    ``peer`` is a second process doing part of the work (the server
    child): ``peer.request()`` starts its calibration, ``peer.reply()``
    returns ``{"cpu_before_ns", "speed", "cpu_after_ns"}``, so both
    cores are sampled at the same moment and the peer's CPU time is
    read at the block edges, outside its own calibration.
    """

    _FRESH_NS = 150_000_000

    def __init__(self, calibrator: Calibrator, peer=None) -> None:
        self._calibrator = calibrator
        self._peer = peer
        self.blocks: list[Block] = []
        self._last: tuple[float, dict | None] | None = None
        self._last_at = 0
        self._before: tuple[float, dict | None] = (0.0, None)
        self._wall0 = 0
        self._cpu0 = 0

    def _sample(self) -> tuple[float, dict | None]:
        peer = self._peer
        if peer is not None:
            peer.request()
        own = self._calibrator.speed()
        return own, (peer.reply() if peer is not None else None)

    def open(self) -> None:
        fresh = time.perf_counter_ns() - self._last_at < self._FRESH_NS
        self._before = self._last if self._last and fresh else self._sample()
        self._cpu0 = time.process_time_ns()
        self._wall0 = time.perf_counter_ns()

    def close(self, label: str, units: int = 0) -> Block:
        wall = time.perf_counter_ns() - self._wall0
        cpu = time.process_time_ns() - self._cpu0
        after = self._last = self._sample()
        self._last_at = time.perf_counter_ns()
        before = self._before
        block = Block(label, units, wall / 1e9, cpu / 1e9, (before[0] + after[0]) / 2.0)
        if after[1] is not None:
            block.peer_cpu_s = (after[1]["cpu_before_ns"] - before[1]["cpu_after_ns"]) / 1e9
            block.peer_speed = (before[1]["speed"] + after[1]["speed"]) / 2.0
        self.blocks.append(block)
        return block

    def split(self, label: str, units: int = 0) -> Block:
        """Close the running block and open the next (shared calibration)."""
        block = self.close(label, units)
        self.open()
        return block
