"""Seeded inputs of each workload, from ``repro.workload.bank_scale`` only.

The program receives generated inputs and nothing else: the seed picks
the active population and drives the streams.  Requests are produced in
chunks of at most ``Sizes.chunk`` with the collector off, so the load
generator never holds more than one chunk of GC-tracked objects and
its allocations do not advance the program's collection thresholds.
"""

from __future__ import annotations

import gc
import time
from itertools import islice
from typing import Iterable, Iterator

from repro.core.policy import MSoDPolicySet
from repro.workload.bank_scale import (
    BankScaleConfig,
    bank_scale_history,
    bank_scale_mmcd_stream,
    bank_scale_policy_set,
    bank_scale_request_stream,
    four_eyes_filing_policy_set,
)

from .spec import Sizes, Workload

#: History is preloaded in chunks this large (one timed block each).
HISTORY_CHUNK = 20_000


def config_for(workload: Workload, sizes: Sizes, seed: int) -> BankScaleConfig:
    return BankScaleConfig(
        n_users=sizes.n_users,
        active_fraction=workload.active_fraction,
        seed=seed,
    )


def policy_set_for(workload: Workload, config: BankScaleConfig) -> MSoDPolicySet:
    bank = bank_scale_policy_set(config)
    if workload.name == "engine-instances":
        return MSoDPolicySet([*bank, *four_eyes_filing_policy_set(config)])
    return bank


def request_stream(workload: Workload, config: BankScaleConfig, total: int) -> Iterator:
    if workload.name == "engine-instances":
        return bank_scale_mmcd_stream(config, total, four_eyes=True)
    return bank_scale_request_stream(config, total)


class Generator:
    """Chunked, untimed input generation; ``seconds`` is harness cost."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def chunks(self, source: Iterable, total: int, size: int) -> Iterator[list]:
        iterator = iter(source)
        done = 0
        while done < total:
            count = min(size, total - done)
            started = time.perf_counter()
            gc.disable()
            try:
                chunk = list(islice(iterator, count))
            finally:
                gc.enable()
            self.seconds += time.perf_counter() - started
            if len(chunk) != count:
                raise RuntimeError("input stream ended early")
            done += count
            yield chunk

    def history(self, config: BankScaleConfig, sizes: Sizes) -> Iterator[list]:
        total = sizes.n_users * sizes.history_per_user
        return self.chunks(
            bank_scale_history(config, sizes.history_per_user), total, HISTORY_CHUNK
        )
