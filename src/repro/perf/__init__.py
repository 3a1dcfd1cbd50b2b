"""Old import path of :mod:`repro.obs.recorder`.

Kept because the frozen end-to-end benchmark (``benchmarks/e2e``) does
``from repro.perf import PerfRecorder``; everything else imports
:class:`~repro.obs.recorder.Recorder` from :mod:`repro.obs`.
"""

from repro.obs.recorder import (
    LATENCY_BUCKET_BOUNDS,
    NOOP,
    SIZE_BUCKET_BOUNDS,
    NoopRecorder as NoopPerfRecorder,
    Recorder as PerfRecorder,
    StageStats,
)

__all__ = [
    "PerfRecorder",
    "NoopPerfRecorder",
    "NOOP",
    "StageStats",
    "LATENCY_BUCKET_BOUNDS",
    "SIZE_BUCKET_BOUNDS",
]
