"""Prometheus text-format exposition for the decision pipeline.

The :class:`MetricsRegistry` turns the in-process measurement substrate
— :class:`~repro.obs.recorder.Recorder` counters and per-stage latency
histograms, plus any caller-registered gauge/counter collectors — into
the Prometheus text exposition format (version 0.0.4), ready to be
served by the server's ``metrics`` verb or printed by
``python -m repro metrics``.

Mapping rules:

* a perf counter ``engine.requests`` becomes
  ``repro_engine_requests_total`` (a ``counter``);
* every perf stage becomes one series of the single histogram family
  ``repro_stage_duration_seconds`` with a ``stage`` label, cumulative
  ``_bucket{le=...}`` counts derived from
  :data:`~repro.obs.recorder.LATENCY_BUCKET_BOUNDS`, plus ``_sum``/``_count``;
* every perf *size* histogram (``perf.observe_size``, e.g. the wire
  batch-size distribution ``wire.batch_size``) becomes its own
  dimensionless histogram family (``repro_wire_batch_size``) with
  buckets from the stats' own bounds;
* registered collectors (e.g. the server's per-shard queue gauges)
  render under their declared type with their own labels.

Several recorders may be registered (an engine's and a service's);
their counters are summed and their stage stats merged per name, so
the exposition never emits duplicate series.

:func:`parse_exposition` is the matching validator: the test suite and
the CI scrape job run every rendered payload through it, so a format
regression fails fast rather than breaking a real scraper.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping

from repro.obs.recorder import LATENCY_BUCKET_BOUNDS, Recorder

__all__ = [
    "MetricsRegistry",
    "parse_exposition",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_VALUE = re.compile(r"^(?:[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?Inf|NaN)$")


def _sanitize(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Collector:
    __slots__ = ("name", "metric_type", "help", "collect")

    def __init__(self, name, metric_type, help_text, collect) -> None:
        self.name = name
        self.metric_type = metric_type
        self.help = help_text
        self.collect = collect


class MetricsRegistry:
    """Renders perf recorders and custom collectors as Prometheus text.

    Parameters
    ----------
    namespace:
        Prefix for every emitted metric name (default ``repro``).
    """

    def __init__(self, namespace: str = "repro") -> None:
        if not _METRIC_NAME.match(namespace):
            raise ValueError(f"invalid metrics namespace {namespace!r}")
        self._namespace = namespace
        self._recorders: list[Recorder] = []
        self._collectors: list[_Collector] = []

    # -- registration --------------------------------------------------
    def register_perf(self, perf: Recorder) -> None:
        """Expose a recorder's counters and stage histograms.

        Registering the same recorder twice is a no-op; distinct
        recorders with overlapping names are merged (counters summed,
        stage stats combined).
        """
        if any(existing is perf for existing in self._recorders):
            return
        self._recorders.append(perf)

    def register(
        self,
        name: str,
        metric_type: str,
        help_text: str,
        collect: Callable[[], "Iterable[tuple[Mapping[str, str], float]] | float"],
    ) -> None:
        """Register a custom metric family.

        ``collect`` is called at render time and returns either a bare
        number (an unlabelled sample) or an iterable of
        ``(labels, value)`` pairs.
        """
        if metric_type not in ("gauge", "counter"):
            raise ValueError(f"unsupported metric type {metric_type!r}")
        full_name = f"{self._namespace}_{_sanitize(name)}"
        if not _METRIC_NAME.match(full_name):
            raise ValueError(f"invalid metric name {full_name!r}")
        if any(c.name == full_name for c in self._collectors):
            raise ValueError(f"metric {full_name!r} already registered")
        self._collectors.append(
            _Collector(full_name, metric_type, help_text, collect)
        )

    def register_gauge(self, name: str, help_text: str, collect) -> None:
        """Shorthand for :meth:`register` with type ``gauge``."""
        self.register(name, "gauge", help_text, collect)

    def register_counter(self, name: str, help_text: str, collect) -> None:
        """Shorthand for :meth:`register` with type ``counter``."""
        self.register(name, "counter", help_text, collect)

    # -- rendering -----------------------------------------------------
    def merged(self) -> Recorder:
        """One recorder holding the sum of every registered one."""
        merged = Recorder()
        for perf in self._recorders:
            merged.merge(perf)
        return merged

    def render(self) -> str:
        """The full exposition payload (ends with a newline)."""
        ns = self._namespace
        lines: list[str] = []
        merged = self.merged()
        counters, stages, sizes = (
            merged.counters(), merged.stages(), merged.sizes()
        )

        for name in sorted(counters):
            metric = f"{ns}_{_sanitize(name)}_total"
            lines.append(f"# HELP {metric} Pipeline counter {name!r}.")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(counters[name])}")

        if stages:
            family = f"{ns}_stage_duration_seconds"
            lines.append(
                f"# HELP {family} Wall-clock duration of pipeline stages."
            )
            lines.append(f"# TYPE {family} histogram")
            for name in sorted(stages):
                stats = stages[name]
                label = f'stage="{_escape_label(name)}"'
                cumulative = 0
                for index, bound in enumerate(LATENCY_BUCKET_BOUNDS):
                    cumulative += stats.buckets[index]
                    lines.append(
                        f'{family}_bucket{{{label},le="{format(bound, "g")}"}} '
                        f"{cumulative}"
                    )
                lines.append(
                    f'{family}_bucket{{{label},le="+Inf"}} {stats.count}'
                )
                lines.append(f"{family}_sum{{{label}}} {repr(stats.total)}")
                lines.append(f"{family}_count{{{label}}} {stats.count}")

        for name in sorted(sizes):
            stats = sizes[name]
            family = f"{ns}_{_sanitize(name)}"
            lines.append(
                f"# HELP {family} Size distribution {name!r} (dimensionless)."
            )
            lines.append(f"# TYPE {family} histogram")
            cumulative = 0
            for index, bound in enumerate(stats.bounds):
                cumulative += stats.buckets[index]
                lines.append(
                    f'{family}_bucket{{le="{format(bound, "g")}"}} {cumulative}'
                )
            lines.append(f'{family}_bucket{{le="+Inf"}} {stats.count}')
            lines.append(f"{family}_sum {repr(stats.total)}")
            lines.append(f"{family}_count {stats.count}")

        for collector in self._collectors:
            lines.append(f"# HELP {collector.name} {collector.help}")
            lines.append(f"# TYPE {collector.name} {collector.metric_type}")
            collected = collector.collect()
            if isinstance(collected, (int, float)):
                lines.append(f"{collector.name} {_format_value(collected)}")
            else:
                for labels, value in collected:
                    lines.append(
                        f"{collector.name}{_format_labels(labels)} "
                        f"{_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Validate Prometheus text exposition; return its samples.

    Checks every non-comment line against the ``name{labels} value``
    sample grammar and every value against the float grammar.  Raises
    ``ValueError`` naming the first offending line.  The return value
    is a list of ``(metric_name, labels, value)`` triples.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 2)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        raw_value = match.group("value")
        if not _VALUE.match(raw_value):
            raise ValueError(f"line {lineno}: malformed value: {raw_value!r}")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _split_label_pairs(raw_labels, lineno):
                pair_match = _LABEL_PAIR.match(pair)
                if pair_match is None:
                    raise ValueError(
                        f"line {lineno}: malformed label pair: {pair!r}"
                    )
                labels[pair_match.group("key")] = pair_match.group("value")
        samples.append((match.group("name"), labels, float(raw_value)))
    return samples


def _split_label_pairs(raw: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted label values."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in raw:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    if current:
        pairs.append("".join(current))
    return [pair for pair in pairs if pair]
