"""repro.obs — zero-dependency runtime observability.

Four pieces, one event model, one switch:

- :class:`Tracer` / :class:`Span` (``repro.obs.tracer``) — nested,
  timed regions with attached counters and attributes; the one timing
  substrate (profiler spans included).
- :class:`MetricsRegistry` (``repro.obs.metrics``) — process-wide
  counters / gauges / histograms that the engine executor, spatial
  join, DFtoTorch converter, and Trainer all record into.
- :class:`Profiler` (``repro.obs.profiler``) — torch.profiler-style
  module/op attribution of the training stack: module, kernel and data
  spans carrying wall time, analytic FLOPs, parameter/activation
  bytes, with a wait/warmup/active schedule
  (``Trainer.fit(profiler=...)``).
- :mod:`repro.obs.export` — snapshot everything as a dict / JSON
  (the per-operator breakdown embedded in ``BENCH_engine.json``) and
  :func:`~repro.obs.export.to_chrome_trace` for chrome://tracing.

Instrumentation is **on by default but cheap**: recording happens per
partition / batch / epoch (never per row) and every record call checks
one module flag first.  ``set_enabled(False)`` (or the ``disabled()``
context manager) turns the whole layer into no-ops, a recording
profiler included.  Instrumentation only *reads* — sizes, counts,
clocks — so observed runs return bit-identical results to unobserved
runs (pinned by ``tests/property/test_property_obs.py``).

>>> from repro import obs
>>> with obs.tracer.span("load") as span:
...     span.add("rows", 128)
>>> obs.registry.counter("my.counter").inc()
>>> obs.export.snapshot()["metrics"]["counters"]["my.counter"]
1
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.obs import export, profiler
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedHistogram,
)
from repro.obs.plan_stats import NodeStats, PlanStats
from repro.obs.profiler import Profiler, ProfilerAction, schedule
from repro.obs.tracer import NULL_SPAN, Span, Tracer

_ENABLED = True

#: Process-wide defaults used by all built-in instrumentation.
registry = MetricsRegistry()
tracer = Tracer()


def enabled() -> bool:
    """Is the observability layer recording?"""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Flip the single switch guarding all built-in instrumentation
    (registry recording, engine plan stats, tracer and profiler spans)."""
    global _ENABLED
    _ENABLED = bool(flag)
    tracer.enabled = _ENABLED


@contextmanager
def disabled():
    """Temporarily turn all instrumentation off."""
    previous = _ENABLED
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def reset() -> None:
    """Zero the default registry and drop retained traces."""
    registry.reset()
    tracer.reset()


_runtime = None  # process-wide TelemetryRuntime, if started


def start_runtime(directory: str | None = None, interval_s: float | None = None, **kw):
    """Start (or return) the process-wide
    :class:`~repro.obs.runtime.TelemetryRuntime`.

    ``directory`` defaults to ``$REPRO_OBS_EXPORT_DIR`` or a fresh
    ``repro-obs-*`` temp directory; ``interval_s`` defaults to
    ``$REPRO_OBS_FLUSH_S`` or 1.0.  Idempotent: a second call returns
    the already-running runtime.
    """
    global _runtime
    if _runtime is not None:
        return _runtime
    from repro.obs.runtime import TelemetryRuntime

    if directory is None:
        directory = os.environ.get("REPRO_OBS_EXPORT_DIR")
    if directory is None:
        import tempfile

        directory = tempfile.mkdtemp(prefix="repro-obs-")
    if interval_s is None:
        interval_s = float(os.environ.get("REPRO_OBS_FLUSH_S", "1.0"))
    _runtime = TelemetryRuntime(directory, interval_s=interval_s, **kw)
    _runtime.start()
    return _runtime


def get_runtime():
    """The process-wide TelemetryRuntime, or ``None`` if not started.
    (Named ``get_runtime`` because ``obs.runtime`` is the submodule.)"""
    return _runtime


def stop_runtime() -> None:
    """Stop and forget the process-wide runtime (final flush included)."""
    global _runtime
    if _runtime is not None:
        _runtime.stop()
        _runtime = None


# REPRO_OBS_EXPORT=1 starts the background exporter for the whole
# process — the check.sh obs-export lane runs the tier-1 suite this
# way so every test executes with the flusher live.
if os.environ.get("REPRO_OBS_EXPORT", "") not in ("", "0"):
    start_runtime()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WindowedHistogram",
    "start_runtime",
    "stop_runtime",
    "get_runtime",
    "NodeStats",
    "PlanStats",
    "Profiler",
    "ProfilerAction",
    "schedule",
    "profiler",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "registry",
    "tracer",
    "enabled",
    "set_enabled",
    "disabled",
    "reset",
    "export",
]
