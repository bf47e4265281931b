"""Unified observability: per-I/O tracing, sim-clock metrics, reports.

The paper's evaluation (Section 6) is only defensible if every number
can be decomposed: which stage spent the time, what the cache was doing
when the tail spiked, which injected fault caused which latency cliff.
``repro.obs`` is that single lens:

* :mod:`repro.obs.trace` — spans per client I/O with child spans per
  pipeline stage, timestamped on the **simulated** clock, so the same
  seed replays to a byte-identical trace;
* :mod:`repro.obs.metrics` — one registry of counters, gauges,
  log-bucket latency histograms, and time series (the one source of
  ``io.<op>.latency`` truth), per :class:`Observability` instance;
* :mod:`repro.obs.export` — deterministic JSONL snapshots of traces and
  metrics;
* :mod:`repro.obs.report` — ``python -m repro.obs.report`` renders
  per-stage latency tables, gauge series, and the fault-correlation
  view that joins :class:`~repro.faults.injector.FaultInjector` events
  onto latency spikes.

obs is the sim-time instrument; host time per layer comes from
perfbench's tracer, which wraps live instances from outside the
package, so nothing under ``repro`` reads the host clock.

Tracing is off by default and costs a single flag check per
instrumented site (no allocation); enable it with
:meth:`Observability.enable_tracing`.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from repro.obs.trace import NULL_OBS, Observability, Span, TraceBuffer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "Series",
    "Span",
    "TraceBuffer",
]
