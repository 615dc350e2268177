"""Observability: hierarchical tracing, metrics, and trace exporters.

``repro.obs`` is the measurement substrate for the solver stack.  It is
zero-dependency and pay-nothing by default: every instrumented entry
point (``chase``, ``solve``, ``certain_answers``, ``SyncSession.sync``)
accepts ``tracer=None`` and substitutes :data:`NULL_TRACER`, whose spans
are shared no-op objects.

* :class:`Tracer` / :class:`Span` — hierarchical wall-time spans with
  attributes, counters, and point-in-time events
  (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — structured instruments carried by result objects
  as an optional ``metrics`` payload (:mod:`repro.obs.metrics`);
* exporters — schema-versioned JSONL trace files (crash-tolerant like
  the sync journal), a human-readable span tree, and Chrome
  ``trace_event`` dumps (:mod:`repro.obs.exporters`).

PR 8 grew it into a *distributed* observability plane:

* :class:`TraceContext` — a compact wire-propagated correlation context
  (deterministic trace id per publish) carried on ``netd`` frames and
  simulator messages (:mod:`repro.obs.context`);
* :func:`stitch` — merge per-peer JSONL trace files into one
  causally-ordered :class:`StitchedTimeline` with a one-lane-per-peer
  Chrome export (:mod:`repro.obs.stitch`);
* :class:`FlightRecorder` / :func:`read_postmortem` — a bounded ring of
  recent events flushed to a torn-tail-tolerant post-mortem file on
  crash/abort/stop (:mod:`repro.obs.recorder`);
* :data:`METRIC_NAME_TABLE` — the unified ``net.*`` / ``netd.*`` /
  ``chaos.*`` metric vocabulary (:mod:`repro.obs.names`).

CLI integration: ``--trace PATH`` / ``--chrome PATH`` / ``--metrics`` on
``solve`` / ``certain`` / ``sync`` / ``simulate`` / ``profile``,
``repro.cli profile`` for running a :mod:`repro.workloads` profile
workload under the tracer, and ``repro.cli obs`` (``stitch`` /
``postmortem`` / ``top``) for the distributed artifacts.
"""

from repro.obs.context import TraceContext
from repro.obs.exporters import (
    TRACE_SCHEMA_VERSION,
    aggregate_spans,
    chrome_trace,
    read_trace_jsonl,
    render_span_tree,
    trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_DURATION_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.names import (
    METRIC_NAME_TABLE,
    metric_documented,
    undocumented,
)
from repro.obs.recorder import (
    POSTMORTEM_SCHEMA_VERSION,
    FlightRecorder,
    Postmortem,
    read_postmortem,
)
from repro.obs.stitch import StitchedEvent, StitchedSpan, StitchedTimeline, stitch
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_DURATION_BUCKETS_MS",
    "METRIC_NAME_TABLE",
    "metric_documented",
    "undocumented",
    "TRACE_SCHEMA_VERSION",
    "trace_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "render_span_tree",
    "chrome_trace",
    "write_chrome_trace",
    "aggregate_spans",
    "stitch",
    "StitchedTimeline",
    "StitchedSpan",
    "StitchedEvent",
    "FlightRecorder",
    "Postmortem",
    "read_postmortem",
    "POSTMORTEM_SCHEMA_VERSION",
]
