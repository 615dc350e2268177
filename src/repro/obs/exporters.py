"""Exporters for recorded traces: JSONL files, text trees, Chrome dumps.

Three consumers, three formats:

* **JSONL trace files** (:func:`write_trace_jsonl` /
  :func:`read_trace_jsonl`) — the durable, diffable artifact.  One JSON
  record per line: a schema-versioned ``header`` first, then every span
  in depth-first preorder (so a parent always precedes its children) and
  any orphan events.  Like :class:`~repro.runtime.SessionJournal`, the
  reader tolerates a torn final line — a process that died mid-write
  loses only the record it was writing.
* **a text tree** (:func:`render_span_tree`) — the CLI's human view:
  nesting, per-span wall time, and compactly rendered attributes and
  counters.
* **Chrome ``trace_event`` dumps** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — load into ``chrome://tracing`` or
  Perfetto for a flamegraph; complete spans (``ph: "X"``) with
  microsecond timestamps, events as instants (``ph: "i"``).

:func:`aggregate_spans` folds a span forest into per-name totals
(count, inclusive and self time) — the data behind
``repro.cli profile``'s top-k table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import TraceError
from repro.obs.tracer import Span, Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "trace_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "render_span_tree",
    "chrome_trace",
    "write_chrome_trace",
    "aggregate_spans",
]

#: Version stamped into every JSONL trace header.
TRACE_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively coerce a span attribute into JSON-safe data."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    return str(value)


def _roots(trace: "Tracer | Sequence[Span]") -> list[Span]:
    if isinstance(trace, Tracer):
        return list(trace.roots)
    return list(trace)


def trace_records(trace: "Tracer | Sequence[Span]") -> Iterator[dict[str, Any]]:
    """Yield the JSONL records for a trace: header, spans, orphan events."""
    yield {
        "type": "header",
        "version": TRACE_SCHEMA_VERSION,
        "format": "repro-trace",
    }
    next_id = 0
    for root in _roots(trace):
        stack: list[tuple[Span, int | None]] = [(root, None)]
        while stack:
            span, parent = stack.pop()
            span_id = next_id
            next_id += 1
            yield {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "attributes": _jsonable(span.attributes),
                "counters": _jsonable(span.counters),
                "events": _jsonable(span.events),
            }
            # Reversed so preorder pops children in recorded order.
            for child in reversed(span.children):
                stack.append((child, span_id))
    if isinstance(trace, Tracer):
        for event in trace.orphan_events:
            yield {"type": "event", "parent": None, **_jsonable(event)}


def write_trace_jsonl(trace: "Tracer | Sequence[Span]", path: str | Path) -> int:
    """Write a trace to ``path`` in JSONL form; returns the span count."""
    spans = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace_records(trace):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            if record["type"] == "span":
                spans += 1
    return spans


def read_trace_jsonl(path: str | Path) -> list[Span]:
    """Rebuild the span forest from a JSONL trace file.

    Raises :class:`~repro.exceptions.TraceError` on a missing/invalid
    header, unsupported version, or corrupt interior record.  A torn
    final line (crash mid-write) is dropped silently, along with any
    spans whose parent record was lost with it.
    """
    # Function-level import, as in ``read_postmortem``: repro.runtime
    # reaches repro.core, whose chase module imports repro.obs.tracer.
    from repro.runtime.journal import read_jsonl_tolerant

    path = Path(path)
    records = read_jsonl_tolerant(path, label="trace", error=TraceError)
    if not records or records[0].get("type") != "header":
        raise TraceError(f"trace {path} has no header record")
    if records[0].get("format") != "repro-trace":
        raise TraceError(f"trace {path} is not a repro trace")
    if records[0].get("version") != TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"trace {path} has unsupported version {records[0].get('version')!r}"
        )

    roots: list[Span] = []
    by_id: dict[int, Span] = {}
    for record in records[1:]:
        if record.get("type") != "span":
            continue
        span = Span(record.get("name", "?"))
        span.start = float(record.get("start", 0.0))
        span.end = float(record.get("end", span.start))
        span.attributes = dict(record.get("attributes", {}))
        span.counters = dict(record.get("counters", {}))
        span.events = list(record.get("events", []))
        by_id[int(record["id"])] = span
        parent = record.get("parent")
        if parent is None:
            roots.append(span)
        elif parent in by_id:
            by_id[parent].children.append(span)
        # else: the parent was on the torn final line — drop the orphan.
    return roots


def _compact(value: Any, limit: int = 48) -> str:
    """Render an attribute value on one line, truncated for the tree view."""
    if isinstance(value, float):
        rendered = f"{value:.4g}"
    elif isinstance(value, dict):
        rendered = "{" + ", ".join(f"{k}={_compact(v)}" for k, v in value.items()) + "}"
    else:
        rendered = str(value)
    if len(rendered) > limit:
        rendered = rendered[: limit - 1] + "…"
    return rendered


def render_span_tree(trace: "Tracer | Sequence[Span]") -> str:
    """Render the span forest as an indented text tree with durations."""
    lines: list[str] = []
    for root in _roots(trace):
        for depth, span in root.walk():
            annotations = {**span.attributes, **span.counters}
            suffix = ""
            if annotations:
                rendered = " ".join(
                    f"{key}={_compact(value)}" for key, value in annotations.items()
                )
                suffix = f"  [{rendered}]"
            name = "  " * depth + span.name
            lines.append(f"{name:<32s} {span.duration * 1000:9.2f} ms{suffix}")
            for event in span.events:
                marker = "  " * (depth + 1) + "· " + str(event.get("name", "?"))
                attrs = event.get("attributes") or {}
                rendered = " ".join(f"{k}={_compact(v)}" for k, v in attrs.items())
                lines.append(f"{marker:<32s}  @{float(event.get('at', 0.0)):.6f}"
                             + (f"  [{rendered}]" if rendered else ""))
    return "\n".join(lines)


def chrome_trace(trace: "Tracer | Sequence[Span]") -> dict[str, Any]:
    """Convert a trace to the Chrome ``trace_event`` JSON format.

    Timestamps are microseconds relative to the earliest span start, so
    the dump loads with t=0 at the left edge of the timeline.
    """
    roots = _roots(trace)
    starts = [span.start for root in roots for _d, span in root.walk()]
    origin = min(starts, default=0.0)
    events: list[dict[str, Any]] = []
    for root in roots:
        for _depth, span in root.walk():
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": _jsonable({**span.attributes, **span.counters}),
                }
            )
            for event in span.events:
                events.append(
                    {
                        "name": str(event.get("name", "?")),
                        "ph": "i",
                        "s": "t",
                        "ts": (float(event.get("at", span.start)) - origin) * 1e6,
                        "pid": 1,
                        "tid": 1,
                        "args": _jsonable(event.get("attributes") or {}),
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: "Tracer | Sequence[Span]", path: str | Path) -> None:
    """Write the Chrome ``trace_event`` dump to ``path``."""
    Path(path).write_text(
        json.dumps(chrome_trace(trace), sort_keys=True), encoding="utf-8"
    )


def aggregate_spans(
    trace: "Tracer | Sequence[Span]", top: int | None = None
) -> list[dict[str, Any]]:
    """Fold the span forest into per-name totals, heaviest self-time first.

    Each entry carries ``name``, ``count``, ``total_s`` (inclusive wall
    time), and ``self_s`` (inclusive minus direct children).  ``top``
    truncates the list after sorting.
    """
    totals: dict[str, dict[str, Any]] = {}
    for root in _roots(trace):
        for _depth, span in root.walk():
            entry = totals.setdefault(
                span.name, {"name": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_duration
    ranked = sorted(totals.values(), key=lambda e: (-e["self_s"], -e["total_s"], e["name"]))
    return ranked[:top] if top is not None else ranked
