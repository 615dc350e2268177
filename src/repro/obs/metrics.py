"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the structured sibling of the free-form
``stats`` dicts the solvers have always returned: named instruments with
explicit semantics, carried by :class:`~repro.solver.results.SolveResult`
/ :class:`~repro.solver.results.CertainAnswerResult` /
:class:`~repro.sync.SyncOutcome` as an optional ``metrics`` payload.

* :class:`Counter` — a monotone accumulator (``inc``);
* :class:`Gauge` — a last-value-wins measurement (``set``);
* :class:`Histogram` — fixed upper-bound buckets plus count/sum
  (``observe``), Prometheus-style cumulative-free (each bucket counts
  only its own interval; export sums if you need cumulative);
* string facts (which solver ran, the dispatch explanation) are kept as
  ``labels`` via :meth:`MetricsRegistry.annotate`.

Everything is plain-Python and allocation-light; a registry's
:meth:`~MetricsRegistry.snapshot` is a JSON-safe dict and
:meth:`~MetricsRegistry.summary` a human-readable rendering for the CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS_MS",
]

#: Default histogram buckets for durations in milliseconds.
DEFAULT_DURATION_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Counter:
    """A monotone accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def inc(self, delta: int | float = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name} cannot decrease (delta={delta})")
        self.value += delta

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins measurement; ``value`` is None until first set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with count and sum.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket (rendered ``+Inf``).
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_DURATION_BUCKETS_MS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be non-empty and ascending")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, sum={self.sum:.3f})"


class MetricsRegistry:
    """A named collection of counters, gauges, histograms, and labels.

    Instruments are created on first access (``registry.counter("x")``)
    and shared on every later access, so instrumentation sites never need
    to coordinate registration.  Accessing a name as a different
    instrument kind raises :class:`TypeError`.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self.labels: dict[str, str] = {}

    def _get(self, name: str, kind: type, factory) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_DURATION_BUCKETS_MS
    ) -> Histogram:
        # First registration wins the bucket layout; later callers share it.
        return self._get(name, Histogram, lambda name: Histogram(name, buckets))

    def annotate(self, key: str, value: Any) -> None:
        """Record a string fact (solver chosen, dispatch explanation, ...)."""
        self.labels[key] = str(value)

    def absorb(self, stats: Mapping[str, Any], prefix: str = "") -> None:
        """Fold a solver ``stats`` dict into the registry.

        Numeric values become counter increments; booleans become gauges
        (0/1); strings become labels.  Anything else is stringified into
        a label — ``stats`` dicts are shallow by convention.
        """
        for key, value in stats.items():
            name = f"{prefix}{key}"
            if isinstance(value, bool):
                self.gauge(name).set(int(value))
            elif isinstance(value, (int, float)):
                self.counter(name).inc(value)
            else:
                self.annotate(name, value)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe dict of everything recorded so far."""
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "labels": dict(sorted(self.labels.items())),
        }

    def summary(self) -> str:
        """Human-readable one-instrument-per-line rendering."""
        lines: list[str] = []
        for key, value in sorted(self.labels.items()):
            lines.append(f"{key} = {value}")
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                lines.append(f"{name} = {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(f"{name} = {instrument.value}")
            else:
                lines.append(
                    f"{name}: count={instrument.count} "
                    f"sum={instrument.sum:.2f} mean={instrument.mean:.2f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._instruments)} instruments, "
            f"{len(self.labels)} labels)"
        )
