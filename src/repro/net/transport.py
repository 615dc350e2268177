"""A deterministic simulated transport between peers.

:class:`SimTransport` is the wire of the :mod:`repro.net` simulator: a
priority queue of in-flight :class:`Message` objects on a virtual
:class:`~repro.runtime.FaultClock` timeline.  Per directed link it
consults a :class:`~repro.runtime.FaultSchedule` — the multi-link
generalization of :func:`~repro.runtime.faulty_feed` — to decide, for
each send, whether the message is dropped, duplicated, reordered
(overtaken by later sends), or delayed.

Partitions are modeled as a send-time property of the network: while a
partition is active, a message whose sender and recipient sit in
different groups is dropped at the sender (the connection refuses), and
:meth:`SimTransport.heal` restores full connectivity.  Messages already
in flight when a partition starts still deliver — exactly the window
that makes stale-snapshot rejection necessary.

Everything is deterministic: virtual time only advances when the driver
advances it, fault decisions hash a seed per send index, and queue ties
break on a monotone enqueue counter — so the same scenario replays
byte-for-byte (the property :meth:`NetworkSimulator.run` asserts via its
event log).

Observability: sends, deliveries, drops, and partition changes emit
``net.send`` / ``net.deliver`` / ``net.drop`` / ``net.partition`` /
``net.heal`` tracer events and ``net.*`` delivery counters on an
optional :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.instance import Instance
from repro.net.scenarios import connected
from repro.net.scoring import PeerScorer
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.faults import FaultClock, FaultSchedule
from repro.sync.session import Stamp

__all__ = ["Delta", "Message", "SimTransport"]


@dataclass(frozen=True)
class Delta:
    """An incremental payload: patch the snapshot at ``base`` into the next.

    The snapshot stamped :attr:`Message.stamp` is reconstructed by the
    recipient as ``(base snapshot - withdrawn) ∪ added``.  A recipient
    whose watermark is not exactly ``base`` cannot apply it and reports a
    broken chain (see :meth:`repro.sync.SyncSession.sync_delta`); the
    sender then falls back to a full snapshot.  ``len()`` is the payload's
    wire size in facts — the number the delta protocol exists to shrink.
    """

    base: Stamp
    added: Instance
    withdrawn: Instance

    def __len__(self) -> int:
        return len(self.added) + len(self.withdrawn)

    def describe(self) -> str:
        return f"delta(base={self.base} +{len(self.added)} -{len(self.withdrawn)})"


@dataclass(frozen=True)
class Message:
    """One stamped snapshot offer in flight from ``sender`` to ``recipient``.

    The payload is either a full authoritative source snapshot (state
    transfer) or a :class:`Delta` keyed on the previous stamp.  Redelivery
    is harmless either way: the recipient's :class:`~repro.sync.Stamp`
    watermark makes snapshot ingestion idempotent, and a redelivered
    delta is either stale (below the watermark) or chain-broken (the
    watermark moved past its base) — never applied twice.

    ``context`` is the optional wire trace correlation
    (:class:`~repro.obs.TraceContext`) riding alongside the stamp; it is
    observability metadata, excluded from equality and repr so stamped
    messages compare by what they *mean* regardless of how they are
    traced.
    """

    sender: str
    recipient: str
    stamp: Stamp
    payload: Instance | Delta
    context: TraceContext | None = field(default=None, compare=False, repr=False)

    @property
    def link(self) -> tuple[str, str]:
        return (self.sender, self.recipient)

    @property
    def is_delta(self) -> bool:
        return isinstance(self.payload, Delta)

    @property
    def wire_facts(self) -> int:
        """Facts this message puts on the wire (the delta-protocol metric)."""
        return len(self.payload)

    def describe(self) -> str:
        text = f"{self.sender}->{self.recipient} stamp={self.stamp}"
        if self.is_delta:
            text += f" {self.payload.describe()}"
        return text


class SimTransport:
    """A seeded, replayable unreliable transport on a virtual clock.

    Args:
        clock: the simulation's :class:`~repro.runtime.FaultClock`; the
            transport never advances it (the driver owns time).
        latency: base link latency in virtual seconds.
        reorder_delay: extra latency applied to a reordered message, on
            top of ``latency``; defaults to ``4 * latency``, enough to be
            overtaken by the next few sends on the link.
        duplicate_lag: how far behind the original a duplicated delivery
            arrives (an at-least-once retransmit); defaults to
            ``latency / 2``.
        tracer: optional :class:`~repro.obs.Tracer` for ``net.*`` events.
        metrics: optional :class:`~repro.obs.MetricsRegistry` for
            ``net.*`` delivery counters.
        max_queue: per-recipient bound on in-flight messages.  A
            subscriber that never drains (a stalled driver, a crashed
            peer nobody garbage-collects) must not grow the publisher's
            memory without bound: when a send would leave more than
            ``max_queue`` messages queued for one recipient, the *oldest*
            in-flight message to that recipient is evicted (degrading the
            stream to its newest snapshots — every snapshot is
            authoritative, so dropping a superseded one loses nothing
            anti-entropy cannot repair) and a ``net.queue_evicted`` event
            and counter fire.  None (the default) keeps the historical
            unbounded behavior.
        scorer: optional :class:`~repro.net.PeerScorer`; when present
            every send folds its fate into the link's health score
            (drops and partition refusals down, anything else is scored
            by the recipient at delivery time).
    """

    def __init__(
        self,
        clock: FaultClock,
        latency: float = 0.05,
        reorder_delay: float | None = None,
        duplicate_lag: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        max_queue: int | None = None,
        scorer: "PeerScorer | None" = None,
    ) -> None:
        if latency <= 0:
            raise ValueError(f"latency must be positive, got {latency}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.clock = clock
        self.scorer = scorer
        self.latency = latency
        self.reorder_delay = reorder_delay if reorder_delay is not None else 4 * latency
        self.duplicate_lag = duplicate_lag if duplicate_lag is not None else latency / 2
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.max_queue = max_queue
        self._queue: list[tuple[float, int, Message]] = []
        self._enqueued = 0
        self._send_index: dict[tuple[str, str], int] = {}
        self._schedules: dict[tuple[str, str], FaultSchedule] = {}
        self._groups: tuple[frozenset[str], ...] | None = None
        self.stats: dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "partition_dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "delayed": 0,
            "facts_sent": 0,
            "queue_evicted": 0,
        }

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def set_schedule(
        self, sender: str, recipient: str, schedule: FaultSchedule
    ) -> None:
        """Attach a fault schedule to the directed link ``sender → recipient``."""
        self._schedules[(sender, recipient)] = schedule

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into isolated groups (send-time enforcement).

        Peers named in no group form an implicit extra group together.
        """
        normalized = tuple(frozenset(group) for group in groups)
        self._groups = normalized
        rendered = [",".join(sorted(group)) for group in normalized]
        self.tracer.event("net.partition", groups=rendered)
        if self.metrics is not None:
            self.metrics.counter("net.partitions").inc()

    def heal(self) -> None:
        """Restore full connectivity."""
        self._groups = None
        self.tracer.event("net.heal")
        if self.metrics is not None:
            self.metrics.counter("net.heals").inc()

    @property
    def partitioned(self) -> bool:
        return self._groups is not None

    def connected(self, a: str, b: str) -> bool:
        """Can ``a`` currently reach ``b``? (Trivially yes when healed.)"""
        return connected(self._groups, a, b)

    # ------------------------------------------------------------------
    # sending / delivering
    # ------------------------------------------------------------------

    def _count(self, counter: str, delta: int = 1) -> None:
        self.stats[counter] += delta
        if self.metrics is not None:
            self.metrics.counter(f"net.{counter}").inc(delta)

    def send(self, message: Message) -> None:
        """Send one message, applying partitions and the link's faults."""
        link = message.link
        index = self._send_index.get(link, 0)
        self._send_index[link] = index + 1
        self._count("sent")
        if not self.connected(message.sender, message.recipient):
            self._count("partition_dropped")
            if self.scorer is not None:
                self.scorer.record(link, "partition_refused")
            self.tracer.event(
                "net.drop", reason="partition", message=message.describe()
            )
            return
        # Facts-on-wire: everything that leaves the sender, including
        # in-transit losses below (a partition refuses at connect time, so
        # nothing was transmitted and nothing was counted above).
        self._count("facts_sent", message.wire_facts)
        schedule = self._schedules.get(link)
        decision = schedule.decide(index) if schedule is not None else None
        if decision is not None and decision.drop:
            self._count("dropped")
            if self.scorer is not None:
                self.scorer.record(link, "dropped")
            self.tracer.event("net.drop", reason="fault", message=message.describe())
            return
        deliver_at = self.clock() + self.latency
        if decision is not None:
            if decision.delay > 0:
                deliver_at += decision.delay
                self._count("delayed")
            if decision.reorder:
                deliver_at += self.reorder_delay
                self._count("reordered")
        self._enqueue(deliver_at, message)
        self.tracer.event("net.send", message=message.describe(), at=deliver_at)
        if decision is not None and decision.duplicate:
            self._enqueue(deliver_at + self.duplicate_lag, message)
            self._count("duplicated")
            self._count("facts_sent", message.wire_facts)

    def _enqueue(self, deliver_at: float, message: Message) -> None:
        heapq.heappush(self._queue, (deliver_at, self._enqueued, message))
        self._enqueued += 1
        if self.max_queue is None:
            return
        backlog = [
            entry for entry in self._queue
            if entry[2].recipient == message.recipient
        ]
        if len(backlog) <= self.max_queue:
            return
        # Degrade to the newest snapshots: evict the recipient's oldest
        # in-flight message (earliest delivery, then send order).  The
        # evicted snapshot is superseded by what remains queued, so the
        # recipient converges exactly as if the link had dropped it.
        victim = min(backlog)
        self._queue.remove(victim)
        heapq.heapify(self._queue)
        self._count("queue_evicted")
        self.tracer.event(
            "net.queue_evicted",
            message=victim[2].describe(),
            depth=self.max_queue,
        )

    def pending(self) -> int:
        """Messages still in flight."""
        return len(self._queue)

    def next_delivery_at(self) -> float | None:
        """Virtual time of the next delivery, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def pop_delivery(self) -> tuple[float, Message]:
        """Dequeue the next delivery (earliest time, then send order).

        The driver is responsible for advancing the clock to the returned
        time before handing the message to the recipient.
        """
        deliver_at, _order, message = heapq.heappop(self._queue)
        self._count("delivered")
        self.tracer.event("net.deliver", message=message.describe())
        return deliver_at, message
