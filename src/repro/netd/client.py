"""The publisher side of :mod:`repro.netd`: one client per daemon link.

A :class:`PublisherClient` streams stamped snapshots to one subscriber
peer hosted by a :class:`~repro.netd.SyncDaemon`, surviving every
failure the chaos proxy (or a real network) can produce:

* **reconnect with jittered backoff** — connection attempts reuse
  :meth:`~repro.runtime.RetryPolicy.pause_async`, the awaitable twin of
  the simulator's deterministic :meth:`~repro.runtime.RetryPolicy.pause`
  schedule, so a seeded run reconnects on a replayable timetable;
* **bounded pending queue, backpressure then degrade** — :meth:`offer`
  enqueues ``(stamp, snapshot)`` pairs into a deque that never exceeds
  ``max_queue``: a full queue first *waits* for the sender (propagating
  backpressure to the producer), then evicts the oldest pending pair —
  every snapshot is authoritative, so the evicted state is strictly
  superseded by what remains (degrade-to-newest-snapshot, counted as
  ``netd.queue_evicted`` and bounded by the ``netd.queue_depth`` gauge);
* **delta transfer with snapshot fallback** — with ``deltas=True`` the
  sender ships ``(added, withdrawn)`` against the last *acknowledged*
  snapshot whenever that beats the full payload; a ``chain-broken`` ACK
  (the daemon's watermark moved without us) falls back to the full
  snapshot for that stamp, exactly like the simulator's publisher;
* **ACK discipline** — each in-flight message awaits its stamped ACK
  under a timeout; late or duplicate ACKs from earlier (chaos-duplicated)
  deliveries are discarded by stamp mismatch, and a timeout simply moves
  on — anti-entropy, not retransmission, repairs a lost snapshot.

The client is the network twin of the simulator's publish path in
:meth:`repro.net.NetworkSimulator.run`; the chaos harness runs both and
asserts they converge to the same states.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any

from repro.core.instance import Instance
from repro.exceptions import ProtocolError, SimulationError
from repro.net.transport import Delta, Message
from repro.netd.daemon import open_stream
from repro.netd.frames import (
    DEFAULT_MAX_FRAME,
    Frame,
    FrameDecoder,
    FrameKind,
    PROTOCOL_VERSION,
    encode_frame,
    encode_message,
)
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.retry import RetryPolicy
from repro.sync.session import Stamp

__all__ = ["PublisherClient", "fetch_stats"]

#: ACK outcomes that advance the delta base: the daemon either applied
#: the snapshot or already held it (stale) — either way its state now
#: reflects this stamp, so the next delta may patch from here.
_BASE_ADVANCING = {"applied", "stale"}


class PublisherClient:
    """Publish stamped snapshots to one daemon-hosted peer.

    Args:
        address: daemon address — ``(host, port)`` or a unix-socket path.
        peer: the hosted subscriber peer this link feeds.
        sender: the publisher's own name (stamped into every message).
        deltas: ship incremental payloads when they beat the snapshot.
        retry: reconnect backoff; defaults to a seeded
            :class:`~repro.runtime.RetryPolicy` (deterministic jitter).
        max_queue: pending-publish bound (backpressure, then degrade).
        backpressure_wait: seconds a full :meth:`offer` waits for the
            sender before degrading.
        ack_timeout: seconds to wait for a message's ACK before moving on.
        max_frame: frame-size ceiling, mirrored from the daemon.
        tracer / metrics: optional :mod:`repro.obs` instrumentation.
    """

    def __init__(
        self,
        address: Any,
        peer: str,
        sender: str = "origin",
        deltas: bool = False,
        retry: RetryPolicy | None = None,
        max_queue: int = 32,
        backpressure_wait: float = 0.05,
        ack_timeout: float = 2.0,
        heartbeat_interval: float = 1.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.address = address
        self.peer = peer
        self.sender = sender
        self.deltas = deltas
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=4)
        self.max_queue = max_queue
        self.backpressure_wait = backpressure_wait
        self.ack_timeout = ack_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_frame = max_frame
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._pending: deque[tuple[Stamp, Instance]] = deque()
        self._pending_ready = asyncio.Event()
        self._pending_space = asyncio.Event()
        self._pending_space.set()
        # Set whenever an outcome is recorded or the sender stops; the
        # waiters in publish() and drain() re-check their condition on it.
        self._settled = asyncio.Event()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._receiver: asyncio.Task | None = None
        self._sender_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._acks: asyncio.Queue = asyncio.Queue()
        self._decoder = FrameDecoder(max_frame=max_frame)
        # The last (stamp, snapshot) the daemon acknowledged holding —
        # the base the next delta patches from.  Evictions and lost
        # messages are harmless precisely because this only advances on
        # an ACK: the daemon's watermark and our base move together.
        self._acked: tuple[Stamp, Instance] | None = None
        self.outcomes: dict[Stamp, str] = {}
        self.closed = False
        self.stats: dict[str, int] = {
            "published": 0, "sent_snapshots": 0, "sent_deltas": 0,
            "delta_fallbacks": 0, "ack_timeouts": 0, "ack_unmatched": 0,
            "reconnects": 0, "queue_evicted": 0, "unreachable": 0,
            "facts_sent": 0,
        }
        self.queue_peak = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Connect (with backoff) and start the sender machinery."""
        await self._connect()
        self._sender_task = asyncio.create_task(
            self._send_loop(), name=f"netd-client-{self.peer}"
        )
        self._sender_task.add_done_callback(lambda _: self._settled.set())
        self._heartbeat_task = asyncio.create_task(
            self._heartbeat_loop(), name=f"netd-hb-{self.peer}"
        )

    async def close(self, bye: bool = True) -> None:
        """Stop publishing and close the connection (``BYE`` if orderly)."""
        self.closed = True
        self._pending_ready.set()
        self._settled.set()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        if self._sender_task is not None:
            self._sender_task.cancel()
            try:
                await self._sender_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if bye and self._writer is not None:
            try:
                self._writer.write(encode_frame(FrameKind.BYE, {}))
                await self._writer.drain()
            except (ConnectionError, OSError):
                pass
        self._teardown()

    def _teardown(self) -> None:
        if self._receiver is not None:
            self._receiver.cancel()
            self._receiver = None
        if self._writer is not None:
            try:
                self._writer.close()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._reader = None

    @property
    def connected(self) -> bool:
        return self._writer is not None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    async def _connect(self) -> None:
        """Dial, handshake, and adopt the daemon's watermark.

        The whole exchange — dial, ``HELLO``, ``WELCOME`` — sits inside
        the retry loop: a partitioned proxy may *accept* the TCP
        connection and then kill it, so only a completed handshake
        counts as connected.  Raises
        :class:`~repro.exceptions.SimulationError` after the retry
        budget is spent (the caller decides whether that peer is
        unreachable-for-now or fatal).
        """
        attempt = 0
        while True:
            try:
                welcome = await self._handshake()
                break
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                ProtocolError,
            ) as error:
                self._teardown()
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise SimulationError(
                        f"cannot reach daemon at {self.address!r} after "
                        f"{attempt} attempts: {error}"
                    )
                self.tracer.event(
                    "netd.reconnect_wait", peer=self.peer, attempt=attempt
                )
                await self.retry.pause_async(attempt)
        watermark = welcome.payload.get("watermark")
        if watermark is not None and self._acked is not None:
            if list(watermark) != [self._acked[0].epoch, self._acked[0].seq]:
                # The daemon is somewhere our delta base is not: a delta
                # would be refused, so re-baseline to full snapshots.
                self._acked = None
        elif watermark is None:
            self._acked = None
        self.tracer.event(
            "netd.connected", peer=self.peer, watermark=watermark
        )

    async def _handshake(self) -> Frame:
        """One dial + HELLO/WELCOME exchange; raises on any failure."""
        reader, writer = await open_stream(self.address)
        self._reader, self._writer = reader, writer
        self._decoder = FrameDecoder(max_frame=self.max_frame)
        self._drain_acks()
        self._receiver = asyncio.create_task(
            self._receive_loop(reader), name=f"netd-recv-{self.peer}"
        )
        writer.write(
            encode_frame(
                FrameKind.HELLO,
                {
                    "peer": self.peer,
                    "sender": self.sender,
                    "protocol": PROTOCOL_VERSION,
                    "deltas": self.deltas,
                },
            )
        )
        await writer.drain()
        return await self._await_frame(FrameKind.WELCOME)

    async def _reconnect(self) -> None:
        self._teardown()
        self.stats["reconnects"] += 1
        if self.metrics is not None:
            self.metrics.counter("netd.reconnects").inc()
        await self._connect()

    async def _receive_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                for frame in self._decoder.feed(data):
                    if frame.kind is FrameKind.HEARTBEAT:
                        continue
                    await self._acks.put(frame)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        except ProtocolError as error:
            self.tracer.event("netd.protocol_error", error=str(error))
            return

    def _drain_acks(self) -> None:
        while not self._acks.empty():
            self._acks.get_nowait()

    async def _await_frame(self, kind: FrameKind, timeout: float | None = None) -> Frame:
        deadline = timeout if timeout is not None else self.ack_timeout
        while True:
            frame = await asyncio.wait_for(self._acks.get(), timeout=deadline)
            if frame.kind is kind:
                return frame
            if frame.kind is FrameKind.ERROR:
                raise ProtocolError(
                    f"daemon error: {frame.payload.get('error', '?')}"
                )
            if frame.kind is FrameKind.BYE:
                raise ConnectionError("daemon said BYE")
            self.stats["ack_unmatched"] += 1

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    async def offer(self, stamp: Stamp | tuple[int, int], snapshot: Instance) -> None:
        """Queue one stamped snapshot under the bounded-depth contract.

        Returns as soon as the pair is queued; :meth:`drain` (or
        :meth:`publish`) observes the outcome.  A full queue waits up to
        ``backpressure_wait`` for the sender, then evicts its *oldest*
        pending pair — the newest snapshot supersedes it, so nothing is
        lost that the stamp watermark would have kept anyway.
        """
        stamp = Stamp(*stamp)
        # Re-offering a stamp (replay after a crash, redelivery tests)
        # must wait for the *new* outcome, not return the cached one.
        self.outcomes.pop(stamp, None)
        if len(self._pending) >= self.max_queue:
            self._pending_space.clear()
            try:
                await asyncio.wait_for(
                    self._pending_space.wait(), timeout=self.backpressure_wait
                )
            except asyncio.TimeoutError:
                pass
        if len(self._pending) >= self.max_queue:
            evicted_stamp, _ = self._pending.popleft()
            self.stats["queue_evicted"] += 1
            self.outcomes[evicted_stamp] = "superseded"
            self._settled.set()
            if self.metrics is not None:
                self.metrics.counter("netd.queue_evicted").inc()
            self.tracer.event(
                "netd.queue_evicted",
                peer=self.peer,
                stamp=str(evicted_stamp),
                depth=self.max_queue,
            )
        self._pending.append((stamp, snapshot.copy()))
        self._note_depth()
        self._pending_ready.set()

    def _note_depth(self) -> None:
        depth = len(self._pending)
        self.queue_peak = max(self.queue_peak, depth)
        if self.metrics is not None:
            self.metrics.gauge("netd.queue_depth").set(depth)
            peak = self.metrics.gauge("netd.queue_peak")
            peak.set(max(self.queue_peak, peak.value or 0))

    async def publish(
        self, stamp: Stamp | tuple[int, int], snapshot: Instance
    ) -> str:
        """Offer one snapshot and wait for its outcome (blocking publish)."""
        stamp = Stamp(*stamp)
        await self.offer(stamp, snapshot)
        while stamp not in self.outcomes:
            if self.closed or (
                self._sender_task is not None and self._sender_task.done()
            ):
                return self.outcomes.get(stamp, "closed")
            await self._settle()
        return self.outcomes[stamp]

    async def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every offered snapshot has an outcome."""

        async def empty() -> None:
            while self._pending or self._in_flight:
                await self._settle()

        try:
            await asyncio.wait_for(empty(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _settle(self) -> None:
        """Wait for the next recorded outcome or sender stop."""
        self._settled.clear()
        await self._settled.wait()

    def rebase(self) -> None:
        """Forget the delta base (e.g. after an epoch bump re-keys stamps)."""
        self._acked = None

    _in_flight = False

    # ------------------------------------------------------------------
    # the sender
    # ------------------------------------------------------------------

    async def _send_loop(self) -> None:
        while not self.closed:
            while not self._pending:
                if self.closed:
                    return
                self._pending_ready.clear()
                await self._pending_ready.wait()
            stamp, snapshot = self._pending[0]
            self._in_flight = True
            try:
                outcome = await self._send_one(stamp, snapshot)
            except asyncio.CancelledError:
                raise
            except SimulationError as error:
                # Retry budget spent dialing: the daemon is unreachable
                # right now (severed, partitioned).  Record and move on —
                # anti-entropy re-offers the latest state after healing.
                outcome = "unreachable"
                self.stats["unreachable"] += 1
                self.tracer.event(
                    "netd.unreachable", peer=self.peer, error=str(error)
                )
            except Exception as error:  # noqa: BLE001 - the loop must live
                outcome = "error"
                self.tracer.event(
                    "netd.send_error", peer=self.peer, error=str(error)
                )
            finally:
                self._in_flight = False
            self.outcomes[stamp] = outcome
            self.stats["published"] += 1
            if self._pending and self._pending[0][0] == stamp:
                self._pending.popleft()
            self._note_depth()
            self._pending_space.set()
            self._settled.set()

    def _encode_payload(
        self,
        stamp: Stamp,
        snapshot: Instance,
        context: TraceContext | None = None,
    ) -> tuple[bytes, bool]:
        """Pick delta vs snapshot; returns (frame bytes, is_delta)."""
        if self.deltas and self._acked is not None:
            base_stamp, base_snapshot = self._acked
            if base_stamp.epoch == stamp.epoch and base_stamp < stamp:
                added = snapshot.difference(base_snapshot)
                withdrawn = base_snapshot.difference(snapshot)
                if len(added) + len(withdrawn) < len(snapshot):
                    message = Message(
                        self.sender, self.peer, stamp,
                        Delta(base=base_stamp, added=added, withdrawn=withdrawn),
                        context=context,
                    )
                    return encode_message(message, self.max_frame), True
        message = Message(self.sender, self.peer, stamp, snapshot, context=context)
        return encode_message(message, self.max_frame), False

    async def _send_one(self, stamp: Stamp, snapshot: Instance) -> str:
        """Deliver one stamped snapshot inside a ``netd.publish`` span.

        The span's trace context rides the wire (the frame's ``ctx``
        key), so the daemon's ``netd.ingest`` span on the other side of
        the socket stitches as this publish's child hop.
        """
        context = TraceContext.for_publish(self.sender, stamp, at=time.time())
        if self.tracer.enabled:
            with self.tracer.span(
                "netd.publish", lane=self.sender, peer=self.peer,
                stamp=str(stamp), facts=len(snapshot),
            ) as span:
                context.annotate(span)
                outcome = await self._deliver(stamp, snapshot, context)
                span.set("outcome", outcome)
            return outcome
        return await self._deliver(stamp, snapshot, context)

    async def _deliver(
        self, stamp: Stamp, snapshot: Instance, context: TraceContext
    ) -> str:
        """Send, await ACK, handle fallback — until a verdict lands."""
        sent_full = False
        while True:
            if not self.connected:
                await self._connect()
            data, is_delta = self._encode_payload(stamp, snapshot, context)
            if sent_full and is_delta:  # fallback pass must not re-delta
                message = Message(
                    self.sender, self.peer, stamp, snapshot, context=context
                )
                data, is_delta = encode_message(message, self.max_frame), False
            if self.tracer.enabled:
                with self.tracer.span(
                    "netd.frame-encode", peer=self.peer,
                    stamp=str(stamp), delta=is_delta, bytes=len(data),
                ):
                    pass
            try:
                assert self._writer is not None
                self._writer.write(data)
                await self._writer.drain()
            except (ConnectionError, OSError):
                await self._reconnect()
                continue
            self.stats["sent_deltas" if is_delta else "sent_snapshots"] += 1
            self.stats["facts_sent"] += self._payload_facts(
                stamp, snapshot, is_delta
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "netd.sent_deltas" if is_delta else "netd.sent_snapshots"
                ).inc()
            try:
                verdict = await self._await_ack(stamp)
            except asyncio.TimeoutError:
                # The message (or its ACK) is lost in the chaos.  Do not
                # retransmit here: the stamp watermark makes a blind
                # retransmit safe but anti-entropy already repairs lost
                # tails, and retransmitting on every delay doubles load.
                self.stats["ack_timeouts"] += 1
                if self.metrics is not None:
                    self.metrics.counter("netd.ack_timeouts").inc()
                self.tracer.event(
                    "netd.ack_timeout", peer=self.peer, stamp=str(stamp)
                )
                return "lost"
            except (ConnectionError, ProtocolError, OSError):
                await self._reconnect()
                continue
            if verdict == "chain-broken":
                # The daemon cannot patch from our base — fall back to
                # the full snapshot for this same stamp (idempotent).
                self.stats["delta_fallbacks"] += 1
                if self.metrics is not None:
                    self.metrics.counter("netd.delta_fallbacks").inc()
                self.tracer.event(
                    "netd.delta_fallback", peer=self.peer, stamp=str(stamp)
                )
                sent_full = True
                self._acked = None
                continue
            if verdict in _BASE_ADVANCING:
                self._acked = (stamp, snapshot)
            return verdict

    def _payload_facts(
        self, stamp: Stamp, snapshot: Instance, is_delta: bool
    ) -> int:
        if not is_delta or self._acked is None:
            return len(snapshot)
        _, base_snapshot = self._acked
        return len(snapshot.difference(base_snapshot)) + len(
            base_snapshot.difference(snapshot)
        )

    async def _heartbeat_loop(self) -> None:
        """Keep the connection warm so the daemon's idle timeout holds off.

        Heartbeat failures are deliberately swallowed: liveness is the
        sender's problem (it reconnects on its next publish); the
        heartbeat's only job is to refresh the daemon's idle clock.
        """
        while not self.closed:
            await asyncio.sleep(self.heartbeat_interval)
            if self.closed or self._writer is None:
                continue
            try:
                self._writer.write(encode_frame(FrameKind.HEARTBEAT, {}))
                await self._writer.drain()
            except (ConnectionError, OSError):
                continue

    async def _await_ack(self, stamp: Stamp) -> str:
        """Wait for the ACK stamped ``stamp``; discard mismatched ones."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.ack_timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError
            frame = await self._await_frame(FrameKind.ACK, timeout=remaining)
            acked = frame.payload.get("stamp")
            if acked == [stamp.epoch, stamp.seq]:
                return str(frame.payload.get("outcome", "?"))
            # A duplicate delivery's second ACK, or an earlier timed-out
            # message's ACK finally arriving: note it and keep waiting.
            self.stats["ack_unmatched"] += 1
            if self.metrics is not None:
                self.metrics.counter("netd.ack_unmatched").inc()


async def fetch_stats(address: Any, timeout: float = 5.0) -> dict[str, Any]:
    """One-shot ops probe: dial ``address``, send ``STATS``, return the reply.

    The exchange needs no ``HELLO`` — a ``STATS`` frame is answerable
    before (or without) a peer handshake, so fleet tooling can poll a
    daemon it does not publish to.  Returns the daemon's
    :meth:`~repro.netd.SyncDaemon.stats_payload` dict.  Raises
    :class:`ConnectionError` / :class:`OSError` when the daemon is
    unreachable, :class:`asyncio.TimeoutError` when it stays silent, and
    :class:`~repro.exceptions.ProtocolError` on an ``ERROR`` reply.
    """
    reader, writer = await open_stream(address)
    decoder = FrameDecoder()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    try:
        writer.write(encode_frame(FrameKind.STATS, {}))
        await writer.drain()
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"daemon at {address!r} did not answer STATS in {timeout}s"
                )
            data = await asyncio.wait_for(
                reader.read(64 * 1024), timeout=remaining
            )
            if not data:
                raise ConnectionError(
                    f"daemon at {address!r} closed before answering STATS"
                )
            for frame in decoder.feed(data):
                if frame.kind is FrameKind.STATS:
                    return dict(frame.payload)
                if frame.kind is FrameKind.ERROR:
                    raise ProtocolError(
                        f"daemon error: {frame.payload.get('error', '?')}"
                    )
                if frame.kind is FrameKind.BYE:
                    raise ConnectionError("daemon said BYE")
                # HEARTBEAT (or anything else): not ours, keep waiting.
    finally:
        try:
            writer.write(encode_frame(FrameKind.BYE, {}))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        try:
            writer.close()
        except (ConnectionError, OSError):
            pass
