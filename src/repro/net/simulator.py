"""The network simulator: run a scenario to quiescence, check convergence.

:class:`NetworkSimulator` executes a :class:`~repro.net.Scenario` as a
discrete-event loop on a virtual :class:`~repro.runtime.FaultClock`:
publishes, control events (partition / heal / crash / restart / epoch
bump), and transport deliveries interleave in time order with
deterministic tie-breaking, so the same scenario replays byte-for-byte —
:attr:`SimulationReport.log` is the replayable record, and a test can
assert two runs produce identical logs.

After the timeline drains (quiescence), an **anti-entropy** phase
repairs whatever the faults left behind: every reachable peer whose
:class:`~repro.sync.Stamp` watermark trails the publisher's latest is
re-offered the newest snapshot over a reliable repair channel (modeling
the explicit fetch a re-joined peer performs after a partition heals).
Unreachable peers — crashed, or still partitioned from the publisher —
are left alone and excluded from the convergence check.

:meth:`NetworkSimulator.check_convergence` then compares every reachable
peer's materialization against the **fault-free oracle**: a fresh
:class:`~repro.sync.SyncSession` (with the same pinned facts) that
ingested every snapshot in order with nothing dropped, duplicated,
reordered, or delayed.  Convergence of all reachable peers is the
invariant the whole protocol stack — authoritative snapshots, stamped
idempotent ingestion, journal-backed resume, anti-entropy — exists to
guarantee.

Delta transfer (``deltas=True``): instead of shipping the full snapshot
on every publish, the publisher ships a :class:`~repro.net.Delta` —
``(added, withdrawn)`` keyed on the previous publish's stamp — whenever
that is smaller than the snapshot itself (and always a full snapshot on
the first publish of an epoch).  A peer whose watermark is not exactly
the delta's base reports a broken chain, and the publisher falls back by
re-sending the *latest* full snapshot to that peer over the same faulty
link.  Anti-entropy always repairs with full snapshots.  Deltas are a
pure wire optimization: every scenario must converge to the identical
state with deltas on or off.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.homomorphism import has_instance_homomorphism
from repro.core.instance import Instance
from repro.exceptions import SimulationError
from repro.net.node import PeerNode
from repro.net.scenarios import (
    BumpEpoch,
    Crash,
    Heal,
    Partition,
    Restart,
    Scenario,
)
from repro.net.scoring import PeerScorer
from repro.net.transport import Delta, Message, SimTransport
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.faults import FaultClock
from repro.runtime.journal import SessionJournal
from repro.sync.session import Stamp, SyncSession, watermark_lag

__all__ = [
    "ConvergenceReport",
    "NetworkSimulator",
    "SimulationReport",
    "check_convergence",
    "oracle_state",
    "states_agree",
]


@dataclass
class ConvergenceReport:
    """The verdict of :meth:`NetworkSimulator.check_convergence`.

    Attributes:
        converged: every reachable peer's state equals its oracle state.
            Vacuously True when *no* peer is reachable — unreachable
            peers are excluded from the check, and an all-crashed (or
            all-partitioned) endgame leaves nothing to diverge.
        peers: per reachable peer, whether it matches the oracle.
        unreachable: peers excluded from the check (crashed, or
            partitioned away from the publisher at quiescence).
        oracle_size: facts in the (unpinned) oracle materialization, as a
            quick summary statistic.
        vacuous: True when the verdict covered no peers (``peers`` is
            empty because every peer was unreachable).
        lag: per reachable peer, the watermark lag — how many publishes
            the peer's applied stamp trails the publisher's history by
            (see :func:`repro.sync.watermark_lag`).  0 for every peer at
            quiescence is the convergence invariant in stamp arithmetic;
            empty when the caller supplied no watermark data.
    """

    converged: bool
    peers: dict[str, bool]
    unreachable: list[str]
    oracle_size: int
    vacuous: bool = False
    lag: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.converged


@dataclass
class SimulationReport:
    """Everything one simulation run produced.

    Attributes:
        scenario: the scenario name.
        seed: the seed the scenario was built from.
        published: snapshots the publisher sent.
        final_stamp: the publisher's last stamp.
        stats: transport delivery counters plus per-protocol totals
            (``applied`` / ``stale`` / ``rejected`` / ``degraded``
            summed over peers, and ``crash_dropped`` deliveries).
        log: the deterministic event log, one line per simulation event,
            in execution order — two runs of the same scenario produce
            identical logs.
        convergence: the convergence verdict at quiescence.
    """

    scenario: str
    seed: int
    published: int
    final_stamp: Stamp | None
    stats: dict[str, int]
    log: list[str] = field(repr=False, default_factory=list)
    convergence: ConvergenceReport | None = None

    @property
    def converged(self) -> bool:
        return self.convergence is not None and self.convergence.converged


def states_agree(actual: Instance, expected: Instance) -> bool:
    """Instance equality up to renaming of labeled nulls.

    Sync rounds invent fresh nulls, so two histories that converge on
    the same snapshot can number their nulls differently.  Exact
    equality first (the common, all-constants case), then homomorphic
    equivalence: a constant-preserving homomorphism each way.
    """
    if actual == expected:
        return True
    return (
        len(actual) == len(expected)
        and has_instance_homomorphism(actual, expected)
        and has_instance_homomorphism(expected, actual)
    )


#: Backwards-compatible alias (the helper predates the public name).
_states_agree = states_agree


def oracle_state(scenario: Scenario, pinned: Instance | None = None) -> Instance:
    """The fault-free oracle materialization for one peer of ``scenario``.

    Replays *all* of the scenario's snapshots, in order, through a fresh
    :class:`~repro.sync.SyncSession` holding ``pinned`` — the run a
    perfect network would have produced.  A replay the protocol itself
    refuses (rejected or degraded snapshot) raises
    :class:`~repro.exceptions.SimulationError` naming the snapshot.
    """
    pinned = pinned if pinned is not None else Instance()
    session = SyncSession(scenario.setting, pinned=pinned.copy())
    for index, snapshot in enumerate(scenario.snapshots):
        outcome = session.sync(snapshot, stamp=Stamp(1, index + 1))
        if not outcome.ok or outcome.degraded:
            # Not a driver bug but a scenario whose inputs the protocol
            # itself refuses (e.g. pinned facts no snapshot vouches
            # for): diagnose it instead of crashing with a bare
            # RuntimeError.
            verb = "degraded on" if outcome.degraded else "rejected"
            raise SimulationError(
                f"scenario {scenario.name!r} has no fault-free oracle: "
                f"the perfect-network replay {verb} snapshot {index} "
                f"(stamp {Stamp(1, index + 1)}): {outcome.reason}"
            )
    return session.state()


def check_convergence(
    scenario: Scenario,
    states: dict[str, Instance],
    unreachable: list[str] | None = None,
    watermarks: "dict[str, Stamp | tuple[int, int] | None] | None" = None,
    published: "list[Stamp] | None" = None,
) -> ConvergenceReport:
    """Compare reached peer states against the fault-free oracle.

    ``states`` maps each *reachable* peer to its final materialization;
    ``unreachable`` names the peers excluded from the verdict (crashed,
    or partitioned away from the publisher at quiescence).  This is the
    transport-independent core of the convergence invariant: the
    :class:`NetworkSimulator` calls it on its in-memory
    :class:`~repro.net.PeerNode`\\ s, and the :mod:`repro.netd` chaos
    harness calls it on states collected from real daemons over real
    sockets — the same oracle judges both.

    ``watermarks`` (per-peer applied stamps) and ``published`` (the
    publisher's stamp history) additionally yield per-peer watermark lag
    via :func:`repro.sync.watermark_lag` — the same stamp arithmetic in
    both network stacks.  At quiescence every reachable peer's lag must
    be 0; a nonzero lag names exactly how many publishes the peer is
    missing.

    Oracle sessions are cached per distinct pinned instance, since most
    peers pin nothing.  When *every* peer is unreachable the verdict is
    vacuously converged (``vacuous=True``), not a divergence.
    """
    unreachable = list(unreachable) if unreachable is not None else []
    oracles: list[tuple[Instance, Instance]] = []

    def cached_oracle(pinned: Instance | None) -> Instance:
        pinned = pinned if pinned is not None else Instance()
        for known_pinned, state in oracles:
            if known_pinned == pinned:
                return state
        state = oracle_state(scenario, pinned)
        oracles.append((pinned, state))
        return state

    peers: dict[str, bool] = {}
    for name in scenario.peers:
        if name not in states:
            if name not in unreachable:
                unreachable.append(name)
            continue
        expected = cached_oracle(scenario.pinned.get(name))
        peers[name] = states_agree(states[name], expected)
    lag: dict[str, int] = {}
    if watermarks is not None and published is not None:
        lag = {
            name: watermark_lag(published, watermarks.get(name))
            for name in peers
        }
    # Unreachable peers are excluded from the check, so a run whose
    # every peer ended crashed or partitioned converges *vacuously*:
    # nothing reachable diverged.  (all() of an empty dict is True.)
    return ConvergenceReport(
        converged=all(peers.values()),
        peers=peers,
        unreachable=unreachable,
        oracle_size=len(cached_oracle(None)),
        vacuous=not peers,
        lag=lag,
    )


class NetworkSimulator:
    """Drive one scenario to quiescence on a virtual clock.

    Args:
        scenario: the script to execute.
        journal_dir: directory for per-peer session journals.  Required
            for meaningful :class:`~repro.net.Crash` recovery; when None
            and the scenario contains crash events, a temporary directory
            is created (and removed again when the run completes).  When
            None otherwise, peers run journal-free.
        tracer: optional :class:`~repro.obs.Tracer`; the run is wrapped
            in a ``simulate`` span and the transport emits ``net.*``
            events inside it.
        metrics: optional :class:`~repro.obs.MetricsRegistry` accumulating
            ``net.*`` delivery counters and per-round sync instruments.
        anti_entropy_limit: maximum repair rounds after quiescence.
        deltas: enable delta transfer — publishes ship ``(added,
            withdrawn)`` keyed on the previous stamp when smaller than
            the full snapshot, with per-peer full-snapshot fallback on a
            broken chain.  Purely a wire optimization: convergence and
            final states are identical with or without it.
        max_queue: per-recipient in-flight bound handed to the
            :class:`~repro.net.SimTransport` (see its ``max_queue``);
            None keeps the transport unbounded.
    """

    def __init__(
        self,
        scenario: Scenario,
        journal_dir: str | Path | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        anti_entropy_limit: int = 8,
        deltas: bool = False,
        max_queue: int | None = None,
    ) -> None:
        scenario.refuse_co_publishers()
        self.scenario = scenario
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.anti_entropy_limit = anti_entropy_limit
        self.deltas = deltas
        self.clock = FaultClock()
        #: Per-link health scores folded from every delivery outcome;
        #: anti-entropy ranks repair upstreams with them.
        self.scorer = PeerScorer(metrics=metrics, prefix="net")
        self.transport = SimTransport(
            clock=self.clock,
            latency=scenario.latency,
            reorder_delay=scenario.reorder_delay,
            tracer=self.tracer,
            metrics=metrics,
            max_queue=max_queue,
            scorer=self.scorer,
        )
        for link, schedule in scenario.faults.items():
            self.transport.set_schedule(link[0], link[1], schedule)

        needs_journals = any(
            isinstance(event, (Crash, Restart)) for event in scenario.events
        )
        self._owns_journal_dir = journal_dir is None and needs_journals
        if self._owns_journal_dir:
            journal_dir = tempfile.mkdtemp(prefix=f"repro-net-{scenario.name}-")
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)

        self.nodes: dict[str, PeerNode] = {}
        for name in scenario.peers:
            journal = (
                SessionJournal(self.journal_dir / f"{name}.journal")
                if self.journal_dir is not None
                else None
            )
            self.nodes[name] = PeerNode(
                name,
                scenario.setting,
                pinned=scenario.pinned.get(name),
                journal=journal,
            )

        self.log: list[str] = []
        self.stats: dict[str, int] = {
            "crash_dropped": 0,
            "anti_entropy": 0,
            "delta_published": 0,
            "delta_applied": 0,
            "delta_fallback": 0,
            "forwarded": 0,
        }
        self._epoch = 1
        self._seq = 0
        self._published = 0
        self.latest_stamp: Stamp | None = None
        self.latest_snapshot: Instance | None = None
        #: Every stamp published, in order — the history watermark lag
        #: is measured against.
        self.published_stamps: list[Stamp] = []
        #: The wire trace context minted for each publish.  Anti-entropy
        #: re-offers reuse the original context (deterministic ids), so
        #: a repaired delivery stitches into the publish's own trace and
        #: its latency histogram still measures publish→apply.
        self._publish_contexts: dict[Stamp, TraceContext] = {}
        #: The previous publish of the current epoch — the base the next
        #: delta is keyed on; None before the first publish and right
        #: after an epoch bump (a restarted publisher re-baselines with a
        #: full snapshot).
        self._previous_stamp: Stamp | None = None
        self._previous_snapshot: Instance | None = None
        self._ran = False

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    def _note(self, text: str) -> None:
        self.log.append(f"t={self.clock():07.3f} {text}")

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        """Execute the scenario to quiescence and check convergence."""
        if self._ran:
            raise RuntimeError("a NetworkSimulator instance runs exactly once")
        self._ran = True
        with self.tracer.span(
            "simulate", scenario=self.scenario.name, seed=self.scenario.seed
        ):
            timeline = deque(self.scenario.timeline())
            while timeline or self.transport.pending():
                next_scripted = timeline[0][0] if timeline else None
                next_delivery = self.transport.next_delivery_at()
                # Scripted entries win ties: a partition (or crash) that
                # coincides with a delivery instant applies first.
                take_scripted = next_delivery is None or (
                    next_scripted is not None and next_scripted <= next_delivery
                )
                if take_scripted:
                    at, item = timeline.popleft()
                    self._advance(at)
                    if isinstance(item, int):
                        self._publish(item)
                    else:
                        self._control(item)
                else:
                    at, message = self.transport.pop_delivery()
                    self._advance(at)
                    self._deliver(message)
            self._note("quiescent")
            self._anti_entropy()
            convergence = self.check_convergence()
        report = SimulationReport(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            published=self._published,
            final_stamp=self.latest_stamp,
            stats=self._aggregate_stats(),
            log=self.log,
            convergence=convergence,
        )
        if self._owns_journal_dir and self.journal_dir is not None:
            # The temp dir was provisioned for this run only; a caller
            # who wants to inspect journals passes an explicit dir.
            shutil.rmtree(self.journal_dir, ignore_errors=True)
        return report

    def _advance(self, to: float) -> None:
        now = self.clock()
        if to > now:
            self.clock.advance(to - now)

    def _publish(self, index: int) -> None:
        snapshot = self.scenario.snapshots[index]
        self._seq += 1
        stamp = Stamp(self._epoch, self._seq)
        self.latest_stamp = stamp
        self.latest_snapshot = snapshot
        self._published += 1
        self.published_stamps.append(stamp)
        context = TraceContext.for_publish(
            self.scenario.publisher, stamp, at=self.clock()
        )
        self._publish_contexts[stamp] = context
        payload: Instance | Delta = snapshot
        if self.deltas and self._previous_snapshot is not None:
            delta = Delta(
                base=self._previous_stamp,
                added=snapshot - self._previous_snapshot,
                withdrawn=self._previous_snapshot - snapshot,
            )
            # Ship the delta only when it actually beats the snapshot; a
            # near-total churn round is cheaper as state transfer.
            if len(delta) < len(snapshot):
                payload = delta
                self.stats["delta_published"] += 1
        if isinstance(payload, Delta):
            self._note(
                f"publish stamp={stamp} facts={len(snapshot)} "
                f"{payload.describe()}"
            )
        else:
            self._note(f"publish stamp={stamp} facts={len(snapshot)}")
        with self.tracer.span(
            "net.publish",
            lane=self.scenario.publisher,
            stamp=str(stamp),
            facts=len(snapshot),
        ) as span:
            context.annotate(span)
            # Publishes flow along the relay graph: every peer in the
            # legacy star, only direct downstream links in a mesh (the
            # rest of the graph hears forwarded copies).
            for link in self.scenario.downstream(
                self.scenario.publisher, self.scenario.publisher
            ):
                self.transport.send(
                    Message(
                        self.scenario.publisher, link.recipient, stamp, payload,
                        context=context,
                    )
                )
        self._previous_stamp = stamp
        self._previous_snapshot = snapshot

    def _control(self, event: object) -> None:
        if isinstance(event, Partition):
            groups = [",".join(sorted(group)) for group in event.groups]
            self._note(f"partition {'|'.join(groups)}")
            self.transport.partition(event.groups)
        elif isinstance(event, Heal):
            self._note("heal")
            self.transport.heal()
        elif isinstance(event, Crash):
            self._note(f"crash {event.peer}")
            self.nodes[event.peer].crash()
        elif isinstance(event, Restart):
            node = self.nodes[event.peer]
            node.restart()
            self._note(f"restart {event.peer} stamp={node.stamp}")
        elif isinstance(event, BumpEpoch):
            self._epoch += 1
            self._seq = 0
            # A restarted publisher re-baselines: its first publish is
            # always a full snapshot, never a cross-epoch delta.
            self._previous_stamp = None
            self._previous_snapshot = None
            self._note(f"epoch-bump epoch={self._epoch}")
        else:  # pragma: no cover - scenarios validate their events
            raise RuntimeError(f"unknown control event {event!r}")

    @staticmethod
    def _verdict(outcome) -> str:
        """One word (or ``kind:detail``) describing a sync outcome.

        Shared by delivery and anti-entropy logging so both spell
        verdicts identically in the event log.
        """
        if outcome.stale:
            return "stale"
        if outcome.chain_broken:
            return "delta-chain-broken"
        if outcome.ok:
            return "applied"
        if outcome.degraded:
            return f"degraded:{outcome.status}"
        return "rejected"

    def _deliver(self, message: Message) -> None:
        node = self.nodes[message.recipient]
        if node.crashed:
            self.stats["crash_dropped"] += 1
            self._note(f"deliver {message.describe()} -> peer crashed, dropped")
            self.tracer.event(
                "net.drop", reason="crashed", message=message.describe()
            )
            return
        outcome = node.receive(message, tracer=self.tracer, metrics=self.metrics)
        self._note(
            f"deliver {message.describe()} -> {self._verdict(outcome)} "
            f"state={len(outcome.state)}"
        )
        self._observe_apply(message, outcome)
        self.scorer.record(message.link, self._score_outcome(outcome))
        if outcome.ok and not outcome.stale and not outcome.chain_broken:
            self._forward(message.recipient, message)
        if not message.is_delta:
            return
        if outcome.chain_broken:
            # The peer cannot patch from this base: fall back to state
            # transfer of the *latest* snapshot (authoritative, and the
            # next delta may chain from it), over the same faulty link —
            # a lost fallback is repaired by anti-entropy like any drop.
            self.stats["delta_fallback"] += 1
            self.tracer.event(
                "net.delta_fallback", message=message.describe()
            )
            if self.metrics is not None:
                self.metrics.counter("net.delta_fallbacks").inc()
            fallback = Message(
                self.scenario.publisher,
                message.recipient,
                self.latest_stamp,
                self.latest_snapshot,
                context=self._publish_contexts.get(self.latest_stamp),
            )
            self._note(f"delta-fallback {fallback.describe()}")
            self.transport.send(fallback)
        elif outcome.ok and not outcome.stale:
            self.stats["delta_applied"] += 1
            self.tracer.event("net.delta_applied", message=message.describe())
            if self.metrics is not None:
                self.metrics.counter("net.delta_applied").inc()

    @staticmethod
    def _score_outcome(outcome) -> str:
        """The scoring-vocabulary word for a sync outcome."""
        if outcome.stale:
            return "stale"
        if outcome.chain_broken:
            return "chain_broken"
        if outcome.ok:
            return "applied"
        if outcome.degraded:
            return "degraded"
        return "rejected"

    def _forward(self, relay: str, message: Message) -> None:
        """Push a freshly applied stamp down ``relay``'s out-links.

        Relays re-publish the *source* snapshot they just applied
        (:attr:`~repro.sync.SyncSession.last_source`), so every hop
        exchanges authoritative source facts and computes the same
        solutions as a direct subscriber.  Forwarding happens only on a
        *fresh* apply — redeliveries are stale no-ops at the watermark —
        so each node forwards each stamp at most once and relay cycles
        terminate instead of echoing forever.
        """
        feed = self.scenario.publisher
        links = self.scenario.downstream(relay, feed)
        if not links:
            return
        session = self.nodes[relay].session
        source = session.last_source if session is not None else None
        if source is None:  # pragma: no cover - fresh apply set a source
            return
        for link in links:
            self.stats["forwarded"] += 1
            if self.metrics is not None:
                self.metrics.counter("net.forwarded").inc()
            forwarded = Message(
                relay, link.recipient, message.stamp, source.copy(),
                context=message.context,
            )
            self._note(f"forward {forwarded.describe()}")
            self.transport.send(forwarded)

    def _observe_apply(self, message: Message, outcome) -> None:
        """Record end-to-end latency and chain-break telemetry for a round.

        Publish→apply latency is virtual-clock milliseconds from the
        stamp's original publish instant (carried in the wire context) to
        the moment the peer applied it — the same arithmetic the real
        daemon performs on wall clocks.
        """
        if outcome.chain_broken and self.metrics is not None:
            self.metrics.counter("net.chain_broken").inc()
        applied = outcome.ok and not outcome.stale and not outcome.chain_broken
        if not applied or self.metrics is None:
            return
        context = message.context
        if context is None or context.published_at is None:
            return
        elapsed_ms = max(0.0, (self.clock() - context.published_at) * 1000.0)
        self.metrics.histogram("net.publish_apply_ms").observe(elapsed_ms)

    # ------------------------------------------------------------------
    # repair + convergence
    # ------------------------------------------------------------------

    def reachable(self, peer: str) -> bool:
        """Is ``peer`` live and connected to the feed right now?

        Reachability walks the relay graph
        (:meth:`~repro.net.Scenario.reachable`) — a peer is reachable iff
        some custody-carrying path of connected links and live relays
        leads from the publisher to it.  On the derived star that path is
        the direct link to the publisher.
        """
        crashed = [name for name, node in self.nodes.items() if node.crashed]
        return peer in self.scenario.reachable(crashed, self.transport._groups)

    def _repair_sources(self, name: str) -> list[str]:
        """Upstream neighbors able to repair ``name`` right now.

        A candidate holds the latest stamp (the publisher always does; a
        relay does once its own watermark caught up), is live, and is
        currently connected to ``name``.
        """
        feed = self.scenario.publisher
        candidates = []
        for link in self.scenario.upstreams(name, feed):
            sender = link.sender
            if sender != feed:
                node = self.nodes[sender]
                if node.crashed or node.behind(self.latest_stamp):
                    continue
            if self.transport.connected(sender, name):
                candidates.append(sender)
        return candidates

    def _anti_entropy(self) -> None:
        """Re-offer the latest snapshot to lagging reachable peers.

        Models the catch-up fetch a re-joined peer performs: reliable
        (no fault schedule), bounded, and idempotent — an up-to-date
        peer is never contacted.  In a relay mesh the repair is
        *path-aware*: a lagging peer fetches from the healthiest caught-
        up upstream neighbor (ranked by :class:`~repro.net.PeerScorer`),
        not from the possibly-unreachable origin, and repairs cascade
        down the graph round by round.
        """
        if self.latest_snapshot is None:
            return
        feed = self.scenario.publisher
        for round_number in range(1, self.anti_entropy_limit + 1):
            lagging = [
                name
                for name in self.scenario.peers
                if self.reachable(name) and self.nodes[name].behind(self.latest_stamp)
            ]
            if not lagging:
                break
            repaired_any = False
            for name in lagging:
                sources = self._repair_sources(name)
                upstream = self.scorer.best_upstream(name, sources)
                if upstream is None:
                    # No caught-up neighbor yet: a later round will
                    # reach this peer once its upstream is repaired.
                    continue
                if upstream == feed:
                    payload = self.latest_snapshot
                else:
                    source = self.nodes[upstream].session.last_source
                    if source is None:  # pragma: no cover - caught up
                        continue
                    payload = source
                self.stats["anti_entropy"] += 1
                repaired_any = True
                if self.metrics is not None:
                    self.metrics.counter("net.anti_entropy").inc()
                message = Message(
                    upstream, name, self.latest_stamp, payload,
                    context=self._publish_contexts.get(self.latest_stamp),
                )
                outcome = self.nodes[name].receive(
                    message, tracer=self.tracer, metrics=self.metrics
                )
                self._note(
                    f"anti-entropy round={round_number} {message.describe()} "
                    f"-> {self._verdict(outcome)}"
                )
                self._observe_apply(message, outcome)
                self.scorer.record((upstream, name), self._score_outcome(outcome))
            if not repaired_any:
                # Every lagging peer is waiting on an upstream that can
                # no longer catch up (e.g. severed mid-graph): further
                # rounds cannot make progress.
                break

    def check_convergence(self) -> ConvergenceReport:
        """Compare every reachable peer against the fault-free oracle.

        Delegates to the module-level :func:`check_convergence` — the
        transport-independent core shared with the :mod:`repro.netd`
        chaos harness — on this run's reachable peer states.

        States are compared up to renaming of labeled nulls: each sync
        round invents fresh nulls, so a peer that skipped a since-
        superseded snapshot numbers its nulls differently from the
        oracle while representing the same instance.  Equality is exact
        fact-set equality, with bidirectional constant-preserving
        homomorphism as the fallback (homomorphic equivalence — the same
        certain answers).
        """
        states: dict[str, Instance] = {}
        unreachable: list[str] = []
        watermarks: dict[str, Stamp | None] = {}
        for name in self.scenario.peers:
            if not self.reachable(name):
                unreachable.append(name)
                continue
            states[name] = self.nodes[name].state()
            watermarks[name] = self.nodes[name].stamp
        report = check_convergence(
            self.scenario, states, unreachable,
            watermarks=watermarks, published=self.published_stamps,
        )
        peers = report.peers
        self._note(
            "convergence "
            + (
                " ".join(
                    f"{name}={'ok' if ok else 'DIVERGED'}"
                    for name, ok in sorted(peers.items())
                )
                if peers
                else "vacuous (no reachable peers)"
            )
            + (f" unreachable={','.join(unreachable)}" if unreachable else "")
        )
        return report

    def _aggregate_stats(self) -> dict[str, int]:
        totals = dict(self.transport.stats)
        totals.update(self.stats)
        for key in ("applied", "stale", "rejected", "degraded", "chain_broken"):
            totals[key] = sum(node.stats[key] for node in self.nodes.values())
        return totals
