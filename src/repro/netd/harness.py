"""Run simulator scenarios against the real daemon over real sockets.

:func:`run_scenario_netd` takes the *same* :class:`~repro.net.Scenario`
values the in-memory :class:`~repro.net.NetworkSimulator` executes and
replays them against live machinery over the scenario's relay graph
(:attr:`~repro.net.Scenario.relay_links`: the declared topology, or the
derived publisher→peer star).  Every peer runs in its own
:class:`~repro.netd.SyncDaemon` on a unix socket, journaling into its
own subdirectory (``journal_dir/<peer>/``); relay links are the
daemons' relay subscriptions, one :class:`~repro.netd.ChaosProxy` per
link carries that link's seeded :class:`~repro.runtime.FaultSchedule`,
and one :class:`~repro.netd.PublisherClient` per first-hop link walks
the publish timeline (:meth:`~repro.net.Scenario.timeline`, scaled from
virtual seconds to wall clock by ``time_scale``).  Control events map
one-to-one: :class:`~repro.net.Partition` / :class:`~repro.net.Heal`
become proxy partitions under the shared
:func:`~repro.net.scenarios.connected` rule, :class:`~repro.net.Crash`
/ :class:`~repro.net.Restart` call
:meth:`~repro.netd.SyncDaemon.crash_peer` /
:meth:`~repro.netd.SyncDaemon.restart_peer` on the peer's own daemon
(the simulator's crash model: the peer loses its memory and resumes
from its journal, while copies it already sent stay in flight), and
:class:`~repro.net.BumpEpoch` bumps the stamp epoch and re-baselines
every client's delta chain.

After the timeline drains the harness runs the same bounded, path-aware
**anti-entropy** repair the simulator runs — each lagging peer that
:meth:`~repro.net.Scenario.reachable` still connects to the feed is
re-offered the latest snapshot over a clean connection (no proxy) from
its healthiest caught-up upstream — and then judges the final states
with the very same transport-independent
:func:`~repro.net.check_convergence` oracle.  That shared oracle is the
point: a scenario that converges in simulation must converge over real
sockets, and the chaos integration tests additionally assert the final
states *agree* (:func:`~repro.net.states_agree`) between the two runs.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.instance import Instance
from repro.net.scenarios import (
    BumpEpoch,
    Crash,
    Heal,
    Partition,
    Restart,
    Scenario,
    connected,
)
from repro.net.scoring import PeerScorer
from repro.net.simulator import ConvergenceReport, check_convergence
from repro.netd.chaos import ChaosProxy
from repro.netd.client import PublisherClient
from repro.netd.daemon import SyncDaemon
from repro.obs.exporters import write_trace_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.retry import RetryPolicy
from repro.sync.session import Stamp

__all__ = ["NetdReport", "run_scenario_netd"]


@dataclass
class NetdReport:
    """Everything one real-socket scenario run produced.

    The socket twin of :class:`~repro.net.SimulationReport`: the same
    identifying fields, a convergence verdict from the same oracle, the
    final per-peer states (so tests can compare them against a
    simulator run of the same scenario), and merged ``netd.*`` /
    ``chaos.*`` counters.
    """

    scenario: str
    seed: int
    published: int
    final_stamp: Stamp | None
    states: dict[str, Instance]
    unreachable: list[str]
    stats: dict[str, int]
    convergence: ConvergenceReport | None = None
    drained: bool = True
    log: list[str] = field(repr=False, default_factory=list)
    trace_files: dict[str, Path] = field(default_factory=dict)
    #: Flight-recorder files the daemons flushed: ``<peer>.postmortem.jsonl``
    #: per crash and ``daemon.postmortem.jsonl`` per stop, each in the
    #: peer's journal subdirectory.
    postmortems: list[Path] = field(default_factory=list)
    #: Per-link peer scores (``"sender->recipient"``) merged from every
    #: daemon's relay scorer plus the publisher's own first-hop links and
    #: the anti-entropy repairs.
    scores: dict[str, float] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.convergence is not None and self.convergence.converged

    @property
    def lag(self) -> dict[str, int]:
        """Per-peer watermark lag at the end of the run (0 = caught up)."""
        return dict(self.convergence.lag) if self.convergence is not None else {}


def run_scenario_netd(
    scenario: Scenario,
    deltas: bool = False,
    journal_dir: str | Path | None = None,
    time_scale: float = 0.02,
    use_chaos: bool = True,
    max_queue: int = 32,
    ack_timeout: float = 0.3,
    anti_entropy_limit: int = 8,
    node_cap: int | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace_dir: str | Path | None = None,
) -> NetdReport:
    """Execute ``scenario`` over real sockets; blocking wrapper.

    Args:
        scenario: the same scenario value the simulator runs.
        deltas: ship incremental payloads when they beat the snapshot.
        journal_dir: root of the journals; each peer's daemon journals
            and writes its post-mortems in ``journal_dir/<peer>/`` (a
            temp dir when None, removed after the run).
        time_scale: wall-clock seconds per virtual scenario second.
        use_chaos: route each link through a fault-injecting
            :class:`~repro.netd.ChaosProxy`; False connects directly
            (a clean-network baseline, also used by the benchmarks).
        max_queue: bound for client pending queues and daemon queues.
        ack_timeout: per-message ACK wait before the client moves on.
        anti_entropy_limit: bounded repair rounds after the timeline.
        node_cap: optional per-round node cap on the daemon's budgets.
        tracer / metrics: optional shared :mod:`repro.obs` sinks.
        trace_dir: when set, the run records one distributed-tracing
            lane per component — ``publisher.jsonl``, ``daemon.jsonl``
            (shared by every peer's daemon), and (under chaos)
            ``chaos.jsonl`` are written there for
            :func:`repro.obs.stitch`; overrides ``tracer``.

    Raises:
        SimulationError: the scenario declares co-publishers (see
            :meth:`~repro.net.Scenario.refuse_co_publishers`).
    """
    scenario.refuse_co_publishers()
    return asyncio.run(
        _run(
            scenario,
            deltas=deltas,
            journal_dir=journal_dir,
            time_scale=time_scale,
            use_chaos=use_chaos,
            max_queue=max_queue,
            ack_timeout=ack_timeout,
            anti_entropy_limit=anti_entropy_limit,
            node_cap=node_cap,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics,
            trace_dir=trace_dir,
        )
    )


async def _run(
    scenario: Scenario,
    deltas: bool,
    journal_dir: str | Path | None,
    time_scale: float,
    use_chaos: bool,
    max_queue: int,
    ack_timeout: float,
    anti_entropy_limit: int,
    node_cap: int | None,
    tracer: Tracer,
    metrics: MetricsRegistry | None,
    trace_dir: str | Path | None = None,
) -> NetdReport:
    owns_journal_dir = journal_dir is None
    if owns_journal_dir:
        journal_dir = tempfile.mkdtemp(prefix=f"repro-netd-{scenario.name}-")
    journal_dir = Path(journal_dir)
    journal_dir.mkdir(parents=True, exist_ok=True)
    # Unix socket paths live in their own short-lived directory: journal
    # dirs (pytest tmp paths) can exceed the ~100-char sun_path limit.
    socket_dir = Path(tempfile.mkdtemp(prefix="repro-mesh-"))
    log: list[str] = []
    virtual_now = 0.0

    # One tracer per component when trace_dir is set: each writes its own
    # JSONL lane, and the files stitch into one timeline because every
    # lane shares this process's perf_counter clock.
    lane_tracers: dict[str, Tracer] = {}
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        lane_tracers["publisher"] = Tracer()
        lane_tracers["daemon"] = Tracer()
        if use_chaos:
            lane_tracers["chaos"] = Tracer()
    publisher_tracer = lane_tracers.get("publisher", tracer)
    daemon_tracer = lane_tracers.get("daemon", tracer)
    chaos_tracer = lane_tracers.get("chaos", tracer)

    def note(text: str) -> None:
        log.append(f"t={virtual_now:07.3f} {text}")

    feed = scenario.publisher
    socket_of = {peer: str(socket_dir / f"{peer}.sock") for peer in scenario.peers}

    proxies: dict[tuple[str, str], ChaosProxy] = {}
    daemons: dict[str, SyncDaemon] = {}
    clients: dict[str, PublisherClient] = {}
    crashed: set[str] = set()
    groups: tuple[frozenset[str], ...] | None = None
    scorer = PeerScorer(metrics=metrics, prefix="netd")

    def link_address(sender: str, recipient: str):
        proxy = proxies.get((sender, recipient))
        return proxy.address if proxy is not None else socket_of[recipient]

    try:
        # Chaos proxies first: relay configs point at them.  Every link
        # gets one under chaos (schedule may be None — the proxy still
        # enforces partitions); clean runs dial daemons directly.
        if use_chaos:
            for link in scenario.relay_links:
                proxy = ChaosProxy(
                    upstream=socket_of[link.recipient],
                    schedule=scenario.faults.get((link.sender, link.recipient)),
                    latency=scenario.latency,
                    reorder_delay=scenario.reorder_delay,
                    time_scale=time_scale,
                    tracer=chaos_tracer,
                    metrics=metrics,
                )
                await proxy.start()
                proxies[(link.sender, link.recipient)] = proxy
        for peer in scenario.peers:
            downstream = [
                (link.recipient, link_address(peer, link.recipient))
                for link in scenario.downstream(peer, feed)
            ]
            daemon = SyncDaemon(
                scenario.setting,
                [peer],
                listen=socket_of[peer],
                journal_dir=journal_dir / peer,
                pinned=(
                    {peer: scenario.pinned[peer]}
                    if peer in scenario.pinned else None
                ),
                node_cap=node_cap,
                heartbeat_interval=5.0,
                idle_timeout=60.0,
                max_queue=max_queue,
                tracer=daemon_tracer,
                metrics=metrics,
                relays={peer: downstream} if downstream else None,
            )
            await daemon.start()
            daemons[peer] = daemon
            note(f"daemon {peer} serving {socket_of[peer]}")
        for link in scenario.downstream(feed, feed):
            client = PublisherClient(
                link_address(feed, link.recipient),
                link.recipient,
                sender=feed,
                deltas=deltas,
                retry=RetryPolicy(
                    max_attempts=3,
                    base_delay=0.02,
                    max_delay=0.1,
                    seed=scenario.seed,
                ),
                max_queue=max_queue,
                ack_timeout=ack_timeout,
                heartbeat_interval=1.0,
                tracer=publisher_tracer,
                metrics=metrics,
            )
            await client.start()
            clients[link.recipient] = client

        # ---- the timeline, in simulator order
        epoch, seq = 1, 0
        published_stamps: list[Stamp] = []
        latest_stamp: Stamp | None = None
        latest_snapshot: Instance | None = None

        def apply_partition() -> None:
            for (sender, recipient), proxy in proxies.items():
                if connected(groups, sender, recipient):
                    proxy.heal()
                else:
                    proxy.partition()

        for at, item in scenario.timeline():
            if at > virtual_now:
                await asyncio.sleep((at - virtual_now) * time_scale)
                virtual_now = at
            if isinstance(item, int):
                snapshot = scenario.snapshots[item]
                seq += 1
                stamp = Stamp(epoch, seq)
                latest_stamp, latest_snapshot = stamp, snapshot
                published_stamps.append(stamp)
                note(f"publish stamp={stamp} facts={len(snapshot)}")
                for client in clients.values():
                    await client.offer(stamp, snapshot)
            elif isinstance(item, Partition):
                rendered = [",".join(sorted(group)) for group in item.groups]
                note(f"partition {'|'.join(rendered)}")
                groups = item.groups
                apply_partition()
            elif isinstance(item, Heal):
                note("heal")
                groups = None
                apply_partition()
            elif isinstance(item, Crash):
                note(f"crash {item.peer}")
                daemons[item.peer].crash_peer(item.peer)
                crashed.add(item.peer)
            elif isinstance(item, Restart):
                daemon = daemons[item.peer]
                daemon.restart_peer(item.peer)
                crashed.discard(item.peer)
                note(f"restart {item.peer} stamp={daemon.watermark(item.peer)}")
            elif isinstance(item, BumpEpoch):
                epoch += 1
                seq = 0
                for client in clients.values():
                    client.rebase()
                note(f"epoch-bump epoch={epoch}")

        # ---- quiescence: drain the publisher, then let forwards settle
        for client in clients.values():
            await client.drain(timeout=30.0)
        await _settle(daemons)
        note("quiescent")

        # Fold the publisher's own link outcomes into the mesh scorer so
        # repair ranking sees first-hop health too.
        for peer, client in clients.items():
            for outcome in client.outcomes.values():
                scorer.record((feed, peer), outcome.replace("-", "_"))

        def link_score(sender: str, recipient: str) -> float:
            if sender in daemons:
                return daemons[sender].scorer.score((sender, recipient))
            return scorer.score((sender, recipient))

        # ---- path-aware anti-entropy: repair each lagging peer from its
        # healthiest caught-up upstream neighbor, cascading hop by hop.
        reachable = scenario.reachable(crashed, groups)
        anti_entropy = 0
        if latest_snapshot is not None:
            for round_number in range(1, anti_entropy_limit + 1):
                lagging = [
                    peer
                    for peer in scenario.peers
                    if peer in reachable
                    and _behind(daemons[peer].watermark(peer), latest_stamp)
                ]
                if not lagging:
                    break
                repaired_any = False
                for peer in lagging:
                    # A relay can repair once caught up; a crashed one has
                    # no watermark, so it is behind.
                    candidates = [
                        link.sender
                        for link in scenario.upstreams(peer, feed)
                        if connected(groups, link.sender, peer)
                        and (
                            link.sender == feed
                            or not _behind(
                                daemons[link.sender].watermark(link.sender),
                                latest_stamp,
                            )
                        )
                    ]
                    if not candidates:
                        continue
                    upstream = min(
                        candidates,
                        key=lambda sender: (-link_score(sender, peer), sender),
                    )
                    if upstream == feed:
                        payload_snapshot = latest_snapshot
                    else:
                        payload_snapshot = daemons[upstream].peer_source(upstream)
                        if payload_snapshot is None:
                            continue
                    anti_entropy += 1
                    repaired_any = True
                    if metrics is not None:
                        metrics.counter("netd.anti_entropy").inc()
                    repair = PublisherClient(
                        socket_of[peer],
                        peer,
                        sender=upstream,
                        ack_timeout=max(1.0, ack_timeout),
                        tracer=publisher_tracer,
                        metrics=metrics,
                    )
                    await repair.start()
                    outcome = await repair.publish(latest_stamp, payload_snapshot)
                    await repair.close()
                    scorer.record((upstream, peer), outcome.replace("-", "_"))
                    note(
                        f"anti-entropy round={round_number} peer={peer} "
                        f"via={upstream} stamp={latest_stamp} -> {outcome}"
                    )
                if not repaired_any:
                    break

        # ---- collect final states and judge with the shared oracle
        states: dict[str, Instance] = {}
        unreachable: list[str] = []
        watermarks: dict[str, Stamp | None] = {}
        for peer in scenario.peers:
            watermarks[peer] = daemons[peer].watermark(peer)
            if peer in reachable:
                states[peer] = daemons[peer].peer_state(peer)
            else:
                unreachable.append(peer)
        convergence = check_convergence(
            scenario, states, unreachable,
            watermarks=watermarks, published=published_stamps,
        )
        note(
            "convergence "
            + (
                " ".join(
                    f"{name}={'ok' if ok else 'DIVERGED'}"
                    for name, ok in sorted(convergence.peers.items())
                )
                if convergence.peers
                else "vacuous (no reachable peers)"
            )
        )

        stats: dict[str, int] = {"anti_entropy": anti_entropy}
        for client in clients.values():
            for key, value in client.stats.items():
                stats[key] = stats.get(key, 0) + value
        for proxy in proxies.values():
            for key, value in proxy.stats.items():
                stats[f"chaos_{key}"] = stats.get(f"chaos_{key}", 0) + value
        for daemon in daemons.values():
            stats["forwarded"] = stats.get("forwarded", 0) + daemon.stats["forwarded"]
            for host in daemon.hosts.values():
                for key, value in host.stats.items():
                    stats[f"daemon_{key}"] = stats.get(f"daemon_{key}", 0) + value

        scores = scorer.snapshot()
        for daemon in daemons.values():
            scores.update(daemon.scorer.snapshot())

        # Orderly teardown *inside* the run so the report can record
        # whether every daemon drained cleanly (the finally below is an
        # idempotent safety net for the exception paths).
        drained = True
        for client in clients.values():
            await client.close(bye=True)
        for daemon in daemons.values():
            drained = await daemon.stop(drain=True) and drained
        note(f"daemons stopped drained={drained}")

        trace_files = _write_lanes(lane_tracers, trace_dir)
        for label, path in trace_files.items():
            note(f"trace lane {label} -> {path}")

        return NetdReport(
            scenario=scenario.name,
            seed=scenario.seed,
            published=len(published_stamps),
            final_stamp=latest_stamp,
            states=states,
            unreachable=unreachable,
            stats=stats,
            convergence=convergence,
            drained=drained,
            log=log,
            trace_files=trace_files,
            postmortems=list(
                dict.fromkeys(
                    path for daemon in daemons.values() for path in daemon.postmortems
                )
            ),
            scores=scores,
        )
    finally:
        for client in clients.values():
            await client.close(bye=False)
        for proxy in proxies.values():
            await proxy.stop()
        for daemon in daemons.values():
            await daemon.stop(drain=False)
        _write_lanes(lane_tracers, trace_dir)
        shutil.rmtree(socket_dir, ignore_errors=True)
        if owns_journal_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)


async def _settle(daemons: dict[str, SyncDaemon], deadline: float = 5.0) -> None:
    """Wait for relay forwards to stop propagating (watermarks stable).

    The publisher's drain only covers first-hop deliveries; forwarded
    rounds are still in flight down the graph.  Settling = every
    daemon's relay queues empty and no watermark moved for a few ticks.
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    last: tuple = ()
    stable = 0
    while loop.time() < end:
        snapshot = tuple(
            (peer, daemon.watermark(peer)) for peer, daemon in sorted(daemons.items())
        )
        busy = any(
            not queue.empty()
            for daemon in daemons.values()
            for queue in daemon._relay_queues.values()
        )
        if snapshot == last and not busy:
            stable += 1
            if stable >= 3:
                return
        else:
            stable = 0
        last = snapshot
        await asyncio.sleep(0.05)


def _write_lanes(
    lane_tracers: dict[str, Tracer], trace_dir: str | Path | None
) -> dict[str, Path]:
    """Write one JSONL trace file per component lane (idempotent)."""
    if trace_dir is None or not lane_tracers:
        return {}
    trace_files: dict[str, Path] = {}
    for label, lane in lane_tracers.items():
        path = Path(trace_dir) / f"{label}.jsonl"
        write_trace_jsonl(lane, path)
        trace_files[label] = path
    return trace_files


def _behind(watermark: Stamp | None, latest: Stamp | None) -> bool:
    if latest is None:
        return False
    return watermark is None or watermark < latest
