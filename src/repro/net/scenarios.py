"""Scripted network scenarios: timelines of publishes, faults, and events.

A :class:`Scenario` is a fully deterministic description of one
simulation: the PDE setting, the publisher's snapshot sequence, the
subscriber peers, per-link :class:`~repro.runtime.FaultSchedule`\\ s, and
a timeline of control events (:class:`Partition` / :class:`Heal` /
:class:`Crash` / :class:`Restart` / :class:`BumpEpoch`).  Builders take
a ``seed`` and derive every random choice from it, so a scenario value
is replayable by construction.

Shipped scenarios (see :func:`scenario_registry`):

* ``registry`` — a small key/value registry mirrored to three peers
  under drops, duplicates, reordering, and one partition/heal.  The
  default of ``repro.cli simulate``.
* ``genomics`` — the paper's Swiss-Prot feed
  (:func:`repro.workloads.generate_genomics_feed`) mirrored to three
  university peers over a lossy network.
* ``genomics-churn`` — a larger, longer Swiss-Prot feed with low churn
  over mildly lossy links: the periodic-re-ingestion workload delta
  transfer (``simulate --delta``) exists to optimize.
* ``crash`` — the registry scenario plus one journal-backed peer crashing
  mid-simulation and resuming two publishes later.
* ``relay-chain`` — a 3-hop relay chain (origin→relay-a→relay-b→leaf)
  with per-hop faults and a tail partition; only the first relay hears
  the publisher directly.
* ``relay-mesh`` — a diamond mesh whose lossy path is score-downgraded
  so catch-up re-routes through the healthy hub.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.instance import Instance
from repro.core.parser import parse_instance
from repro.core.setting import PDESetting
from repro.exceptions import SimulationError
from repro.runtime.faults import FaultSchedule
from repro.workloads.scenarios import generate_genomics_feed, genomics_setting

__all__ = [
    "BumpEpoch",
    "Crash",
    "Heal",
    "Partition",
    "REPAIR_RULES",
    "RelayLink",
    "Restart",
    "Scenario",
    "connected",
    "crash_scenario",
    "genomics_churn_scenario",
    "genomics_scenario",
    "registry_scenario",
    "registry_setting",
    "relay_chain_scenario",
    "relay_mesh_scenario",
    "scenario_registry",
]


# ----------------------------------------------------------------------
# timeline events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Split the network into isolated groups at virtual time ``at``."""

    at: float
    groups: tuple[frozenset[str], ...]

    def __init__(self, at: float, *groups: object) -> None:
        object.__setattr__(self, "at", at)
        object.__setattr__(
            self, "groups", tuple(frozenset(group) for group in groups)
        )


@dataclass(frozen=True)
class Heal:
    """Restore full connectivity at virtual time ``at``."""

    at: float


@dataclass(frozen=True)
class Crash:
    """Kill ``peer`` at virtual time ``at`` (in-memory state is lost)."""

    at: float
    peer: str


@dataclass(frozen=True)
class Restart:
    """Bring ``peer`` back at virtual time ``at`` (journal resume)."""

    at: float
    peer: str


@dataclass(frozen=True)
class BumpEpoch:
    """The publisher restarts at ``at``: epoch increments, seq resets."""

    at: float


#: Every control-event type a scenario timeline may contain.
NetworkEvent = Partition | Heal | Crash | Restart | BumpEpoch


def connected(
    groups: tuple[frozenset[str], ...] | None, a: str, b: str
) -> bool:
    """Can ``a`` reach ``b`` under the partition ``groups``?

    The one partition rule every runner and the linter share: None means
    healed, and peers named in no group form an implicit remainder group
    together.
    """
    if groups is None or a == b:
        return True
    group_of_a = group_of_b = None
    for group in groups:
        if a in group:
            group_of_a = group
        if b in group:
            group_of_b = group
    # Unnamed peers share the implicit remainder group (both None).
    return group_of_a is group_of_b


# ----------------------------------------------------------------------
# relay topology
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelayLink:
    """One directed edge of a relay topology.

    ``sender`` pushes stamped snapshots to ``recipient``; ``recipient``
    in turn forwards what it applies down its own out-links.  ``custody``
    names the feeds (publisher names) this link is responsible for
    carrying — empty means *all* feeds, which is the common case while
    the runtime has a single publisher per scenario.
    """

    sender: str
    recipient: str
    custody: frozenset[str] = frozenset()

    def __init__(
        self, sender: str, recipient: str, custody: object = ()
    ) -> None:
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "recipient", recipient)
        object.__setattr__(self, "custody", frozenset(custody))

    def carries(self, feed: str) -> bool:
        """Whether this link has custody of ``feed`` (empty = all feeds)."""
        return not self.custody or feed in self.custody

#: The repair rules the trust-ordered merge semantics define (cf.
#: *Exchange-Repairs*, ten Cate et al.): what happens when a merge of
#: equally-trusted facts still violates a Σ_t egd.
REPAIR_RULES = ("prefer-trusted", "drop-conflicts", "reject-publish")


# ----------------------------------------------------------------------
# the scenario value
# ----------------------------------------------------------------------


@dataclass
class Scenario:
    """One deterministic simulation script.

    Attributes:
        name: registry name (also the default journal-file prefix).
        description: one-line human description.
        setting: the PDE setting every peer syncs under.
        snapshots: the publisher's authoritative snapshots, in publish
            order; snapshot ``i`` publishes at ``i * interval``.
        peers: subscriber peer names (the publisher is not a peer).
        publisher: the publishing peer's network name.
        interval: virtual seconds between publishes.
        latency: base link latency handed to the transport.
        reorder_delay: extra latency a reordered message suffers; must
            exceed ``interval`` for reordering to actually overtake the
            next publish (None keeps the transport default, ``4 *
            latency``).
        faults: per directed link ``(sender, recipient)``, the
            :class:`~repro.runtime.FaultSchedule` afflicting it.
        events: control events, any order (:meth:`timeline` sorts by
            time).
        pinned: optional per-peer pinned facts.
        seed: the seed the builder derived the scenario from (recorded
            for reports; all randomness is already baked in).
        co_publishers: additional publishers for the *same* setting.
            Declarative for now: both network runners refuse
            multi-publisher scenarios (:meth:`refuse_co_publishers`)
            until the trust-ordered merge lands, but
            :func:`repro.analysis.analyze_scenario` already checks the
            declaration (PDE4xx).
        trust: the trust order over publishers, most-trusted first — the
            Bertossi–Bravo resolution for equal stamps issued by
            different publishers.
        repair: the fallback when a trust-ordered merge still violates
            Σ_t egds; one of :data:`REPAIR_RULES` (empty = undeclared).
        topology: directed :class:`RelayLink` edges forming the relay
            graph.  Empty means the legacy star (the publisher feeds
            every peer directly); non-empty means publishes flow only
            along declared links and peers forward what they apply.
    """

    name: str
    description: str
    setting: PDESetting
    snapshots: list[Instance]
    peers: list[str]
    publisher: str = "origin"
    interval: float = 1.0
    latency: float = 0.05
    reorder_delay: float | None = None
    faults: Mapping[tuple[str, str], FaultSchedule] = field(default_factory=dict)
    events: list[NetworkEvent] = field(default_factory=list)
    pinned: Mapping[str, Instance] = field(default_factory=dict)
    seed: int = 0
    co_publishers: tuple[str, ...] = ()
    trust: tuple[str, ...] = ()
    repair: str = ""
    topology: tuple[RelayLink, ...] = ()

    def __post_init__(self) -> None:
        self.co_publishers = tuple(self.co_publishers)
        self.trust = tuple(self.trust)
        self.topology = tuple(self.topology)
        if not self.snapshots:
            raise SimulationError(f"scenario {self.name!r} publishes nothing")
        if not self.peers:
            raise SimulationError(f"scenario {self.name!r} has no peers")
        for name in self.co_publishers:
            if name in self.peers or name == self.publisher:
                raise SimulationError(
                    f"scenario {self.name!r}: co-publisher {name!r} is "
                    "already a peer or the primary publisher"
                )
        if self.publisher in self.peers:
            raise SimulationError(
                f"scenario {self.name!r}: publisher {self.publisher!r} cannot "
                "also be a subscriber peer"
            )
        known = set(self.peers) | {self.publisher}
        for event in self.events:
            peer = getattr(event, "peer", None)
            if peer is not None and peer not in self.peers:
                raise SimulationError(
                    f"scenario {self.name!r}: event {event} references unknown "
                    f"peer {peer!r}"
                )
        for link in self.faults:
            for end in link:
                if end not in known:
                    raise SimulationError(
                        f"scenario {self.name!r}: fault link {link} references "
                        f"unknown peer {end!r}"
                    )
        seen_edges: set[tuple[str, str]] = set()
        for relay in self.topology:
            if relay.sender not in known:
                raise SimulationError(
                    f"scenario {self.name!r}: relay link {relay.sender!r}->"
                    f"{relay.recipient!r} has unknown sender"
                )
            if relay.recipient not in self.peers:
                raise SimulationError(
                    f"scenario {self.name!r}: relay link {relay.sender!r}->"
                    f"{relay.recipient!r} must end at a subscriber peer"
                )
            if relay.sender == relay.recipient:
                raise SimulationError(
                    f"scenario {self.name!r}: relay link {relay.sender!r} "
                    "loops onto itself"
                )
            edge = (relay.sender, relay.recipient)
            if edge in seen_edges:
                raise SimulationError(
                    f"scenario {self.name!r}: duplicate relay link "
                    f"{relay.sender!r}->{relay.recipient!r}"
                )
            seen_edges.add(edge)
            for feed in relay.custody:
                if feed not in self.publishers:
                    raise SimulationError(
                        f"scenario {self.name!r}: relay link {relay.sender!r}->"
                        f"{relay.recipient!r} claims custody of unknown feed "
                        f"{feed!r}"
                    )

    @property
    def duration(self) -> float:
        """Virtual time of the last publish."""
        return (len(self.snapshots) - 1) * self.interval

    @property
    def publishers(self) -> tuple[str, ...]:
        """Every declared publisher, primary first."""
        return (self.publisher, *self.co_publishers)

    @property
    def relay_links(self) -> tuple[RelayLink, ...]:
        """The effective relay graph: the declared topology, or the
        derived star (publisher → every peer) when none is declared."""
        if self.topology:
            return self.topology
        return tuple(RelayLink(self.publisher, peer) for peer in self.peers)

    def downstream(self, name: str, feed: str | None = None) -> tuple[RelayLink, ...]:
        """Out-links of ``name`` (optionally only those carrying ``feed``)."""
        return tuple(
            link
            for link in self.relay_links
            if link.sender == name and (feed is None or link.carries(feed))
        )

    def upstreams(self, name: str, feed: str | None = None) -> tuple[RelayLink, ...]:
        """In-links of ``name`` (optionally only those carrying ``feed``)."""
        return tuple(
            link
            for link in self.relay_links
            if link.recipient == name and (feed is None or link.carries(feed))
        )

    def reachable(
        self,
        crashed: Iterable[str] = (),
        groups: tuple[frozenset[str], ...] | None = None,
    ) -> set[str]:
        """Peers a custody-carrying live path connects to the publisher.

        Breadth-first over :attr:`relay_links`: an edge is traversable
        when it carries the publisher's feed, its recipient is not in
        ``crashed``, and the partition ``groups`` (see :func:`connected`)
        does not sever its ends.  On the derived star this is every live
        peer in the publisher's group; with no crashes and no partition
        it is the fault-free custody reachability.
        """
        feed = self.publisher
        down = set(crashed)
        seen = {feed}
        frontier = deque([feed])
        while frontier:
            current = frontier.popleft()
            for link in self.downstream(current, feed):
                nxt = link.recipient
                if nxt in seen or nxt in down or not connected(groups, current, nxt):
                    continue
                seen.add(nxt)
                frontier.append(nxt)
        seen.discard(feed)
        return seen

    def timeline(self) -> list[tuple[float, int | NetworkEvent]]:
        """Publishes and control events in run order, as ``(at, item)``.

        ``item`` is a snapshot index for a publish (snapshot ``i`` at
        ``i * interval``) or the control event itself.  At equal
        instants control events come first, so a partition or crash
        that coincides with a publish applies before it; within a kind,
        list order holds.
        """
        controls = [
            (event.at, 0, order, event) for order, event in enumerate(self.events)
        ]
        publishes = [
            (index * self.interval, 1, index, index)
            for index in range(len(self.snapshots))
        ]
        ordered = sorted(controls + publishes, key=lambda entry: entry[:3])
        return [(at, item) for at, _kind, _order, item in ordered]

    def refuse_co_publishers(self) -> None:
        """Raise :class:`~repro.exceptions.SimulationError` on co-publishers.

        The multi-publisher merge (trust-ordered, see ``co_publishers``)
        is declarative only: both network runners call this before they
        start, rather than silently run the primary publisher alone.
        """
        if self.co_publishers:
            raise SimulationError(
                f"scenario {self.name!r} declares co-publishers "
                f"{self.co_publishers}; no network runner implements the "
                "trust-ordered merge yet (lint checks the declaration with "
                "the PDE4xx rules)"
            )


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def registry_setting() -> PDESetting:
    """The tiny key/value registry PDE used by the shipped scenarios."""
    return PDESetting.from_text(
        source={"reg": 2},
        target={"db": 2},
        st="reg(k, v) -> db(k, v)",
        ts="db(k, v) -> reg(k, v)",
        name="registry",
    )


def _registry_snapshots() -> list[Instance]:
    """Six authoritative registry snapshots with adds and withdrawals."""
    return [
        parse_instance(text)
        for text in (
            "reg(a, 1)",
            "reg(a, 1); reg(b, 2)",
            "reg(a, 1); reg(b, 2); reg(c, 3)",
            "reg(b, 2); reg(c, 3); reg(d, 4)",  # a withdrawn
            "reg(b, 2); reg(c, 3); reg(d, 4); reg(e, 5)",
            "reg(c, 3); reg(d, 4); reg(e, 5); reg(f, 6)",  # b withdrawn
        )
    ]


def _lossy_links(
    publisher: str, peers: list[str], seed: int,
    drop: float, duplicate: float, reorder: float,
) -> dict[tuple[str, str], FaultSchedule]:
    """One seeded schedule per publisher→peer link, seeds derived per link."""
    return {
        (publisher, peer): FaultSchedule.seeded(
            seed=seed * 1000 + offset,
            drop=drop, duplicate=duplicate, reorder=reorder,
        )
        for offset, peer in enumerate(peers)
    }


def registry_scenario(seed: int = 0) -> Scenario:
    """Three registry mirrors under every fault class plus one partition.

    Links drop, duplicate, and reorder at seeded rates; between the third
    and fifth publish, ``peer-c`` is partitioned away from the publisher
    and must catch up through anti-entropy after the heal.
    """
    peers = ["peer-a", "peer-b", "peer-c"]
    publisher = "origin"
    return Scenario(
        name="registry",
        description=(
            "3 registry mirrors; seeded drop/dup/reorder on every link; "
            "peer-c partitioned for 2 publishes, then healed"
        ),
        setting=registry_setting(),
        snapshots=_registry_snapshots(),
        peers=peers,
        publisher=publisher,
        # A reordered message overtakes the next publish: 1.2 > interval.
        reorder_delay=1.2,
        faults=_lossy_links(
            publisher, peers, seed, drop=0.25, duplicate=0.25, reorder=0.25
        ),
        events=[
            Partition(2.5, {publisher, "peer-a", "peer-b"}, {"peer-c"}),
            Heal(4.5),
        ],
        seed=seed,
    )


def genomics_scenario(seed: int = 0) -> Scenario:
    """The Swiss-Prot feed mirrored to three universities over a lossy net."""
    peers = ["uni-basel", "uni-geneva", "uni-zurich"]
    publisher = "swissprot"
    return Scenario(
        name="genomics",
        description=(
            "5-round Swiss-Prot feed (adds + curation withdrawals) to 3 "
            "university mirrors; lossy links; one mid-feed partition"
        ),
        setting=genomics_setting(),
        snapshots=generate_genomics_feed(rounds=5, proteins=8, seed=seed),
        peers=peers,
        publisher=publisher,
        reorder_delay=1.2,
        faults=_lossy_links(
            publisher, peers, seed, drop=0.2, duplicate=0.2, reorder=0.2
        ),
        events=[
            Partition(1.5, {publisher, "uni-basel", "uni-geneva"}, {"uni-zurich"}),
            Heal(3.5),
        ],
        seed=seed,
    )


def genomics_churn_scenario(seed: int = 0) -> Scenario:
    """A large, low-churn Swiss-Prot feed: the delta-transfer showcase.

    Models the paper's periodic re-ingestion at production shape: each
    interval the authority re-publishes a big mostly-unchanged snapshot
    (32 proteins, ~12% churn per round, 8 rounds) over links with mild
    real-world fault rates.  Full state transfer re-ships every fact
    every round; ``NetworkSimulator(..., deltas=True)`` ships only the
    churn, so this scenario is where the facts-on-wire reduction is
    measured (``benchmarks/bench_net.py``).
    """
    peers = ["uni-basel", "uni-geneva", "uni-zurich"]
    publisher = "swissprot"
    return Scenario(
        name="genomics-churn",
        description=(
            "8-round, 32-protein Swiss-Prot feed (~12% churn/round) to 3 "
            "mirrors over mildly lossy links; the delta-transfer workload"
        ),
        setting=genomics_setting(),
        snapshots=generate_genomics_feed(
            rounds=8, proteins=32, churn=0.12, seed=seed
        ),
        peers=peers,
        publisher=publisher,
        reorder_delay=1.2,
        faults=_lossy_links(
            publisher, peers, seed, drop=0.05, duplicate=0.05, reorder=0.05
        ),
        seed=seed,
    )


def crash_scenario(seed: int = 0) -> Scenario:
    """The registry scenario plus a journal-backed crash and resume.

    ``peer-b`` dies just after the third publish and restarts after the
    fifth; with a journal directory the restart resumes from the last
    committed round, and redeliveries replay as stale no-ops.
    """
    scenario = registry_scenario(seed)
    scenario.name = "crash"
    scenario.description = (
        scenario.description + "; peer-b crashes at t=2.6 and restarts at t=4.6"
    )
    scenario.events = list(scenario.events) + [
        Crash(2.6, "peer-b"),
        Restart(4.6, "peer-b"),
    ]
    return scenario


def relay_chain_scenario(seed: int = 0) -> Scenario:
    """A 3-hop relay chain: ``origin → relay-a → relay-b → leaf``.

    Only ``relay-a`` hears the publisher directly; every other peer
    receives state forwarded by its upstream relay.  Each hop drops and
    duplicates at seeded rates, and the tail of the chain is partitioned
    away for two publishes — path-aware anti-entropy must walk the chain
    to repair it, because the origin is never directly reachable from
    ``leaf``.
    """
    publisher = "origin"
    peers = ["relay-a", "relay-b", "leaf"]
    links = [(publisher, "relay-a"), ("relay-a", "relay-b"), ("relay-b", "leaf")]
    return Scenario(
        name="relay-chain",
        description=(
            "3-hop relay chain (origin→relay-a→relay-b→leaf); seeded "
            "drop/dup per hop; tail partitioned for 2 publishes, then healed"
        ),
        setting=registry_setting(),
        snapshots=_registry_snapshots(),
        peers=peers,
        publisher=publisher,
        faults={
            link: FaultSchedule.seeded(
                seed=seed * 1000 + offset, drop=0.2, duplicate=0.2
            )
            for offset, link in enumerate(links)
        },
        events=[
            Partition(2.5, {publisher, "relay-a", "relay-b"}, {"leaf"}),
            Heal(4.5),
        ],
        topology=tuple(RelayLink(sender, recipient) for sender, recipient in links),
        seed=seed,
    )


def relay_mesh_scenario(seed: int = 0) -> Scenario:
    """A diamond mesh with one lossy path: the peer-scoring showcase.

    ``origin`` feeds two hubs; both hubs feed ``leaf``.  The ``hub-a``
    path drops most traffic, so its per-link score sinks while the clean
    ``hub-b`` path stays healthy — catch-up for ``leaf`` re-routes
    through ``hub-b`` (``net.score.*`` gauges make the ranking visible).
    """
    publisher = "origin"
    peers = ["hub-a", "hub-b", "leaf"]
    custody = frozenset({publisher})
    return Scenario(
        name="relay-mesh",
        description=(
            "diamond relay mesh (origin→{hub-a,hub-b}→leaf); the hub-a "
            "path drops heavily, so scoring re-routes catch-up via hub-b"
        ),
        setting=registry_setting(),
        snapshots=_registry_snapshots(),
        peers=peers,
        publisher=publisher,
        faults={
            ("hub-a", "leaf"): FaultSchedule.seeded(
                seed=seed * 1000 + 1, drop=0.6
            ),
        },
        topology=(
            RelayLink(publisher, "hub-a", custody),
            RelayLink(publisher, "hub-b", custody),
            RelayLink("hub-a", "leaf", custody),
            RelayLink("hub-b", "leaf", custody),
        ),
        seed=seed,
    )


def scenario_registry() -> dict[str, Callable[[int], Scenario]]:
    """The named scenario builders, keyed as the CLI spells them."""
    return {
        "registry": registry_scenario,
        "genomics": genomics_scenario,
        "genomics-churn": genomics_churn_scenario,
        "crash": crash_scenario,
        "relay-chain": relay_chain_scenario,
        "relay-mesh": relay_mesh_scenario,
    }
