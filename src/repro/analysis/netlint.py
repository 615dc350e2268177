"""Static analysis of network scenarios: the timeline abstract interpreter.

Where :mod:`repro.analysis.rules` lints the *setting* a peer network
syncs under, this module lints the *scenario* itself — the scripted
timeline of publishes, faults, and control events the
:class:`~repro.net.NetworkSimulator` will execute.  Instead of running
the simulation, :func:`analyze_scenario` symbolically executes the
merged (publish, control-event) timeline against an abstract per-peer
state and reports, before a single virtual second elapses, the schedule
mistakes that would make the run raise, prove nothing, or silently
exercise none of the machinery it was written to exercise.

The interpreter shares the simulator's rules rather than copying them:
it walks :meth:`repro.net.Scenario.timeline`, partitions go through
:func:`repro.net.scenarios.connected`, and reachability is
:meth:`repro.net.Scenario.reachable` — the same three definitions the
simulator and the socket harness call.  So:

* simultaneous timeline entries tie-break control events before
  publishes, and within a kind preserve list order;
* partitions drop at *send* time, with peers named in no group sharing
  an implicit remainder group; crashes drop at *delivery* time, so a
  crashed peer only *certainly* misses a publish when it stays down past
  the latest possible delivery (base latency plus whatever reorder /
  delay / duplicate lag the link's fault schedule could add);
* anti-entropy is reliable, so a lossy-but-connected link is a hygiene
  finding (``PDE305``), while a peer unreachable at quiescence makes the
  convergence check vacuous (``PDE304``) — an error, because the run
  would "pass" while verifying nothing;
* reachability is path-wise on every scenario (a star is the derived
  relay graph): the set behind ``PDE304`` is the simulator's own
  breadth-first search over custody-carrying links.  With a declared
  relay ``topology``, a live peer severed from every relay route is
  ``PDE310``, a directed relay cycle is ``PDE311`` (safe under stamp
  watermarks, but each lap is wasted wire traffic), and a custody
  assignment that statically starves a peer of the publisher's feed is
  ``PDE312`` — an error, since no amount of healing can deliver a feed
  no path carries.  Star-only arguments (``PDE307``'s overtake window
  and ``PDE308``'s certain-miss chain dooming) assume the publisher is
  adjacent and are skipped for declared topologies.

Timeline findings are the ``PDE3xx`` band; the ``PDE4xx`` band checks
the declarative multi-publisher merge contract (``co_publishers`` /
``trust`` / ``repair``) against the trust-ordered merge semantics of
Bertossi–Bravo and the Exchange-Repair rules of ten Cate et al.:
two publishers that can issue equal stamps for conflicting facts need a
declared trust order, and a merge under target egds needs a declared
repair rule.

Rules with an obvious remedy attach machine-applicable
:class:`~repro.analysis.fixes.Fix` values (``lint --fix`` applies them
to scenario JSON files).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.analysis.codes import CODES, ERROR, INFO, WARNING
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.engine import analyze, expand_ignore
from repro.analysis.fixes import Fix, JsonEdit
from repro.exceptions import ReproError
from repro.net.scenario_io import scenario_from_dict
from repro.net.scenarios import (
    REPAIR_RULES,
    BumpEpoch,
    Crash,
    Heal,
    Partition,
    Restart,
    Scenario,
    connected,
)
from repro.runtime.faults import FaultSchedule

__all__ = [
    "analyze_scenario",
    "analyze_scenario_dict",
    "analyze_scenario_text",
]


def _diag(
    code: str,
    severity: str,
    message: str,
    hint: str = "",
    fixes: tuple[Fix, ...] = (),
) -> Diagnostic:
    return Diagnostic(
        code, severity, message, rule=CODES[code].rule, hint=hint, fixes=fixes
    )


# ---------------------------------------------------------------------------
# fault-schedule predicates (abstract view of FaultSchedule.decide)
# ---------------------------------------------------------------------------


def _always_drops(schedule: FaultSchedule | None) -> bool:
    """Every send on this link is dropped, for any message index."""
    return schedule is not None and schedule.drop_rate >= 1.0


def _may_reorder(schedule: FaultSchedule | None) -> bool:
    return schedule is not None and (
        schedule.reorder_rate > 0 or bool(schedule.reorder)
    )


def _may_duplicate(schedule: FaultSchedule | None) -> bool:
    return schedule is not None and (
        schedule.duplicate_rate > 0 or bool(schedule.duplicate)
    )


def _may_delay(schedule: FaultSchedule | None) -> bool:
    return schedule is not None and (
        schedule.delay_rate > 0 or bool(schedule.delay)
    )


def _may_drop(schedule: FaultSchedule | None) -> bool:
    return schedule is not None and (
        schedule.drop_rate > 0 or bool(schedule.drop)
    )


def _fault_free(schedule: FaultSchedule | None) -> bool:
    """No fault of any class can occur on this link."""
    return not (
        _may_drop(schedule)
        or _may_duplicate(schedule)
        or _may_reorder(schedule)
        or _may_delay(schedule)
    )


# ---------------------------------------------------------------------------
# relay-topology predicates (PDE31x)
# ---------------------------------------------------------------------------


def _relay_cycle(scenario: Scenario) -> tuple[str, ...] | None:
    """A directed cycle in the declared topology (closed path), or None."""
    adjacency: dict[str, list[str]] = {}
    for link in scenario.topology:
        adjacency.setdefault(link.sender, []).append(link.recipient)
    state: dict[str, int] = {}  # 0 unvisited, 1 on path, 2 done
    path: list[str] = []

    def visit(node: str) -> tuple[str, ...] | None:
        state[node] = 1
        path.append(node)
        for succ in sorted(adjacency.get(node, ())):
            if state.get(succ, 0) == 1:
                return tuple(path[path.index(succ):]) + (succ,)
            if state.get(succ, 0) == 0:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for name in sorted(adjacency):
        if state.get(name, 0) == 0:
            cycle = visit(name)
            if cycle is not None:
                return cycle
    return None


# ---------------------------------------------------------------------------
# the timeline interpreter (PDE3xx)
# ---------------------------------------------------------------------------

def _latest_delivery(
    at: float,
    schedule: FaultSchedule | None,
    latency: float,
    reorder_delay: float,
) -> float:
    """Latest virtual time any copy of a message sent at ``at`` can arrive.

    Base latency, plus the reorder penalty, scheduled delay, and the
    duplicate's retransmit lag (``latency / 2``) whenever the link's
    schedule could apply them.  A peer crashed through this whole window
    has *certainly* missed the message: every delivery attempt hits a
    crashed node and is dropped.
    """
    latest = at + latency
    if _may_reorder(schedule):
        latest += reorder_delay
    if _may_delay(schedule):
        latest += schedule.max_delay
    if _may_duplicate(schedule):
        latest += latency / 2
    return latest


def _timeline_rules(scenario: Scenario, deltas: bool) -> list[Diagnostic]:
    """Abstractly interpret the scenario timeline; emit PDE3xx findings."""
    diagnostics: list[Diagnostic] = []
    publisher = scenario.publisher
    peers = list(scenario.peers)
    topology = bool(scenario.topology)
    latency = scenario.latency
    interval = scenario.interval
    reorder_delay = (
        scenario.reorder_delay
        if scenario.reorder_delay is not None
        else 4 * latency
    )
    n_publishes = len(scenario.snapshots)

    # Restart times per peer, for the crash certain-miss window.  Invalid
    # restarts (PDE303) never take effect at runtime, but including them
    # here only makes the miss analysis more conservative.
    restart_times: dict[str, list[float]] = {peer: [] for peer in peers}
    for event in scenario.events:
        if isinstance(event, Restart) and event.peer in restart_times:
            restart_times[event.peer].append(event.at)
    for times in restart_times.values():
        times.sort()

    timeline = scenario.timeline()

    # Abstract state.
    groups: tuple[frozenset[str], ...] | None = None
    partition_since: float | None = None
    crashed: dict[str, float] = {}
    pending_bump: float | None = None
    epoch_starts: set[int] = {0}
    certain_missed: dict[str, set[int]] = {peer: set() for peer in peers}

    for at, item in timeline:
        if not isinstance(item, int):
            event = item
            if isinstance(event, Partition):
                groups = event.groups
                partition_since = at
            elif isinstance(event, Heal):
                groups = None
                partition_since = None
            elif isinstance(event, Crash):
                if event.peer in crashed:
                    diagnostics.append(
                        _diag(
                            "PDE303",
                            ERROR,
                            f"Crash(at={event.at}, peer={event.peer!r}) hits a "
                            f"peer already crashed at t={crashed[event.peer]}; "
                            "the simulator raises SimulationError here",
                            hint="restart the peer before crashing it again",
                        )
                    )
                else:
                    crashed[event.peer] = at
            elif isinstance(event, Restart):
                if event.peer not in crashed:
                    diagnostics.append(
                        _diag(
                            "PDE303",
                            ERROR,
                            f"Restart(at={event.at}, peer={event.peer!r}) hits "
                            "a peer that is not crashed; the simulator raises "
                            "SimulationError here",
                            hint="crash the peer first, or drop the restart",
                        )
                    )
                else:
                    del crashed[event.peer]
            elif isinstance(event, BumpEpoch):
                pending_bump = at
            continue

        # A publish.
        index = item
        if pending_bump is not None:
            epoch_starts.add(index)
            first_hop = [
                link.recipient
                for link in scenario.downstream(publisher, publisher)
            ]
            if first_hop and all(
                not connected(groups, publisher, peer) for peer in first_hop
            ):
                diagnostics.append(
                    _diag(
                        "PDE306",
                        WARNING,
                        f"epoch bumped at t={pending_bump} but at the next "
                        f"publish (t={at}) the publisher is partitioned from "
                        "every peer it feeds directly: the re-baselining full "
                        "snapshot reaches nobody",
                        hint="heal the partition before the first "
                        "post-bump publish",
                    )
                )
            pending_bump = None
        if topology:
            # Certain-miss tracking feeds PDE308, whose soundness argument
            # assumes the publisher is adjacent; relay hops are repaired
            # by the relays' own full-snapshot forwards instead.
            continue
        for peer in peers:
            schedule = scenario.faults.get((publisher, peer))
            if not connected(groups, publisher, peer):
                # Partition refuses at send time: no copy ever exists.
                certain_missed[peer].add(index)
            elif _always_drops(schedule):
                certain_missed[peer].add(index)
            elif peer in crashed:
                latest = _latest_delivery(at, schedule, latency, reorder_delay)
                next_restart = next(
                    (t for t in restart_times[peer] if t > at), None
                )
                if next_restart is None or next_restart > latest:
                    # Down past every possible delivery instant (a restart
                    # exactly at delivery time wins the control-first
                    # tie-break, hence the strict comparison).
                    certain_missed[peer].add(index)

    # ---- end-of-timeline checks -------------------------------------------
    end = max(at for at, _item in timeline)
    horizon = round(end + interval, 6)

    if groups is not None:
        rendered = " | ".join(
            "{" + ", ".join(sorted(group)) + "}" for group in groups
        )
        diagnostics.append(
            _diag(
                "PDE301",
                WARNING,
                f"partition opened at t={partition_since} is never healed "
                f"(groups {rendered}); isolated peers stay excluded from the "
                "convergence check",
                hint="append a Heal event after the partition window",
                fixes=(
                    Fix(
                        f"append a heal event at t={horizon}",
                        (
                            JsonEdit(
                                "append",
                                ("events",),
                                {"event": "heal", "at": horizon},
                            ),
                        ),
                    ),
                ),
            )
        )
    for peer, since in sorted(crashed.items()):
        diagnostics.append(
            _diag(
                "PDE302",
                WARNING,
                f"peer {peer!r} crashes at t={since} and never restarts; it "
                "is excluded from the convergence check",
                hint="append a Restart event for the peer",
                fixes=(
                    Fix(
                        f"append a restart of {peer!r} at t={horizon}",
                        (
                            JsonEdit(
                                "append",
                                ("events",),
                                {"event": "restart", "at": horizon, "peer": peer},
                            ),
                        ),
                    ),
                ),
            )
        )

    custody_gapped: set[str] = set()
    if topology:
        cycle = _relay_cycle(scenario)
        if cycle is not None:
            rendered = " -> ".join(cycle)
            diagnostics.append(
                _diag(
                    "PDE311",
                    WARNING,
                    f"the relay topology contains a directed cycle "
                    f"({rendered}): stamp watermarks keep re-forwarding "
                    "idempotent so the loop terminates, but every lap costs "
                    "deliveries that arrive stale",
                    hint="break the cycle if the redundant path is "
                    "unintentional; it is safe but wasteful",
                )
            )
        custody_gapped = set(peers) - scenario.reachable()
        for peer in sorted(custody_gapped):
            diagnostics.append(
                _diag(
                    "PDE312",
                    ERROR,
                    f"peer {peer!r} has no relay path from {publisher!r} "
                    "carrying the publisher's feed even on the fault-free "
                    "topology: it can never receive a publish and "
                    "convergence is impossible",
                    hint="add a relay link reaching the peer, or widen "
                    "custody on an existing path",
                )
            )

    reachable = scenario.reachable(crashed, groups)
    if topology:
        for peer in sorted(peers):
            if (
                peer in crashed  # already PDE302
                or peer in custody_gapped  # already PDE312
                or peer in reachable
            ):
                continue
            diagnostics.append(
                _diag(
                    "PDE310",
                    WARNING,
                    f"peer {peer!r} has no live relay path from "
                    f"{publisher!r} after the timeline's surviving faults "
                    "(crashed relays or unhealed partitions sever every "
                    "route); it is excluded from the convergence check",
                    hint="restart the crashed relays / heal the partition, "
                    "or add a redundant relay link",
                )
            )
    if not reachable:
        diagnostics.append(
            _diag(
                "PDE304",
                ERROR,
                "no peer is reachable at quiescence (all crashed or "
                "partitioned from the publisher): the convergence check is "
                "vacuously true and the run proves nothing",
                hint="heal partitions / restart peers before the timeline ends",
            )
        )

    for link in scenario.relay_links:
        schedule = scenario.faults.get((link.sender, link.recipient))
        if _always_drops(schedule):
            diagnostics.append(
                _diag(
                    "PDE305",
                    WARNING,
                    f"link {link.sender!r} -> {link.recipient!r} drops every "
                    "message (drop_rate >= 1.0): the recipient converges "
                    "only through the post-run anti-entropy repair channel, "
                    "so the run never exercises the sync protocol on that "
                    "link",
                    hint="lower drop_rate, or remove the dead link",
                )
            )

    if (
        not topology
        and n_publishes > 1
        and reorder_delay <= interval
        and any(
            _may_reorder(scenario.faults.get((publisher, peer)))
            for peer in peers
        )
    ):
        diagnostics.append(
            _diag(
                "PDE307",
                INFO,
                f"the link schedules reorder messages but reorder_delay "
                f"({reorder_delay}) does not exceed the publish interval "
                f"({interval}): a reordered message still arrives before the "
                "next publish, so reordering never actually overtakes "
                "anything",
                hint="set reorder_delay > interval to make reordering "
                "observable",
            )
        )

    if deltas and not topology:
        # PDE308's certain-miss argument assumes the publisher is adjacent
        # to every peer; relays forward full snapshots, never deltas, so a
        # relay hop cannot doom a delta chain.
        diagnostics.extend(
            _delta_chain_rules(
                scenario, epoch_starts, certain_missed, reorder_delay
            )
        )
    return diagnostics


def _delta_publishes(scenario: Scenario, epoch_starts: set[int]) -> set[int]:
    """Publish indexes that ship a :class:`~repro.net.Delta` under ``--delta``.

    Mirrors the publisher's rule: never the first publish of an epoch,
    and only when the delta's wire size (``|added| + |withdrawn|``)
    actually beats the full snapshot.
    """
    shipped: set[int] = set()
    previous = None
    for index, snapshot in enumerate(scenario.snapshots):
        if index in epoch_starts:
            previous = None
        if previous is not None:
            delta_size = len(snapshot - previous) + len(previous - snapshot)
            if delta_size < len(snapshot):
                shipped.add(index)
        previous = snapshot
    return shipped


def _delta_chain_rules(
    scenario: Scenario,
    epoch_starts: set[int],
    certain_missed: Mapping[str, set[int]],
    reorder_delay: float,
) -> list[Diagnostic]:
    """PDE308: crash/partition schedules that guarantee a broken delta chain.

    Sound only on fault-free links with ``latency < interval``: there the
    peer's watermark is exactly determined by its certain misses, so a
    delta whose base publish the peer certainly missed *must* arrive
    chain-broken (if it arrives at all) and trigger the full-snapshot
    fallback retransmit.  On lossy links a reordered or redelivered
    message could have repaired the watermark in between, so no claim is
    made.
    """
    if scenario.latency >= scenario.interval:
        return []
    diagnostics: list[Diagnostic] = []
    shipped = _delta_publishes(scenario, epoch_starts)
    if not shipped:
        return []
    for peer in scenario.peers:
        schedule = scenario.faults.get((scenario.publisher, peer))
        if not _fault_free(schedule):
            continue
        missed = certain_missed[peer]
        doomed = sorted(
            index
            for index in shipped
            if index - 1 in missed and index not in missed
        )
        if doomed:
            rendered = ", ".join(str(index) for index in doomed)
            diagnostics.append(
                _diag(
                    "PDE308",
                    WARNING,
                    f"peer {peer!r} certainly misses the base of delta "
                    f"publish(es) {rendered}: each such delta arrives "
                    "chain-broken (DELTA_CHAIN_BROKEN) and costs a "
                    "full-snapshot fallback retransmit",
                    hint="schedule an epoch bump after the outage, or accept "
                    "the fallback cost",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# the merge-ambiguity rules (PDE4xx)
# ---------------------------------------------------------------------------


def _merge_rules(scenario: Scenario) -> list[Diagnostic]:
    """Check the declarative multi-publisher merge contract."""
    diagnostics: list[Diagnostic] = []
    publishers = scenario.publishers
    multi = len(publishers) > 1

    if scenario.repair and scenario.repair not in REPAIR_RULES:
        known = ", ".join(REPAIR_RULES)
        diagnostics.append(
            _diag(
                "PDE405",
                ERROR,
                f"unknown repair rule {scenario.repair!r}",
                hint=f"one of: {known}",
            )
        )

    if not multi:
        if scenario.trust:
            diagnostics.append(
                _diag(
                    "PDE404",
                    INFO,
                    "a trust order is declared but the scenario has a single "
                    "publisher; trust only resolves equal stamps from "
                    "*different* publishers",
                    hint="drop the trust declaration, or add co_publishers",
                )
            )
        return diagnostics

    if not scenario.trust:
        names = ", ".join(repr(name) for name in publishers)
        diagnostics.append(
            _diag(
                "PDE401",
                ERROR,
                f"publishers {names} can issue equal stamps for conflicting "
                "facts, and no trust order is declared to resolve the merge "
                "(Bertossi–Bravo trust semantics)",
                hint='declare "trust": [...] listing every publisher, '
                "most-trusted first",
            )
        )
    else:
        missing = [name for name in publishers if name not in scenario.trust]
        unknown = [name for name in scenario.trust if name not in publishers]
        duplicated = len(set(scenario.trust)) != len(scenario.trust)
        problems: list[str] = []
        if missing:
            problems.append(
                "does not rank publisher(s) "
                + ", ".join(repr(name) for name in missing)
            )
        if unknown:
            problems.append(
                "ranks unknown name(s) "
                + ", ".join(repr(name) for name in unknown)
            )
        if duplicated:
            problems.append("ranks a publisher twice")
        if problems:
            diagnostics.append(
                _diag(
                    "PDE402",
                    ERROR,
                    "the trust order " + "; ".join(problems) + ": equal "
                    "stamps between unranked publishers stay ambiguous",
                    hint="list exactly the publishers, each once, "
                    "most-trusted first",
                )
            )

    if not scenario.repair and scenario.setting.target_egds():
        diagnostics.append(
            _diag(
                "PDE403",
                WARNING,
                f"the setting declares {len(scenario.setting.target_egds())} "
                "target egd(s) but the scenario declares no repair rule: a "
                "trust-ordered merge can still violate Σ_t with no declared "
                "resolution (cf. Exchange-Repairs)",
                hint='declare "repair": one of '
                + ", ".join(repr(rule) for rule in REPAIR_RULES),
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _nest_setting_fixes(diagnostic: Diagnostic) -> Diagnostic:
    """Re-root a setting diagnostic's fix paths under the ``"setting"`` key.

    Setting rules emit :class:`~repro.analysis.fixes.JsonEdit` paths
    relative to a setting file; in a scenario file the setting is nested
    under ``"setting"``, so ``lint --fix`` needs the prefixed path.
    """
    if not diagnostic.fixes:
        return diagnostic
    fixes = tuple(
        Fix(
            fix.description,
            tuple(
                JsonEdit(edit.op, ("setting", *edit.path), edit.value)
                for edit in fix.edits
            ),
        )
        for fix in diagnostic.fixes
    )
    return replace(diagnostic, fixes=fixes)


def analyze_scenario(
    scenario: Scenario,
    deltas: bool = False,
    ignore: Iterable[str] = (),
    include_setting: bool = True,
) -> AnalysisReport:
    """Statically analyze a scenario without running it.

    Args:
        scenario: the scenario to interpret.
        deltas: also check delta-transfer consequences (``PDE308``), as
            ``simulate --delta`` would experience them.
        ignore: diagnostic codes to suppress (accepts the comma
            shorthand, see :func:`~repro.analysis.expand_ignore`).
        include_setting: also run the setting lint rules over
            ``scenario.setting`` and merge their findings into the
            report (the default — a scenario is only as sound as the
            setting it syncs under).
    """
    diagnostics = _timeline_rules(scenario, deltas)
    diagnostics.extend(_merge_rules(scenario))
    if include_setting:
        diagnostics.extend(
            _nest_setting_fixes(diagnostic)
            for diagnostic in analyze(scenario.setting).diagnostics
        )
    return AnalysisReport.build(
        scenario.name, diagnostics, ignore=expand_ignore(ignore)
    )


def analyze_scenario_dict(
    encoded: Mapping[str, Any],
    deltas: bool = False,
    ignore: Iterable[str] = (),
) -> AnalysisReport:
    """Analyze a JSON-decoded scenario dict, diagnosing load failures.

    Construction failures become ``PDE000`` diagnostics instead of
    exceptions, mirroring :func:`~repro.analysis.analyze_dict`; codes
    under the dict's ``lint_ignore`` key are suppressed in addition to
    ``ignore``.
    """
    ignore = expand_ignore(ignore) | expand_ignore(encoded.get("lint_ignore", ()))
    try:
        scenario = scenario_from_dict(encoded, validate=False)
    except ReproError as error:
        message = f"unloadable scenario: {error}"
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        message = f"malformed scenario file: {type(error).__name__}: {error}"
    else:
        return analyze_scenario(scenario, deltas=deltas, ignore=ignore)
    return AnalysisReport.build(
        encoded.get("name", ""),
        [Diagnostic("PDE000", ERROR, message, rule=CODES["PDE000"].rule)],
        ignore=ignore,
    )


def analyze_scenario_text(
    text: str, deltas: bool = False, ignore: Iterable[str] = ()
) -> AnalysisReport:
    """Analyze a scenario given as JSON text (the on-disk format)."""
    try:
        encoded = json.loads(text)
    except json.JSONDecodeError as error:
        return AnalysisReport.build(
            "",
            [
                Diagnostic(
                    "PDE000",
                    ERROR,
                    f"invalid JSON: {error}",
                    rule=CODES["PDE000"].rule,
                )
            ],
            ignore=expand_ignore(ignore),
        )
    if not isinstance(encoded, dict):
        return AnalysisReport.build(
            "",
            [
                Diagnostic(
                    "PDE000",
                    ERROR,
                    "a scenario file must hold a JSON object, got "
                    + type(encoded).__name__,
                    rule=CODES["PDE000"].rule,
                )
            ],
            ignore=expand_ignore(ignore),
        )
    return analyze_scenario_dict(encoded, deltas=deltas, ignore=ignore)
