"""Tests for the scenario static analyzer (timeline interpreter + merge rules).

Covers every PDE3xx/PDE4xx rule firing and staying quiet, the scenario
JSON round-trip, both runners' multi-publisher guard, the shipped-
fixture regressions (all registered scenarios and example files lint
clean), and the headline property: a random scenario the analyzer calls
clean must actually converge in the :class:`~repro.net.NetworkSimulator`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_scenario,
    analyze_scenario_dict,
    analyze_scenario_text,
    expand_ignore,
)
from repro.core.parser import parse_instance
from repro.core.setting import PDESetting
from repro.exceptions import SimulationError
from repro.net import (
    BumpEpoch,
    Crash,
    Heal,
    NetworkSimulator,
    Partition,
    Restart,
    Scenario,
    dumps_scenario,
    loads_scenario,
    registry_setting,
    scenario_registry,
)
from repro.netd import run_scenario_netd
from repro.runtime.faults import FaultSchedule


def make_scenario(**overrides) -> Scenario:
    base = dict(
        name="t",
        description="",
        setting=registry_setting(),
        snapshots=[
            parse_instance(text)
            for text in ("reg(a, 1)", "reg(a, 1); reg(b, 2)", "reg(b, 2); reg(c, 3)")
        ],
        peers=["p1", "p2"],
        publisher="pub",
    )
    base.update(overrides)
    return Scenario(**base)


def codes(scenario: Scenario, deltas: bool = False) -> list[str]:
    return [d.code for d in analyze_scenario(scenario, deltas=deltas)]


class TestTimelineRules:
    def test_clean_scenario_is_clean(self):
        assert analyze_scenario(make_scenario()).clean

    def test_pde301_unhealed_partition(self):
        scenario = make_scenario(events=[Partition(0.5, {"pub", "p1"}, {"p2"})])
        report = analyze_scenario(scenario)
        assert report.codes() == ["PDE301"]
        [diagnostic] = report.diagnostics
        assert diagnostic.fixes, "PDE301 must carry the append-heal fix"

    def test_healed_partition_is_clean(self):
        scenario = make_scenario(
            events=[Partition(0.5, {"pub", "p1"}, {"p2"}), Heal(1.5)]
        )
        assert analyze_scenario(scenario).clean

    def test_pde302_crash_without_restart(self):
        scenario = make_scenario(events=[Crash(0.5, "p1")])
        report = analyze_scenario(scenario)
        assert report.codes() == ["PDE302"]
        assert report.diagnostics[0].fixes

    def test_pde303_restart_of_running_peer(self):
        scenario = make_scenario(events=[Restart(0.5, "p1")])
        assert codes(scenario) == ["PDE303"]

    def test_pde303_double_crash(self):
        scenario = make_scenario(
            events=[Crash(0.5, "p1"), Crash(0.7, "p1"), Restart(1.5, "p1")]
        )
        assert codes(scenario) == ["PDE303"]

    def test_pde304_everyone_partitioned(self):
        scenario = make_scenario(
            events=[Partition(0.5, {"pub"}, {"p1", "p2"})]
        )
        found = codes(scenario)
        assert "PDE304" in found and "PDE301" in found

    def test_pde304_everyone_crashed(self):
        scenario = make_scenario(events=[Crash(0.5, "p1"), Crash(0.6, "p2")])
        assert "PDE304" in codes(scenario)

    def test_pde305_dead_link(self):
        scenario = make_scenario(
            faults={("pub", "p1"): FaultSchedule(seed=1, drop_rate=1.0)}
        )
        assert codes(scenario) == ["PDE305"]

    def test_lossy_link_is_not_dead(self):
        scenario = make_scenario(
            faults={("pub", "p1"): FaultSchedule(seed=1, drop_rate=0.9)}
        )
        assert analyze_scenario(scenario).clean

    def test_pde306_isolated_epoch_bump(self):
        scenario = make_scenario(
            events=[
                Partition(1.2, {"pub"}, {"p1", "p2"}),
                BumpEpoch(1.5),
                Heal(2.5),
            ]
        )
        assert codes(scenario) == ["PDE306"]

    def test_reachable_epoch_bump_is_clean(self):
        scenario = make_scenario(events=[BumpEpoch(1.5)])
        assert analyze_scenario(scenario).clean

    def test_pde307_reorder_noop(self):
        # Default reorder_delay is 4 * latency = 0.2 <= interval 1.0.
        scenario = make_scenario(
            faults={("pub", "p1"): FaultSchedule(seed=1, reorder_rate=0.3)}
        )
        assert codes(scenario) == ["PDE307"]

    def test_reorder_with_long_delay_is_clean(self):
        scenario = make_scenario(
            reorder_delay=1.2,
            faults={("pub", "p1"): FaultSchedule(seed=1, reorder_rate=0.3)},
        )
        assert analyze_scenario(scenario).clean


#: A growing snapshot chain: every publish after the first ships a
#: 1-fact delta (strictly smaller than the full snapshot).
_GROWING = [
    "reg(a, 1)",
    "reg(a, 1); reg(b, 2)",
    "reg(a, 1); reg(b, 2); reg(c, 3)",
]


class TestDeltaChainRule:
    def test_pde308_partition_miss_dooms_next_delta(self):
        scenario = make_scenario(
            snapshots=[parse_instance(text) for text in _GROWING],
            events=[Partition(0.5, {"pub"}, {"p1", "p2"}), Heal(1.5)],
        )
        report = analyze_scenario(scenario, deltas=True)
        assert report.codes() == ["PDE308"]
        # Both peers certainly miss publish 1; delta 2 arrives chain-broken.
        assert len(report.diagnostics) == 2

    def test_pde308_quiet_without_deltas(self):
        scenario = make_scenario(
            snapshots=[parse_instance(text) for text in _GROWING],
            events=[Partition(0.5, {"pub"}, {"p1", "p2"}), Heal(1.5)],
        )
        assert analyze_scenario(scenario, deltas=False).clean

    def test_pde308_quiet_on_lossy_links(self):
        # On a faulty link the watermark is not statically known, so no
        # certain chain-break claim is made.
        scenario = make_scenario(
            snapshots=[parse_instance(text) for text in _GROWING],
            events=[Partition(0.5, {"pub"}, {"p1", "p2"}), Heal(1.5)],
            faults={
                ("pub", "p1"): FaultSchedule(seed=1, drop_rate=0.2),
                ("pub", "p2"): FaultSchedule(seed=2, drop_rate=0.2),
            },
        )
        assert analyze_scenario(scenario, deltas=True).clean

    def test_pde308_quiet_when_delta_never_beats_snapshot(self):
        # High-churn rounds ship full snapshots, so a missed base costs
        # nothing: default make_scenario snapshots churn 2 of 2 facts at
        # publish 2 and the publisher falls back to state transfer anyway.
        scenario = make_scenario(
            events=[Partition(0.5, {"pub"}, {"p1", "p2"}), Heal(1.5)]
        )
        assert analyze_scenario(scenario, deltas=True).clean

    def test_pde308_crash_through_delivery_window(self):
        scenario = make_scenario(
            snapshots=[parse_instance(text) for text in _GROWING],
            events=[Crash(0.5, "p1"), Restart(1.5, "p1")],
        )
        report = analyze_scenario(scenario, deltas=True)
        assert report.codes() == ["PDE308"]
        [diagnostic] = report.diagnostics
        assert "'p1'" in diagnostic.message

    def test_restart_before_delivery_makes_no_claim(self):
        # Crashed at the publish instant but back before the delivery
        # arrives: the message is delivered normally, no certain miss.
        scenario = make_scenario(
            snapshots=[parse_instance(text) for text in _GROWING],
            events=[Crash(0.99, "p1"), Restart(1.01, "p1")],
        )
        assert analyze_scenario(scenario, deltas=True).clean


class TestMergeRules:
    def test_pde401_no_trust_order(self):
        scenario = make_scenario(co_publishers=("pub2",))
        assert codes(scenario) == ["PDE401"]

    def test_pde402_incomplete_trust(self):
        scenario = make_scenario(
            co_publishers=("pub2",), trust=("pub", "stranger")
        )
        report = analyze_scenario(scenario)
        assert report.codes() == ["PDE402"]
        assert "pub2" in report.diagnostics[0].message

    def test_complete_trust_order_is_clean(self):
        scenario = make_scenario(
            co_publishers=("pub2",), trust=("pub2", "pub")
        )
        assert analyze_scenario(scenario).clean

    def test_pde403_egds_without_repair(self):
        setting = PDESetting.from_text(
            source={"reg": 2},
            target={"db": 2},
            st="reg(k, v) -> db(k, v)",
            ts="db(k, v) -> reg(k, v)",
            t="db(k, v), db(k, w) -> v = w",
            name="keyed",
        )
        scenario = make_scenario(
            setting=setting, co_publishers=("pub2",), trust=("pub", "pub2")
        )
        # include_setting=False: the target egd also trips the setting's
        # own boundary rule (PDE101), which is not under test here.
        report = analyze_scenario(scenario, include_setting=False)
        assert report.codes() == ["PDE403"]
        clean = make_scenario(
            setting=setting,
            co_publishers=("pub2",),
            trust=("pub", "pub2"),
            repair="prefer-trusted",
        )
        assert analyze_scenario(clean, include_setting=False).clean

    def test_pde404_trust_without_co_publishers(self):
        scenario = make_scenario(trust=("pub",))
        assert codes(scenario) == ["PDE404"]

    def test_pde405_unknown_repair_rule(self):
        scenario = make_scenario(repair="nuke-it")
        assert codes(scenario) == ["PDE405"]

    @pytest.mark.parametrize(
        "runner", [NetworkSimulator, run_scenario_netd], ids=["simulator", "netd"]
    )
    def test_simulator_refuses_co_publishers(self, runner):
        scenario = make_scenario(
            co_publishers=("pub2",), trust=("pub", "pub2")
        )
        with pytest.raises(SimulationError, match="co-publishers"):
            runner(scenario)


class TestEntryPoints:
    def test_analyze_scenario_dict_load_failure(self):
        report = analyze_scenario_dict({"kind": "scenario", "name": "x"})
        assert report.codes() == ["PDE000"]
        assert report.diagnostics[0].rule == "load-failure"

    def test_analyze_scenario_text_invalid_json(self):
        assert analyze_scenario_text("{nope").codes() == ["PDE000"]

    def test_lint_ignore_key_suppresses(self):
        encoded = json.loads(
            dumps_scenario(
                make_scenario(events=[Partition(0.5, {"pub", "p1"}, {"p2"})])
            )
        )
        encoded["lint_ignore"] = "PDE301"
        report = analyze_scenario_dict(encoded)
        assert report.clean
        assert dict(report.ignored)["PDE301"] == 1

    def test_ignore_comma_shorthand(self):
        assert expand_ignore("PDE101, PDE203") == {"PDE101", "PDE203"}
        assert expand_ignore(["PDE101,PDE203", "PDE301"]) == {
            "PDE101",
            "PDE203",
            "PDE301",
        }
        assert expand_ignore(None) == set()

    def test_setting_findings_merge_into_scenario_report(self):
        setting = PDESetting.from_text(
            source={"reg": 2},
            target={"db": 2},
            st="reg(k, v) -> db(k, v)\nreg(k, v) -> db(k, v)",
            name="dup",
        )
        report = analyze_scenario(make_scenario(setting=setting))
        assert "PDE201" in report.codes()
        # The duplicate-dependency fix is re-rooted under "setting" so it
        # applies to scenario files.
        [diagnostic] = [d for d in report.diagnostics if d.code == "PDE201"]
        assert diagnostic.fixes[0].edits[0].path[0] == "setting"
        assert analyze_scenario(
            make_scenario(setting=setting), include_setting=False
        ).clean

    def test_scenario_json_round_trip(self):
        scenario = make_scenario(
            reorder_delay=1.2,
            faults={("pub", "p1"): FaultSchedule(seed=3, drop_rate=0.2)},
            events=[Partition(0.5, {"pub", "p1"}, {"p2"}), Heal(1.5)],
            co_publishers=("pub2",),
            trust=("pub", "pub2"),
            repair="prefer-trusted",
        )
        loaded = loads_scenario(dumps_scenario(scenario, indent=2))
        assert loaded.peers == scenario.peers
        assert loaded.publishers == scenario.publishers
        assert loaded.repair == scenario.repair
        assert loaded.faults[("pub", "p1")].drop_rate == 0.2
        assert [d.code for d in analyze_scenario(loaded)] == [
            d.code for d in analyze_scenario(scenario)
        ]


class TestShippedFixtures:
    """Regression: everything we ship lints clean, in both transfer modes."""

    @pytest.mark.parametrize("name", sorted(scenario_registry()))
    @pytest.mark.parametrize("deltas", [False, True])
    def test_registered_scenarios_lint_clean(self, name, deltas):
        scenario = scenario_registry()[name](0)
        report = analyze_scenario(scenario, deltas=deltas)
        assert report.clean, [d.render() for d in report]


# ---------------------------------------------------------------------------
# the property: netlint-clean random scenarios converge
# ---------------------------------------------------------------------------

_FACTS = ["reg(a, 1)", "reg(b, 2)", "reg(c, 3)", "reg(d, 4)", "reg(e, 5)"]


@st.composite
def random_scenarios(draw) -> Scenario:
    """Random timelines; mostly well-formed, occasionally broken.

    The generator leans toward paired partition/heal and crash/restart
    episodes so most draws survive the ``assume(report.clean)`` filter,
    but omits the closing event now and then — those draws exercise the
    filter itself.
    """
    n_snapshots = draw(st.integers(2, 4))
    snapshots = []
    for _ in range(n_snapshots):
        chosen = draw(
            st.sets(st.integers(0, len(_FACTS) - 1), min_size=1, max_size=5)
        )
        snapshots.append(
            parse_instance("; ".join(_FACTS[i] for i in sorted(chosen)))
        )
    peers = ["p1", "p2"]
    duration = (n_snapshots - 1) * 1.0
    ticks = int(duration * 10) + 5

    events = []
    episode = draw(st.sampled_from(["none", "partition", "crash", "both", "bump"]))
    if episode in ("partition", "both"):
        start = draw(st.integers(1, ticks - 2)) / 10
        isolated = draw(st.sampled_from([["p1"], ["p2"], ["p1", "p2"]]))
        kept = {"pub", *(p for p in peers if p not in isolated)}
        events.append(Partition(start, kept, set(isolated)))
        if draw(st.integers(0, 7)) != 0:  # usually heal
            heal_at = draw(st.integers(int(start * 10) + 1, ticks + 10)) / 10
            events.append(Heal(heal_at))
    if episode in ("crash", "both"):
        peer = draw(st.sampled_from(peers))
        start = draw(st.integers(1, ticks - 2)) / 10
        events.append(Crash(start, peer))
        if draw(st.integers(0, 7)) != 0:  # usually restart
            back_at = draw(st.integers(int(start * 10) + 1, ticks + 10)) / 10
            events.append(Restart(back_at, peer))
    if episode == "bump":
        events.append(BumpEpoch(draw(st.integers(1, ticks)) / 10))

    faults = {}
    if draw(st.booleans()):
        for offset, peer in enumerate(peers):
            faults[("pub", peer)] = FaultSchedule.seeded(
                seed=draw(st.integers(0, 1000)) + offset,
                drop=draw(st.sampled_from([0.0, 0.2, 0.4])),
                duplicate=draw(st.sampled_from([0.0, 0.25])),
                reorder=draw(st.sampled_from([0.0, 0.25])),
            )

    return Scenario(
        name="prop",
        description="",
        setting=registry_setting(),
        snapshots=snapshots,
        peers=peers,
        publisher="pub",
        reorder_delay=1.2,
        faults=faults,
        events=events,
    )


class TestConvergenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(scenario=random_scenarios(), deltas=st.booleans())
    def test_netlint_clean_scenarios_converge(self, scenario, deltas):
        report = analyze_scenario(scenario, deltas=deltas)
        assume(report.clean)
        result = NetworkSimulator(scenario, deltas=deltas).run()
        assert result.convergence is not None
        # Clean means PDE304 did not fire, so the verdict covers >= 1 peer.
        assert not result.convergence.vacuous
        assert result.converged, result.log
