"""End-to-end network simulation tests.

Convergence per fault class under fixed seeds, byte-for-byte replay
determinism, journal-backed crash/resume mid-simulation, and the
``simulate`` CLI.  A randomized seeded soak test is marked ``slow`` and
excluded from the tier-1 run.
"""

import pytest

from repro.analysis import analyze_scenario
from repro.cli import main
from repro.core.parser import parse_instance
from repro.exceptions import SimulationError
from repro.net import (
    Crash,
    Heal,
    NetworkSimulator,
    Partition,
    Restart,
    Scenario,
    crash_scenario,
    genomics_scenario,
    registry_scenario,
    scenario_registry,
)
from repro.net.scenarios import _registry_snapshots, registry_setting
from repro.net.simulator import _states_agree
from repro.runtime import FaultSchedule


def lossy_registry(name: str, faults, events=()) -> Scenario:
    """A registry scenario with explicit per-link schedules and events."""
    peers = ["peer-a", "peer-b", "peer-c"]
    return Scenario(
        name=name,
        description=f"registry under {name} faults",
        setting=registry_setting(),
        snapshots=_registry_snapshots(),
        peers=peers,
        reorder_delay=1.2,  # > interval: reordering really overtakes
        faults={("origin", peer): faults for peer in peers},
        events=list(events),
    )


class TestSingleFaultClasses:
    """One fault class at a time, each under a fixed seed."""

    def test_drop_only_converges(self):
        scenario = lossy_registry(
            "drop-only", FaultSchedule.seeded(seed=11, drop=0.4)
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["dropped"] > 0

    def test_duplicate_only_converges(self):
        scenario = lossy_registry(
            "dup-only", FaultSchedule.seeded(seed=12, duplicate=0.5)
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["duplicated"] > 0
        assert report.stats["stale"] >= report.stats["duplicated"]

    def test_reorder_only_converges(self):
        scenario = lossy_registry(
            "reorder-only", FaultSchedule.seeded(seed=13, reorder=0.5)
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["reordered"] > 0
        # An overtaken (older) snapshot arriving late is rejected as stale.
        assert report.stats["stale"] > 0

    def test_partition_and_heal_converges_via_anti_entropy(self):
        # Perfect links isolate the partition effect; the partition spans
        # the final publish, so only anti-entropy can catch peer-c up.
        scenario = lossy_registry(
            "partition", FaultSchedule(),
            events=[
                Partition(3.5, {"origin", "peer-a", "peer-b"}, {"peer-c"}),
                Heal(5.5),
            ],
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["partition_dropped"] > 0
        assert report.stats["anti_entropy"] > 0

    def test_unhealed_partition_excludes_the_isolated_peer(self):
        scenario = lossy_registry(
            "partitioned-forever", FaultSchedule(),
            events=[Partition(1.5, {"origin", "peer-a", "peer-b"}, {"peer-c"})],
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged  # the reachable majority still converges
        assert report.convergence.unreachable == ["peer-c"]
        assert "peer-c" not in report.convergence.peers


class TestShippedScenarios:
    @pytest.mark.parametrize("name", sorted(scenario_registry()))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_scenario_converges(self, name, seed, tmp_path):
        scenario = scenario_registry()[name](seed)
        report = NetworkSimulator(scenario, journal_dir=tmp_path).run()
        assert report.converged, "\n".join(report.log)


class TestTimelineOrder:
    """Control events before publishes at equal instants.

    The order is defined once, by :meth:`repro.net.Scenario.timeline`,
    and the simulator, the linter and the socket harness all walk it.
    """

    def test_partition_at_a_publish_instant_applies_first(self):
        partition = Partition(1.0, {"pub", "p2"}, {"p1"})
        scenario = Scenario(
            name="tie-break",
            description="partition coincides with publish 1",
            setting=registry_setting(),
            snapshots=[
                parse_instance(text)
                for text in (
                    "reg(a, 1)",
                    "reg(a, 1); reg(b, 2)",
                    "reg(a, 1); reg(b, 2); reg(c, 3)",
                )
            ],
            peers=["p1", "p2"],
            publisher="pub",
            events=[partition, Heal(1.5)],
        )
        timeline = scenario.timeline()
        assert timeline.index((1.0, partition)) < timeline.index((1.0, 1))

        report = NetworkSimulator(scenario).run()
        # Partitions drop at send time: publish 1 to p1 is refused.  Had
        # the publish gone first, nothing would have been refused.
        assert report.stats["partition_dropped"] == 1
        assert report.converged
        assert report.convergence.peers["p1"]

        # The linter walks the same order: p1 certainly misses publish 1,
        # so the delta keyed on it is doomed.
        [doomed] = analyze_scenario(scenario, deltas=True).diagnostics
        assert doomed.code == "PDE308" and "'p1'" in doomed.message


class TestDeterminism:
    def test_same_seed_replays_byte_for_byte(self):
        first = NetworkSimulator(registry_scenario(7)).run()
        second = NetworkSimulator(registry_scenario(7)).run()
        assert first.log == second.log
        assert first.stats == second.stats
        assert first.final_stamp == second.final_stamp

    def test_different_seeds_take_different_fault_paths(self):
        logs = {
            tuple(NetworkSimulator(registry_scenario(seed)).run().log)
            for seed in range(4)
        }
        assert len(logs) > 1

    def test_genomics_feed_is_seed_deterministic(self):
        a = NetworkSimulator(genomics_scenario(3)).run()
        b = NetworkSimulator(genomics_scenario(3)).run()
        assert a.log == b.log


class TestCrashResume:
    def test_killed_and_resumed_peer_reaches_the_same_converged_state(
        self, tmp_path
    ):
        # The crash scenario kills journal-backed peer-b mid-simulation and
        # restarts it two publishes later; it must converge to the exact
        # state of the run where it never crashed.
        baseline = NetworkSimulator(
            registry_scenario(7), journal_dir=tmp_path / "baseline"
        ).run()
        crashed = NetworkSimulator(
            crash_scenario(7), journal_dir=tmp_path / "crashed"
        ).run()
        assert baseline.converged and crashed.converged
        assert crashed.stats["crash_dropped"] > 0

    def test_restart_resumes_from_the_journal_watermark(self, tmp_path):
        scenario = lossy_registry(
            "crash-watermark", FaultSchedule(),
            events=[Crash(1.2, "peer-b"), Restart(3.2, "peer-b")],
        )
        simulator = NetworkSimulator(scenario, journal_dir=tmp_path)
        report = simulator.run()
        assert report.converged, "\n".join(report.log)
        restart_lines = [line for line in report.log if "restart peer-b" in line]
        # The journal preserved the pre-crash watermark (round 2 = stamp 1.2).
        assert restart_lines == [f"t=003.200 restart peer-b stamp=1.2"]

    def test_without_a_journal_dir_a_temp_dir_is_provisioned(self):
        report = NetworkSimulator(crash_scenario(0)).run()
        assert report.converged, "\n".join(report.log)


class TestDeltaTransfer:
    """Delta publishes: wire savings, fallback, and state identity."""

    def test_delta_run_converges_to_the_snapshot_run_state(self):
        plain = NetworkSimulator(registry_scenario(7))
        delta = NetworkSimulator(registry_scenario(7), deltas=True)
        plain_report, delta_report = plain.run(), delta.run()
        assert plain_report.converged, "\n".join(plain_report.log)
        assert delta_report.converged, "\n".join(delta_report.log)
        assert delta_report.stats["delta_published"] > 0
        for peer in plain.scenario.peers:
            assert _states_agree(
                plain.nodes[peer].state(), delta.nodes[peer].state()
            ), f"{peer} differs with deltas enabled"

    def test_dropped_delta_breaks_the_chain_and_falls_back(self):
        # Perfect links except one scripted drop: publish #2's delta to
        # peer-a is lost, so publish #3's delta (base 1.3) cannot chain
        # from peer-a's 1.2 watermark — the publisher must fall back to a
        # full snapshot for that peer, and only that peer.
        peers = ["peer-a", "peer-b"]
        scenario = Scenario(
            name="delta-break",
            description="one dropped delta forces a snapshot fallback",
            setting=registry_setting(),
            snapshots=_registry_snapshots(),
            peers=peers,
            faults={("origin", "peer-a"): FaultSchedule(drop=[2])},
        )
        simulator = NetworkSimulator(scenario, deltas=True)
        report = simulator.run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["chain_broken"] == 1
        assert report.stats["delta_fallback"] == 1
        assert any("delta-chain-broken" in line for line in report.log)
        assert any("delta-fallback" in line for line in report.log)
        # peer-b's chain never broke.
        assert simulator.nodes["peer-b"].stats["chain_broken"] == 0

    def test_duplicated_and_reordered_deltas_stay_idempotent(self):
        scenario = lossy_registry(
            "delta-dup-reorder",
            FaultSchedule.seeded(seed=5, duplicate=0.4, reorder=0.4),
        )
        report = NetworkSimulator(scenario, deltas=True).run()
        assert report.converged, "\n".join(report.log)
        assert report.stats["duplicated"] > 0
        assert report.stats["reordered"] > 0
        # Redelivered / overtaken deltas replay as stale no-ops.
        assert report.stats["stale"] > 0

    def test_crash_resume_mid_delta_chain(self, tmp_path):
        # The journal retains the delta base with the watermark, so the
        # restarted peer either chains on or falls back — both converge.
        plain = NetworkSimulator(
            crash_scenario(7), journal_dir=tmp_path / "plain"
        )
        delta = NetworkSimulator(
            crash_scenario(7), journal_dir=tmp_path / "delta", deltas=True
        )
        plain_report, delta_report = plain.run(), delta.run()
        assert plain_report.converged and delta_report.converged
        assert delta_report.stats["crash_dropped"] > 0
        for peer in plain.scenario.peers:
            assert _states_agree(
                plain.nodes[peer].state(), delta.nodes[peer].state()
            )

    def test_delta_runs_replay_byte_for_byte(self):
        first = NetworkSimulator(registry_scenario(7), deltas=True).run()
        second = NetworkSimulator(registry_scenario(7), deltas=True).run()
        assert first.log == second.log
        assert first.stats == second.stats


class TestVacuousConvergence:
    def test_all_peers_unreachable_converges_vacuously(self):
        # Every peer partitioned away at quiescence: nothing reachable
        # diverged, so the verdict is converged — flagged vacuous, not a
        # spurious failure.
        scenario = lossy_registry(
            "all-partitioned", FaultSchedule(),
            events=[Partition(1.5, {"origin"}, {"peer-a", "peer-b", "peer-c"})],
        )
        report = NetworkSimulator(scenario).run()
        assert report.converged
        assert report.convergence.vacuous
        assert report.convergence.peers == {}
        assert sorted(report.convergence.unreachable) == [
            "peer-a", "peer-b", "peer-c",
        ]
        assert any(
            "vacuous (no reachable peers)" in line for line in report.log
        )

    def test_reachable_peers_keep_the_verdict_non_vacuous(self):
        report = NetworkSimulator(registry_scenario(0)).run()
        assert report.converged
        assert not report.convergence.vacuous


class TestOracleValidation:
    def test_unsolvable_pinned_facts_raise_a_named_simulation_error(self):
        # A pinned fact no snapshot vouches for makes the fault-free
        # oracle itself refuse the replay; that is a scenario bug and
        # must surface as a SimulationError naming the snapshot, not a
        # bare RuntimeError.
        scenario = Scenario(
            name="bad-pin",
            description="peer-a pins a fact the feed never vouches for",
            setting=registry_setting(),
            snapshots=_registry_snapshots(),
            peers=["peer-a"],
            pinned={"peer-a": parse_instance("db(z, 9)")},
        )
        simulator = NetworkSimulator(scenario)
        with pytest.raises(SimulationError, match="snapshot 0"):
            simulator.run()
        # Deliveries and anti-entropy ran before the oracle check, and
        # both spell the refusal the same way in the event log.
        rejected = [line for line in simulator.log if "-> rejected" in line]
        assert any("deliver" in line for line in rejected)
        assert any("anti-entropy" in line for line in rejected)


class TestJournalDirCleanup:
    def test_owned_temp_dir_is_removed_after_the_run(self):
        simulator = NetworkSimulator(crash_scenario(0))
        assert simulator._owns_journal_dir
        path = simulator.journal_dir
        assert path is not None and path.exists()
        assert simulator.run().converged
        assert not path.exists()

    def test_explicit_journal_dir_is_kept(self, tmp_path):
        simulator = NetworkSimulator(crash_scenario(0), journal_dir=tmp_path)
        assert not simulator._owns_journal_dir
        assert simulator.run().converged
        assert (tmp_path / "peer-b.journal").exists()


@pytest.mark.slow
class TestSoak:
    def test_randomized_seeds_always_converge(self, tmp_path):
        # A seeded sweep over many fault mixes; each run is individually
        # replayable from its printed seed.
        for seed in range(24):
            scenario = crash_scenario(seed)
            report = NetworkSimulator(
                scenario, journal_dir=tmp_path / str(seed)
            ).run()
            assert report.converged, (
                f"seed {seed} diverged:\n" + "\n".join(report.log)
            )

    def test_deltas_and_snapshots_agree_across_seeds(self, tmp_path):
        # Deltas are a pure wire optimization: under every seeded fault
        # mix (including crash/resume), the delta run must reach states
        # identical to the snapshot-only run, peer for peer.
        for seed in range(12):
            plain = NetworkSimulator(
                crash_scenario(seed), journal_dir=tmp_path / f"{seed}-plain"
            )
            delta = NetworkSimulator(
                crash_scenario(seed),
                journal_dir=tmp_path / f"{seed}-delta",
                deltas=True,
            )
            plain_report, delta_report = plain.run(), delta.run()
            assert plain_report.converged and delta_report.converged, (
                f"seed {seed} diverged"
            )
            for peer in plain.scenario.peers:
                if plain.reachable(peer) and delta.reachable(peer):
                    assert _states_agree(
                        plain.nodes[peer].state(), delta.nodes[peer].state()
                    ), f"seed {seed}: {peer} differs with deltas enabled"


class TestSimulateCli:
    def test_registry_seed_7_exits_zero(self, capsys):
        assert main(["simulate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out

    def test_log_flag_prints_the_event_log(self, capsys):
        assert main(["simulate", "registry", "--seed", "7", "--log"]) == 0
        out = capsys.readouterr().out
        assert "publish stamp=1.1" in out
        assert "quiescent" in out

    def test_crash_scenario_with_journal_dir(self, tmp_path, capsys):
        code = main(
            ["simulate", "crash", "--seed", "3", "--journal-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "peer-b.journal").exists()

    def test_list_prints_the_registry(self, capsys):
        assert main(["simulate", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_registry():
            assert name in out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["simulate", "nonesuch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_metrics_flag_prints_net_counters(self, capsys):
        assert main(["simulate", "--seed", "7", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "net.sent" in out

    def test_delta_flag_reports_delta_counters(self, capsys):
        assert main(["simulate", "--seed", "7", "--delta"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "deltas: published=" in out
        assert "facts_sent=" in out
