"""Relay subscriptions over real sockets: chains of daemons, kill -9.

The tier-1 tests here boot a 3-hop chain of daemons on the loopback and
stay well under a second of wall clock each; the full scenario harness
runs under chaos proxies are marked ``chaos`` and ride the nightly lane.
"""

import asyncio

import pytest

from repro.core.parser import parse_instance
from repro.net import (
    Crash,
    RelayLink,
    Restart,
    Scenario,
    registry_setting,
    relay_chain_scenario,
    relay_mesh_scenario,
    states_agree,
)
from repro.net.simulator import NetworkSimulator
from repro.netd import PublisherClient, SyncDaemon, run_scenario_netd
from repro.obs import read_postmortem
from repro.sync import Stamp

SNAPSHOTS = [
    parse_instance("reg(a, 1)"),
    parse_instance("reg(a, 1); reg(b, 2)"),
    parse_instance("reg(b, 2); reg(c, 3)"),
    parse_instance("reg(b, 2); reg(c, 3); reg(d, 4)"),
]


def run(coroutine):
    return asyncio.run(coroutine)


async def _wait(predicate, timeout=10.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


async def _chain(tmp_path, **b_kwargs):
    """origin -> relay-a@A -> relay-b@B -> leaf@C, one daemon per hop."""
    setting = registry_setting()
    daemon_c = SyncDaemon(setting, ["leaf"], journal_dir=tmp_path / "C")
    await daemon_c.start()
    daemon_b = SyncDaemon(
        setting,
        ["relay-b"],
        journal_dir=tmp_path / "B",
        relays={"relay-b": [("leaf", daemon_c.address)]},
        **b_kwargs,
    )
    await daemon_b.start()
    daemon_a = SyncDaemon(
        setting,
        ["relay-a"],
        journal_dir=tmp_path / "A",
        relays={"relay-a": [("relay-b", daemon_b.address)]},
    )
    await daemon_a.start()
    return daemon_a, daemon_b, daemon_c


def test_three_hop_chain_over_sockets(tmp_path):
    async def scenario():
        daemon_a, daemon_b, daemon_c = await _chain(tmp_path)
        client = PublisherClient(
            daemon_a.address, "relay-a", sender="origin", ack_timeout=2.0
        )
        await client.start()
        for index, snapshot in enumerate(SNAPSHOTS):
            assert await client.publish(Stamp(1, index + 1), snapshot) == "applied"
        final = Stamp(1, len(SNAPSHOTS))
        await _wait(lambda: daemon_c.hosts["leaf"].watermark == final)

        # The leaf's state arrived purely by relay: two forwards per round.
        assert daemon_c.peer_state("leaf") == parse_instance(
            "db(b, 2); db(c, 3); db(d, 4)"
        )
        assert daemon_a.stats["forwarded"] == len(SNAPSHOTS)
        assert daemon_b.stats["forwarded"] == len(SNAPSHOTS)
        # Every hop scored: healthy links sit above their initial 1.0.
        assert daemon_a.scorer.snapshot()["relay-a->relay-b"] > 1.0
        assert daemon_b.scorer.snapshot()["relay-b->leaf"] > 1.0
        # The ops snapshot carries the scores for `obs top`.
        assert "relay-b->leaf" in daemon_b.stats_payload()["scores"]

        await client.close()
        for daemon in (daemon_a, daemon_b, daemon_c):
            assert await daemon.stop() is True

    run(scenario())


def test_kill9_middle_relay_no_duplicate_applies(tmp_path):
    """kill -9 the middle daemon mid-chain; zero duplicate leaf applies.

    The stamp-watermark argument, end to end over real sockets: after
    the middle relay is aborted and rebooted from its journals, nothing
    downstream is ever applied twice — re-forwards and re-publishes of
    already-applied stamps all land stale.
    """

    async def scenario():
        daemon_a, daemon_b, daemon_c = await _chain(tmp_path)
        address_b = daemon_b.address
        client = PublisherClient(
            daemon_a.address, "relay-a", sender="origin", ack_timeout=2.0
        )
        await client.start()

        for index in (1, 2):
            assert await client.publish(Stamp(1, index), SNAPSHOTS[index - 1]) == "applied"
        await _wait(lambda: daemon_c.hosts["leaf"].watermark == Stamp(1, 2))

        # kill -9: no BYE, no drain, journals are the only survivors.
        daemon_b.abort()
        score_before = daemon_a.scorer.snapshot()["relay-a->relay-b"]
        assert await client.publish(Stamp(1, 3), SNAPSHOTS[2]) == "applied"
        # Wait until A's relay pump has given up on the dead downstream
        # (scored the link down), so the missed round is deterministic.
        await _wait(
            lambda: daemon_a.scorer.snapshot()["relay-a->relay-b"] < score_before,
            timeout=30.0,
        )

        # Reboot the middle relay on the same address and journals.
        daemon_b2 = SyncDaemon(
            registry_setting(),
            ["relay-b"],
            listen=address_b,
            journal_dir=tmp_path / "B",
            relays={"relay-b": [("leaf", daemon_c.address)]},
        )
        await daemon_b2.start()
        # Journal resume: the watermark survived the kill.
        assert daemon_b2.hosts["relay-b"].watermark == Stamp(1, 2)

        assert await client.publish(Stamp(1, 4), SNAPSHOTS[3]) == "applied"
        await _wait(lambda: daemon_c.hosts["leaf"].watermark == Stamp(1, 4), timeout=30.0)

        # Duplicate injection: replay the final stamp straight at the
        # leaf, as a flaky relay retransmit would.
        replay = PublisherClient(
            daemon_c.address, "leaf", sender="relay-b", ack_timeout=2.0
        )
        await replay.start()
        assert await replay.publish(Stamp(1, 4), SNAPSHOTS[3]) == "stale"
        # ... and replay an old stamp at the origin: no re-forward.
        forwarded_before = daemon_a.stats["forwarded"]
        assert await client.publish(Stamp(1, 2), SNAPSHOTS[1]) == "stale"
        assert daemon_a.stats["forwarded"] == forwarded_before

        # The proof: the leaf applied exactly its distinct fresh stamps
        # (1.1, 1.2, 1.4 — 1.3 died with the relay), nothing twice.
        leaf_stats = daemon_c.hosts["leaf"].stats
        assert leaf_stats["applied"] == 3
        assert leaf_stats["stale"] >= 1
        assert daemon_c.peer_state("leaf") == parse_instance(
            "db(b, 2); db(c, 3); db(d, 4)"
        )

        await client.close()
        await replay.close()
        for daemon in (daemon_a, daemon_b2, daemon_c):
            assert await daemon.stop() is True

    run(scenario())


@pytest.mark.parametrize(
    "publishes, events, min_forwarded",
    [
        (2, (), 2),
        # Stamp 4 follows the restart, so the relay forwards at least it.
        (4, (Crash(1.5, "mid"), Restart(2.5, "mid")), 1),
    ],
    ids=["clean", "relay-crash"],
)
def test_mesh_harness_clean_network(tmp_path, publishes, events, min_forwarded):
    """A topology scenario through run_scenario_netd without chaos.

    In the relay-crash case the harness maps ``Crash`` to the relay
    daemon's ``crash_peer``: the middle relay loses its memory, resumes
    from its journal at ``Restart``, and leaves a crash post-mortem in
    its own journal subdirectory, while the final states still agree
    with a simulator run of the same scenario.
    """

    def build():
        return Scenario(
            name="mini-chain",
            description="2-hop chain, clean network",
            setting=registry_setting(),
            publisher="origin",
            peers=["mid", "leaf"],
            snapshots=SNAPSHOTS[:publishes],
            events=list(events),
            topology=(RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
        )

    report = run_scenario_netd(
        build(), journal_dir=tmp_path / "netd", use_chaos=False, time_scale=0.01
    )
    assert report.converged
    assert not report.unreachable
    assert report.stats.get("forwarded", 0) >= min_forwarded
    assert "mid->leaf" in report.scores

    simulator = NetworkSimulator(build(), journal_dir=tmp_path / "sim")
    assert simulator.run().converged
    for peer, state in report.states.items():
        assert states_agree(state, simulator.nodes[peer].state())

    if events:
        [path] = [p for p in report.postmortems if p.name == "mid.postmortem.jsonl"]
        assert path.parent == tmp_path / "netd" / "mid"
        postmortem = read_postmortem(path)
        assert postmortem.reason == "crash"
        assert any(event["name"] == "netd.peer_crashed" for event in postmortem.events)


@pytest.mark.slow
@pytest.mark.chaos
@pytest.mark.parametrize("deltas", [False, True], ids=["snap", "delta"])
def test_relay_chain_harness_matches_simulator(tmp_path, deltas):
    scenario = relay_chain_scenario(seed=0)
    report = run_scenario_netd(
        scenario, journal_dir=tmp_path / "netd", deltas=deltas
    )
    assert report.converged
    assert report.stats.get("forwarded", 0) > 0
    simulator = NetworkSimulator(
        relay_chain_scenario(seed=0), journal_dir=tmp_path / "sim", deltas=deltas
    )
    sim_report = simulator.run()
    assert sim_report.converged
    for peer, state in report.states.items():
        if peer not in sim_report.convergence.unreachable:
            assert states_agree(state, simulator.nodes[peer].state())


@pytest.mark.slow
@pytest.mark.chaos
def test_relay_mesh_scores_downgrade_over_sockets(tmp_path):
    report = run_scenario_netd(relay_mesh_scenario(seed=0), journal_dir=tmp_path)
    assert report.converged
    # The 60%-drop hub link must sit visibly below its healthy twin.
    assert report.scores["hub-a->leaf"] < report.scores["hub-b->leaf"]
