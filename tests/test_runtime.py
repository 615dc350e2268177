"""Unit tests for the resilient runtime layer (`repro.runtime`)."""

import json

import pytest

from repro.core.instance import Instance
from repro.core.parser import parse_instance
from repro.core.setting import PDESetting
from repro.exceptions import BudgetExceeded, JournalError, ReproError, SolverError
from repro.runtime import (
    Budget,
    CancellationToken,
    FaultClock,
    JournalState,
    RetryPolicy,
    SessionJournal,
    SolveStatus,
    cancel_after,
    faulty_feed,
    stall_after,
)
from repro.runtime.budget import DEFAULT_NODE_CAP


@pytest.fixture
def registry_setting() -> PDESetting:
    return PDESetting.from_text(
        source={"reg": 2},
        target={"db": 2},
        st="reg(k, v) -> db(k, v)",
        ts="db(k, v) -> reg(k, v)",
        name="registry",
    )


class TestSolveStatus:
    def test_values_are_stable_strings(self):
        assert str(SolveStatus.DECIDED) == "decided"
        assert str(SolveStatus.BUDGET_EXHAUSTED) == "budget-exhausted"
        assert str(SolveStatus.DEADLINE) == "deadline"
        assert str(SolveStatus.CANCELLED) == "cancelled"

    def test_round_trips_through_value(self):
        for status in SolveStatus:
            assert SolveStatus(status.value) is status


class TestCancellationToken:
    def test_starts_uncancelled(self):
        token = CancellationToken()
        assert not token.cancelled

    def test_cancel_is_sticky(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled


class TestBudgetCaps:
    def test_node_cap_enforced(self):
        budget = Budget(node_cap=3)
        for _ in range(3):
            budget.charge_node()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_node()
        assert info.value.status is SolveStatus.BUDGET_EXHAUSTED

    def test_chase_step_cap_enforced(self):
        budget = Budget(chase_step_cap=2)
        budget.charge_chase_step()
        budget.charge_chase_step()
        with pytest.raises(BudgetExceeded):
            budget.charge_chase_step()

    def test_fact_cap_enforced_in_bulk(self):
        budget = Budget(fact_cap=10)
        budget.charge_facts(7)
        with pytest.raises(BudgetExceeded):
            budget.charge_facts(7)

    def test_uncapped_budget_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.charge_node()
        budget.charge_facts(10**6)
        assert budget.nodes == 1000

    def test_budget_exceeded_is_a_solver_error(self):
        # Legacy callers catch SolverError; strict exhaustion must land there.
        assert issubclass(BudgetExceeded, SolverError)
        assert issubclass(BudgetExceeded, ReproError)

    def test_counters_and_snapshot(self):
        budget = Budget()
        budget.charge_node()
        budget.charge_chase_step()
        budget.charge_chase_step()
        budget.charge_facts(5)
        assert budget.snapshot() == {
            "budget_nodes": 1,
            "budget_chase_steps": 2,
            "budget_facts": 5,
        }


class TestBudgetDeadlineAndCancellation:
    def test_deadline_fires_at_checkpoint(self):
        clock = FaultClock()
        budget = Budget(wall_time_s=10.0, clock=clock, check_interval=1)
        budget.charge_node()
        clock.advance(11.0)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_node()
        assert info.value.status is SolveStatus.DEADLINE

    def test_deadline_checked_only_every_interval(self):
        clock = FaultClock()
        budget = Budget(wall_time_s=1.0, clock=clock, check_interval=4)
        clock.advance(2.0)  # already past the deadline
        budget.charge_node()  # ticks 1..3 skip the clock entirely
        budget.charge_node()
        budget.charge_node()
        with pytest.raises(BudgetExceeded):
            budget.charge_node()  # tick 4 checks and fires

    def test_explicit_checkpoint_bypasses_interval(self):
        clock = FaultClock()
        budget = Budget(wall_time_s=1.0, clock=clock, check_interval=1000)
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded):
            budget.checkpoint()

    def test_cancellation_observed_at_checkpoint(self):
        token = CancellationToken()
        budget = Budget(token=token, check_interval=1)
        budget.charge_node()
        token.cancel()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_node()
        assert info.value.status is SolveStatus.CANCELLED

    def test_cancellation_wins_over_deadline(self):
        # A cancelled computation that also blew its deadline reports
        # CANCELLED: the directive explains the stop better than the clock.
        clock = FaultClock()
        token = CancellationToken()
        budget = Budget(wall_time_s=1.0, clock=clock, token=token)
        clock.advance(5.0)
        token.cancel()
        with pytest.raises(BudgetExceeded) as info:
            budget.checkpoint()
        assert info.value.status is SolveStatus.CANCELLED

    def test_unwatched_budget_skips_clock(self):
        calls = []

        def clock():
            calls.append(True)
            return 0.0

        budget = Budget(node_cap=100, clock=clock, check_interval=1)
        for _ in range(50):
            budget.charge_node()
        # No deadline and no token: charging must never consult the clock.
        assert calls == []


class TestBudgetConstructors:
    def test_from_legacy_none_is_uncapped(self):
        assert Budget.from_legacy(None) is None

    def test_from_legacy_default_applies(self):
        budget = Budget.from_legacy(None, default=DEFAULT_NODE_CAP)
        assert budget.node_cap == DEFAULT_NODE_CAP
        assert budget.strict

    def test_from_legacy_is_strict(self):
        budget = Budget.from_legacy(7)
        assert budget.node_cap == 7
        assert budget.strict

    def test_from_node_budget_is_the_canonical_name(self):
        # from_legacy is the historical alias of from_node_budget.
        assert Budget.from_legacy.__func__ is Budget.from_node_budget.__func__
        budget = Budget.from_node_budget(7)
        assert budget.node_cap == 7
        assert budget.strict
        assert Budget.from_node_budget(None) is None

    def test_scaled_resets_counters_and_scales_caps(self):
        token = CancellationToken()
        budget = Budget(node_cap=10, fact_cap=3, token=token, wall_time_s=100.0)
        budget.charge_node()
        escalated = budget.scaled(4.0)
        assert escalated.node_cap == 40
        assert escalated.fact_cap == 12
        assert escalated.nodes == 0
        # Deadline and token are shared facts, not caps to escalate.
        assert escalated.deadline == budget.deadline
        assert escalated.token is token

    def test_scaled_keeps_uncapped_dimensions_uncapped(self):
        assert Budget(node_cap=10).scaled(2.0).chase_step_cap is None

    def test_repr_mentions_configuration(self):
        text = repr(Budget(node_cap=5, token=CancellationToken(), strict=True))
        assert "nodes=5" in text and "token" in text and "strict" in text
        assert "uncapped" in repr(Budget())


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=42)
        assert policy.delay(1) == policy.delay(1)

    def test_delay_backs_off_geometrically(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, jitter=0.0, max_delay=10.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(base_delay=1.0, backoff=10.0, jitter=0.0, max_delay=2.0)
        assert policy.delay(5) == 2.0

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=1.0, backoff=1.0, jitter=0.5, max_delay=1.0)
        for attempt in range(10):
            delay = policy.delay(attempt)
            assert 1.0 <= delay < 1.5

    def test_escalate_none_budget(self):
        assert RetryPolicy().escalate(None, 1) is None

    def test_escalate_compounds_per_attempt(self):
        policy = RetryPolicy(escalation=4.0)
        budget = Budget(node_cap=10)
        assert policy.escalate(budget, 0).node_cap == 10
        assert policy.escalate(budget, 1).node_cap == 40
        assert policy.escalate(budget, 2).node_cap == 160

    def test_pause_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(jitter=0.0, sleep=slept.append)
        policy.pause(0)
        assert slept == [policy.delay(0)]


class TestSessionJournal:
    def _journal(self, tmp_path, name="session.journal"):
        return SessionJournal(tmp_path / name)

    def test_exists_only_when_nonempty(self, tmp_path):
        journal = self._journal(tmp_path)
        assert not journal.exists()
        journal.path.write_text("")
        assert not journal.exists()

    def test_round_trip(self, tmp_path, registry_setting):
        journal = self._journal(tmp_path)
        pinned = parse_instance("db(own, data)")
        imported = parse_instance("db(a, 1); db(b, 2)")
        journal.ensure_header(registry_setting, pinned)
        journal.record_round(1, imported)
        state = journal.load()
        assert isinstance(state, JournalState)
        assert state.rounds == 1
        assert state.imported == imported
        assert state.pinned == pinned
        assert state.setting.name == registry_setting.name

    def test_last_commit_wins(self, tmp_path, registry_setting):
        journal = self._journal(tmp_path)
        journal.ensure_header(registry_setting, Instance())
        journal.record_round(1, parse_instance("db(a, 1)"))
        journal.record_round(2, parse_instance("db(b, 2)"))
        state = journal.load()
        assert state.rounds == 2
        assert state.imported == parse_instance("db(b, 2)")

    def test_ensure_header_is_idempotent(self, tmp_path, registry_setting):
        journal = self._journal(tmp_path)
        journal.ensure_header(registry_setting, Instance())
        journal.ensure_header(registry_setting, Instance())
        assert len(journal.path.read_text().splitlines()) == 1

    def test_torn_final_line_dropped(self, tmp_path, registry_setting):
        journal = self._journal(tmp_path)
        journal.ensure_header(registry_setting, Instance())
        journal.record_round(1, parse_instance("db(a, 1)"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "commit", "round": 2, "impo')  # crash mid-append
        state = journal.load()
        assert state.rounds == 1
        assert state.imported == parse_instance("db(a, 1)")

    def test_interior_corruption_raises(self, tmp_path, registry_setting):
        journal = self._journal(tmp_path)
        journal.ensure_header(registry_setting, Instance())
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("garbage, not json\n")  # committed (newline-terminated)
        journal.record_round(1, parse_instance("db(a, 1)"))
        with pytest.raises(JournalError):
            journal.load()

    def test_missing_header_raises(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.path.write_text('{"type": "commit", "round": 1}\n')
        with pytest.raises(JournalError):
            journal.load()

    @pytest.mark.parametrize("version", [1, 999])
    def test_unsupported_version_raises(self, tmp_path, registry_setting, version):
        journal = self._journal(tmp_path)
        journal.ensure_header(registry_setting, Instance())
        lines = journal.path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = version
        journal.path.write_text(json.dumps(header) + "\n")
        detail = "predates diff commits" if version == 1 else "unsupported version"
        with pytest.raises(JournalError, match=detail):
            journal.load()


class TestFaultHarness:
    def test_fault_clock_is_monotone(self):
        clock = FaultClock(start=5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock() == 7.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_stall_after_trips_deadline(self):
        clock = FaultClock()
        budget = Budget(
            wall_time_s=60.0,
            clock=clock,
            check_interval=1,
            probe=stall_after(clock, kind="chase-step", after=2),
        )
        budget.charge_chase_step()
        budget.charge_chase_step()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_chase_step()  # third step wedges; deadline fires
        assert info.value.status is SolveStatus.DEADLINE

    def test_cancel_after_trips_token(self):
        token = CancellationToken()
        budget = Budget(
            token=token,
            check_interval=1,
            probe=cancel_after(token, kind="node", after=1),
        )
        budget.charge_node()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_node()
        assert info.value.status is SolveStatus.CANCELLED

    def test_unknown_charge_kind_rejected(self):
        with pytest.raises(ValueError):
            stall_after(FaultClock(), kind="bogus")

    def test_faulty_feed_drop_and_duplicate(self):
        delivered = list(faulty_feed(["s0", "s1", "s2"], drop=[1], duplicate=[2]))
        assert delivered == ["s0", "s2", "s2"]

    def test_faulty_feed_default_is_faithful(self):
        assert list(faulty_feed(["a", "b"])) == ["a", "b"]
