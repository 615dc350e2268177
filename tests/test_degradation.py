"""End-to-end fault-injection tests for graceful degradation.

Each degraded :class:`~repro.runtime.SolveStatus` is demonstrated through
a full solver entry point — a deadline expiring mid-valuation-search, a
node budget exhausting mid-branching-chase, a sync round cancelled
mid-solve — and every one must surface as a *structured* result (status +
reason + partial stats), never as a raw exception, unless the budget is
strict.  The crash-recovery tests kill a journaled sync session and check
the resumed session converges to the same materialized state as an
uninterrupted run.
"""

import pytest

from repro.core.instance import Instance
from repro.core.parser import parse_instance, parse_query
from repro.core.setting import PDESetting
from repro.exceptions import BudgetExceeded, SolverError
from repro.runtime import (
    Budget,
    CancellationToken,
    FaultClock,
    RetryPolicy,
    SessionJournal,
    SolveStatus,
    cancel_after,
    faulty_feed,
    stall_after,
)
from repro.solver import certain_answers, solve
from repro.sync import SyncSession


@pytest.fixture
def valuation_setting() -> PDESetting:
    """Σ_t = ∅, nulls constrained by Σ_ts: dispatches to valuation search."""
    return PDESetting.from_text(
        source={"A": 1, "R": 2},
        target={"T": 2},
        st="A(x) -> T(x, y)",
        ts="T(x, y) -> R(x, y)",
    )


@pytest.fixture
def branching_setting() -> PDESetting:
    """An existential target tgd: auto-dispatches to the branching chase."""
    return PDESetting.from_text(
        source={"A": 2, "R": 2},
        target={"T": 2, "U": 2},
        st="A(x, q) -> T(x, y)",
        ts="T(x, y) -> R(x, y)",
        t="T(x, y) -> U(x, w)",
    )


@pytest.fixture
def registry_setting() -> PDESetting:
    return PDESetting.from_text(
        source={"reg": 2},
        target={"db": 2},
        st="reg(k, v) -> db(k, v)",
        ts="db(k, v) -> reg(k, v)",
        name="registry",
    )


def wide_source(n: int = 6) -> Instance:
    return parse_instance(
        "; ".join(f"A(a{i})" for i in range(n))
        + "; "
        + "; ".join(f"R(a{i}, b{i})" for i in range(n))
    )


class TestDeadlineMidSearch:
    def test_deadline_degrades_valuation_search(self, valuation_setting):
        # The third search node "wedges" (the fault clock jumps an hour),
        # so the deadline fires at the next cooperative checkpoint.
        clock = FaultClock()
        budget = Budget(
            wall_time_s=60.0,
            clock=clock,
            check_interval=1,
            probe=stall_after(clock, kind="node", after=2),
        )
        result = solve(
            valuation_setting, wide_source(), Instance(),
            method="valuation", budget=budget,
        )
        assert not result.decided
        assert result.status is SolveStatus.DEADLINE
        assert not result.exists  # no witness found — not a non-existence proof
        assert "deadline" in result.reason
        # Partial stats still report the work done before the stop.
        assert result.stats["budget_nodes"] >= 2

    def test_strict_deadline_raises(self, valuation_setting):
        clock = FaultClock()
        budget = Budget(
            wall_time_s=60.0,
            clock=clock,
            strict=True,
            check_interval=1,
            probe=stall_after(clock, kind="node", after=2),
        )
        with pytest.raises(BudgetExceeded) as info:
            solve(
                valuation_setting, wide_source(), Instance(),
                method="valuation", budget=budget,
            )
        assert info.value.status is SolveStatus.DEADLINE


class TestNodeBudgetMidChase:
    def test_budget_exhaustion_degrades_branching_chase(self, branching_setting):
        source = parse_instance("A(a, 1); A(b, 2); R(a, c); R(a, d); R(b, e)")
        result = solve(
            branching_setting, source, Instance(),
            budget=Budget(node_cap=1),
        )
        assert result.method == "branching-chase"
        assert not result.decided
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert "node budget" in result.reason
        assert result.stats["budget_nodes"] >= 1

    def test_same_instance_decides_with_enough_budget(self, branching_setting):
        source = parse_instance("A(a, 1); A(b, 2); R(a, c); R(a, d); R(b, e)")
        result = solve(branching_setting, source, Instance(), budget=Budget())
        assert result.decided and result.exists

    def test_strict_budget_still_raises(self, branching_setting):
        source = parse_instance("A(a, 1); A(b, 2); R(a, c); R(a, d); R(b, e)")
        with pytest.raises(SolverError):  # BudgetExceeded ⊂ SolverError
            solve(
                branching_setting, source, Instance(),
                budget=Budget(node_cap=1, strict=True),
            )

    def test_chase_step_cap_degrades_tractable_route(self, registry_setting):
        result = solve(
            registry_setting,
            parse_instance("reg(a, 1); reg(b, 2); reg(c, 3)"),
            Instance(),
            budget=Budget(chase_step_cap=1),
        )
        assert not result.decided
        assert result.status is SolveStatus.BUDGET_EXHAUSTED


class TestCancellation:
    def test_cancellation_degrades_solve(self, valuation_setting):
        token = CancellationToken()
        budget = Budget(
            token=token,
            check_interval=1,
            probe=cancel_after(token, kind="node", after=2),
        )
        result = solve(
            valuation_setting, wide_source(), Instance(),
            method="valuation", budget=budget,
        )
        assert not result.decided
        assert result.status is SolveStatus.CANCELLED
        assert "cancelled" in result.reason

    def test_cancelled_sync_round_leaves_state_unchanged(self, registry_setting):
        session = SyncSession(registry_setting)
        assert session.sync(parse_instance("reg(a, 1)")).ok
        before = session.state()

        token = CancellationToken()
        budget = Budget(
            token=token,
            check_interval=1,
            probe=cancel_after(token, kind="node", after=0),
        )
        outcome = session.sync(parse_instance("reg(a, 1); reg(b, 2)"), budget=budget)
        assert not outcome.ok
        assert outcome.degraded
        assert outcome.status is SolveStatus.CANCELLED
        assert not outcome.changed
        assert session.state() == before
        assert session.rounds == 1  # the cancelled round never committed

    def test_cancellation_is_not_retried(self, registry_setting):
        slept: list[float] = []
        session = SyncSession(
            registry_setting,
            retry=RetryPolicy(max_attempts=5, sleep=slept.append),
        )
        token = CancellationToken()
        budget = Budget(
            token=token,
            check_interval=1,
            probe=cancel_after(token, kind="node", after=0),
        )
        outcome = session.sync(parse_instance("reg(a, 1)"), budget=budget)
        assert outcome.status is SolveStatus.CANCELLED
        assert outcome.attempts == 1  # a directive, not a transient failure
        assert slept == []


class TestCertainAnswersDegradation:
    def test_partial_answers_are_a_sound_under_approximation(
        self, valuation_setting
    ):
        source = wide_source(4)
        query = parse_query("T(x, y)")
        full = certain_answers(valuation_setting, query, source, Instance())
        assert full.decided

        partial = certain_answers(
            valuation_setting, query, source, Instance(),
            budget=Budget(node_cap=3),
        )
        assert not partial.decided
        assert partial.status is SolveStatus.BUDGET_EXHAUSTED
        assert partial.answers <= full.answers


class TestRetryEscalation:
    def test_escalated_retry_turns_exhaustion_into_success(self, valuation_setting):
        slept: list[float] = []
        session = SyncSession(
            valuation_setting,
            retry=RetryPolicy(
                max_attempts=3, escalation=8.0, jitter=0.0, sleep=slept.append
            ),
        )
        snapshot = wide_source(3)
        # node_cap=1 cannot embed three null blocks; the escalated retry can.
        outcome = session.sync(snapshot, budget=Budget(node_cap=1))
        assert outcome.ok
        assert outcome.attempts == 2
        assert len(slept) == 1  # backed off once between the attempts
        assert valuation_setting.is_solution(snapshot, Instance(), session.state())

    def test_gives_up_after_max_attempts(self, valuation_setting):
        slept: list[float] = []
        session = SyncSession(
            valuation_setting,
            retry=RetryPolicy(
                max_attempts=2, escalation=1.0, jitter=0.0, sleep=slept.append
            ),
        )
        outcome = session.sync(wide_source(3), budget=Budget(node_cap=1))
        assert not outcome.ok
        assert outcome.degraded
        assert outcome.status is SolveStatus.BUDGET_EXHAUSTED
        assert outcome.attempts == 2
        assert session.rounds == 0

    def test_deadline_is_not_retried(self, registry_setting):
        # The deadline is an absolute fact shared by all attempts: retrying
        # against an expired clock is futile, so the round returns at once.
        slept: list[float] = []
        clock = FaultClock()
        session = SyncSession(
            registry_setting,
            retry=RetryPolicy(max_attempts=5, sleep=slept.append),
        )
        budget = Budget(wall_time_s=1.0, clock=clock, check_interval=1)
        clock.advance(2.0)
        outcome = session.sync(parse_instance("reg(a, 1)"), budget=budget)
        assert outcome.status is SolveStatus.DEADLINE
        assert outcome.attempts == 1
        assert slept == []

    def test_strict_budget_raise_still_feeds_the_retry_loop(
        self, valuation_setting
    ):
        # Legacy strict budgets raise out of solve(); the session treats the
        # raise as a degraded attempt so the retry policy still applies.
        session = SyncSession(
            valuation_setting,
            retry=RetryPolicy(max_attempts=3, escalation=8.0, jitter=0.0,
                              sleep=lambda _s: None),
        )
        outcome = session.sync(
            wide_source(3), budget=Budget(node_cap=1, strict=True)
        )
        assert outcome.ok
        assert outcome.attempts == 2


class TestFaultyDelivery:
    def test_sync_converges_under_drops_and_duplicates(self, registry_setting):
        # Each snapshot is authoritative, so a session fed a lossy,
        # at-least-once delivery schedule must still converge to the state
        # implied by the last delivered snapshot.
        snapshots = [
            parse_instance("reg(a, 1)"),
            parse_instance("reg(a, 1); reg(b, 2)"),  # dropped
            parse_instance("reg(b, 2); reg(c, 3)"),  # delivered twice
        ]
        faulty = SyncSession(registry_setting)
        for snapshot in faulty_feed(snapshots, drop=[1], duplicate=[2]):
            assert faulty.sync(snapshot).ok

        clean = SyncSession(registry_setting)
        assert clean.sync(snapshots[-1]).ok
        assert faulty.state() == clean.state()


class TestJournalCrashRecovery:
    SNAPSHOTS = [
        "reg(a, 1); reg(b, 2)",
        "reg(a, 1); reg(b, 2); reg(c, 3)",
        "reg(b, 2); reg(c, 3)",  # withdrawal round
    ]

    def test_killed_and_restored_session_matches_uninterrupted_run(
        self, tmp_path, registry_setting
    ):
        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(registry_setting, journal=journal)
        for text in self.SNAPSHOTS[:2]:
            assert session.sync(parse_instance(text)).ok
        killed_state = session.state()
        del session  # the process dies here; only the journal survives

        restored = SyncSession.resume(journal)
        assert restored.rounds == 2
        assert restored.state() == killed_state
        assert restored.sync(parse_instance(self.SNAPSHOTS[2])).ok
        assert restored.rounds == 3

        uninterrupted = SyncSession(registry_setting)
        for text in self.SNAPSHOTS:
            assert uninterrupted.sync(parse_instance(text)).ok
        assert restored.state() == uninterrupted.state()
        assert restored.rounds == uninterrupted.rounds

    def test_resume_tolerates_a_torn_final_append(
        self, tmp_path, registry_setting
    ):
        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(registry_setting, journal=journal)
        for text in self.SNAPSHOTS[:2]:
            assert session.sync(parse_instance(text)).ok
        # The process died mid-append: the final record never committed.
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "commit", "round": 3, "imported"')

        restored = SyncSession.resume(journal)
        assert restored.rounds == 2
        assert restored.state() == session.state()
        # Later commits must not land on the torn fragment: the session
        # keeps running, and a second resume still recovers all of it.
        for text in self.SNAPSHOTS[2:]:
            assert restored.sync(parse_instance(text)).ok
        resumed_again = SyncSession.resume(SessionJournal(journal.path))

        uninterrupted = SyncSession(registry_setting)
        for text in self.SNAPSHOTS:
            assert uninterrupted.sync(parse_instance(text)).ok
        assert resumed_again.rounds == uninterrupted.rounds == 3
        assert resumed_again.state() == uninterrupted.state()

    def test_resume_preserves_pinned_facts(self, tmp_path, registry_setting):
        journal = SessionJournal(tmp_path / "session.journal")
        pinned = parse_instance("db(own, data)")
        session = SyncSession(registry_setting, pinned=pinned, journal=journal)
        assert session.sync(parse_instance("reg(own, data); reg(a, 1)")).ok

        restored = SyncSession.resume(journal)
        assert restored.pinned == pinned
        assert restored.state() == session.state()
        # The restored session keeps enforcing the pinned facts.
        rejected = restored.sync(parse_instance("reg(a, 1)"))
        assert not rejected.ok and "pinned" in rejected.reason

    def test_degraded_rounds_never_touch_the_journal(
        self, tmp_path, valuation_setting
    ):
        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(valuation_setting, journal=journal)
        assert session.sync(wide_source(1)).ok
        size_before = journal.path.stat().st_size
        outcome = session.sync(wide_source(3), budget=Budget(node_cap=1))
        assert outcome.degraded
        assert journal.path.stat().st_size == size_before
        assert SyncSession.resume(journal).rounds == 1
