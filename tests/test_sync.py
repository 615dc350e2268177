"""Tests for incremental synchronization sessions."""

import pytest

from repro.core.instance import Instance
from repro.core.parser import parse_instance
from repro.core.setting import PDESetting
from repro.runtime import Budget, SolveStatus
from repro.sync import SyncSession
from repro.workloads import generate_genomics_data, genomics_setting


@pytest.fixture
def registry_setting() -> PDESetting:
    return PDESetting.from_text(
        source={"reg": 2},
        target={"db": 2},
        st="reg(k, v) -> db(k, v)",
        ts="db(k, v) -> reg(k, v)",
        name="registry",
    )


class TestBasicRounds:
    def test_first_round_imports_everything(self, registry_setting):
        session = SyncSession(registry_setting)
        outcome = session.sync(parse_instance("reg(a, 1); reg(b, 2)"))
        assert outcome.ok
        assert len(outcome.added) == 2
        assert len(outcome.retracted) == 0
        assert session.state() == parse_instance("db(a, 1); db(b, 2)")

    def test_idempotent_round(self, registry_setting):
        session = SyncSession(registry_setting)
        source = parse_instance("reg(a, 1)")
        session.sync(source)
        outcome = session.sync(source)
        assert outcome.ok
        assert not outcome.changed

    def test_additions_are_incremental(self, registry_setting):
        session = SyncSession(registry_setting)
        session.sync(parse_instance("reg(a, 1)"))
        outcome = session.sync(parse_instance("reg(a, 1); reg(b, 2)"))
        assert outcome.ok
        assert outcome.added == parse_instance("db(b, 2)")

    def test_withdrawal_retracts_import(self, registry_setting):
        session = SyncSession(registry_setting)
        session.sync(parse_instance("reg(a, 1); reg(b, 2)"))
        outcome = session.sync(parse_instance("reg(a, 1)"))
        assert outcome.ok
        assert outcome.retracted == parse_instance("db(b, 2)")
        assert session.state() == parse_instance("db(a, 1)")

    def test_round_counter(self, registry_setting):
        session = SyncSession(registry_setting)
        session.sync(parse_instance("reg(a, 1)"))
        session.sync(parse_instance("reg(a, 1)"))
        assert session.rounds == 2


class TestPinnedFacts:
    def test_pinned_facts_survive(self, registry_setting):
        pinned = parse_instance("db(own, data)")
        session = SyncSession(registry_setting, pinned=pinned)
        # The source must vouch for the pinned fact, else rejection.
        outcome = session.sync(parse_instance("reg(own, data); reg(a, 1)"))
        assert outcome.ok
        assert session.state().contains_instance(pinned)

    def test_unvouched_pinned_fact_rejects_round(self, registry_setting):
        pinned = parse_instance("db(own, data)")
        session = SyncSession(registry_setting, pinned=pinned)
        outcome = session.sync(parse_instance("reg(a, 1)"))
        assert not outcome.ok
        assert "pinned" in outcome.reason
        # State unchanged on rejection.
        assert session.state() == pinned

    def test_pinned_never_retracted_by_withdrawal(self, registry_setting):
        pinned = parse_instance("db(own, data)")
        session = SyncSession(registry_setting, pinned=pinned)
        session.sync(parse_instance("reg(own, data); reg(a, 1)"))
        outcome = session.sync(parse_instance("reg(own, data)"))
        assert outcome.ok
        assert outcome.retracted == parse_instance("db(a, 1)")
        assert session.state() == pinned


class TestSolutionInvariant:
    def test_state_is_always_a_solution(self, registry_setting):
        session = SyncSession(registry_setting)
        snapshots = [
            "reg(a, 1); reg(b, 2)",
            "reg(a, 1); reg(b, 2); reg(c, 3)",
            "reg(b, 2); reg(c, 3)",
            "reg(c, 3)",
        ]
        for text in snapshots:
            source = parse_instance(text)
            outcome = session.sync(source)
            assert outcome.ok
            assert registry_setting.is_solution(
                source, session.pinned, session.state()
            )

    def test_genomics_session(self):
        setting = genomics_setting()
        session = SyncSession(setting)
        first, _ = generate_genomics_data(proteins=6, seed=1)
        second, _ = generate_genomics_data(proteins=9, seed=1)
        outcome1 = session.sync(first)
        outcome2 = session.sync(second)
        assert outcome1.ok and outcome2.ok
        assert len(outcome2.added) > 0
        assert setting.is_solution(second, Instance(), session.state())

    def test_disjunctive_ts_any_satisfied_disjunct_justifies(self):
        # Σ_ts with a disjunctive head: an imported fact stays justified as
        # long as *some* disjunct holds in the new source, and is retracted
        # only when every disjunct fails.
        setting = PDESetting.from_text(
            source={"reg": 2, "alt": 2},
            target={"db": 2},
            st="reg(k, v) -> db(k, v)",
            ts="db(k, v) -> (reg(k, v)) | (alt(k, v))",
            name="mirrored-registry",
        )
        session = SyncSession(setting)
        first = session.sync(parse_instance("reg(a, 1); reg(b, 2)"))
        assert first.ok
        assert session.state() == parse_instance("db(a, 1); db(b, 2)")

        # reg withdraws both rows, but alt still vouches for (a, 1): only
        # db(b, 2) loses its justification.
        second = session.sync(parse_instance("alt(a, 1)"))
        assert second.ok
        assert second.retracted == parse_instance("db(b, 2)")
        assert session.state() == parse_instance("db(a, 1)")

        # Now neither disjunct vouches for (a, 1) either.
        third = session.sync(parse_instance("alt(z, 9)"))
        assert third.ok
        assert third.retracted == parse_instance("db(a, 1)")
        assert session.state() == Instance(schema=setting.target_schema)

    def test_budget_exhausted_round_degrades(self, registry_setting):
        session = SyncSession(registry_setting)
        assert session.sync(parse_instance("reg(a, 1)")).ok
        before = session.state()
        outcome = session.sync(
            parse_instance("reg(a, 1); reg(b, 2); reg(c, 3)"),
            budget=Budget(chase_step_cap=1),
        )
        assert not outcome.ok
        assert outcome.degraded
        assert outcome.status is SolveStatus.BUDGET_EXHAUSTED
        assert session.state() == before
        assert session.rounds == 1

    def test_incremental_matches_from_scratch(self, registry_setting):
        from repro.solver import solve

        session = SyncSession(registry_setting)
        session.sync(parse_instance("reg(a, 1)"))
        session.sync(parse_instance("reg(a, 1); reg(b, 2)"))
        fresh = solve(
            registry_setting,
            parse_instance("reg(a, 1); reg(b, 2)"),
            Instance(),
        ).solution
        assert session.state() == fresh


class TestResumeWithRetractions:
    def test_resume_after_a_retraction_round(self, tmp_path, registry_setting):
        # The last committed round withdrew facts; the resumed session must
        # reproduce the post-retraction state, not resurrect the imports.
        from repro.runtime import SessionJournal

        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(registry_setting, journal=journal)
        assert session.sync(parse_instance("reg(a, 1); reg(b, 2)")).ok
        outcome = session.sync(parse_instance("reg(b, 2)"))  # a withdrawn
        assert outcome.ok
        assert outcome.retracted == parse_instance("db(a, 1)")
        killed_state = session.state()
        del session

        restored = SyncSession.resume(journal)
        assert restored.state() == killed_state
        assert restored.state() == parse_instance("db(b, 2)")

    def test_resumed_session_retracts_pending_withdrawals(
        self, tmp_path, registry_setting
    ):
        # The withdrawal arrives only *after* the crash: the resumed
        # session must still honor it against its re-imported facts.
        from repro.runtime import SessionJournal

        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(registry_setting, journal=journal)
        assert session.sync(parse_instance("reg(a, 1); reg(b, 2)")).ok
        del session

        restored = SyncSession.resume(journal)
        outcome = restored.sync(parse_instance("reg(b, 2)"))
        assert outcome.ok
        assert outcome.retracted == parse_instance("db(a, 1)")
        assert restored.state() == parse_instance("db(b, 2)")

    def test_stamped_retraction_round_resumes_with_watermark(
        self, tmp_path, registry_setting
    ):
        # Retraction + stamp in the same committed round: both survive.
        from repro.runtime import SessionJournal
        from repro.sync import Stamp

        journal = SessionJournal(tmp_path / "session.journal")
        session = SyncSession(registry_setting, journal=journal)
        assert session.sync(
            parse_instance("reg(a, 1); reg(b, 2)"), stamp=Stamp(1, 1)
        ).ok
        assert session.sync(parse_instance("reg(b, 2)"), stamp=Stamp(1, 2)).ok
        del session

        restored = SyncSession.resume(journal)
        assert restored.last_stamp == Stamp(1, 2)
        assert restored.state() == parse_instance("db(b, 2)")
        # Redelivering the pre-retraction snapshot must not resurrect a.
        assert restored.sync(
            parse_instance("reg(a, 1); reg(b, 2)"), stamp=Stamp(1, 1)
        ).stale
        assert restored.state() == parse_instance("db(b, 2)")

    def test_resumed_genomics_session_matches_uninterrupted(self, tmp_path):
        # Journaled evidence facts carry labeled nulls (the existential
        # batch); the resumed session's first chase must mint new labels
        # above them, or fresh evidence shares a null with old evidence.
        from repro.core.homomorphism import has_instance_homomorphism
        from repro.runtime import SessionJournal
        from repro.sync import Stamp
        from repro.workloads import generate_genomics_feed

        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=3, proteins=8, churn=0.25, seed=3)
        uninterrupted = SyncSession(setting)
        for seq, snapshot in enumerate(feed, 1):
            assert uninterrupted.sync(snapshot, stamp=Stamp(1, seq)).ok

        journal = SessionJournal(tmp_path / "genomics.journal")
        session = SyncSession(setting, journal=journal)
        for seq, snapshot in enumerate(feed[:2], 1):
            assert session.sync(snapshot, stamp=Stamp(1, seq)).ok
        del session
        resumed = SyncSession.resume(journal)
        assert resumed.sync(feed[2], stamp=Stamp(1, 3)).ok

        assert setting.is_solution(feed[2], Instance(), resumed.state())
        assert has_instance_homomorphism(resumed.state(), uninterrupted.state())
        assert has_instance_homomorphism(uninterrupted.state(), resumed.state())


class TestDeltaRounds:
    """Incremental ``(added, withdrawn)`` rounds via ``sync_delta``."""

    def seeded(self, setting, journal=None) -> "SyncSession":
        from repro.sync import Stamp

        session = SyncSession(setting, journal=journal)
        outcome = session.sync(
            parse_instance("reg(a, 1); reg(b, 2)"), stamp=Stamp(1, 1)
        )
        assert outcome.ok
        return session

    def test_delta_commits_the_same_state_as_the_full_snapshot(
        self, registry_setting
    ):
        from repro.sync import Stamp

        # Patch reg(a,1);reg(b,2) into reg(b,2);reg(c,3) incrementally...
        patched = self.seeded(registry_setting)
        outcome = patched.sync_delta(
            added=parse_instance("reg(c, 3)"),
            withdrawn=parse_instance("reg(a, 1)"),
            base=Stamp(1, 1),
            stamp=Stamp(1, 2),
        )
        assert outcome.ok and outcome.delta and not outcome.chain_broken
        assert outcome.added == parse_instance("db(c, 3)")
        assert outcome.retracted == parse_instance("db(a, 1)")
        # ...and it must equal the full-snapshot round of the same I_t.
        full = self.seeded(registry_setting)
        assert full.sync(
            parse_instance("reg(b, 2); reg(c, 3)"), stamp=Stamp(1, 2)
        ).ok
        assert patched.state() == full.state()
        assert patched.last_stamp == Stamp(1, 2)

    def test_fresh_session_breaks_the_chain(self, registry_setting):
        from repro.sync import DELTA_CHAIN_BROKEN, Stamp

        session = SyncSession(registry_setting)
        outcome = session.sync_delta(
            added=parse_instance("reg(c, 3)"),
            withdrawn=Instance(),
            base=Stamp(1, 1),
            stamp=Stamp(1, 2),
        )
        assert not outcome.ok
        assert outcome.chain_broken and outcome.delta
        assert outcome.reason == DELTA_CHAIN_BROKEN
        assert len(session.state()) == 0
        assert session.last_stamp is None  # nothing committed

    def test_mismatched_base_breaks_the_chain_and_leaves_state_alone(
        self, registry_setting
    ):
        from repro.sync import Stamp

        session = self.seeded(registry_setting)
        before = session.state()
        outcome = session.sync_delta(
            added=parse_instance("reg(d, 4)"),
            withdrawn=Instance(),
            base=Stamp(1, 2),  # watermark is 1.1: the 1.2 delta was missed
            stamp=Stamp(1, 3),
        )
        assert outcome.chain_broken
        assert session.state() == before
        assert session.last_stamp == Stamp(1, 1)

    def test_full_snapshot_repairs_a_broken_chain(self, registry_setting):
        from repro.sync import Stamp

        session = self.seeded(registry_setting)
        assert session.sync_delta(
            added=Instance(), withdrawn=Instance(),
            base=Stamp(1, 2), stamp=Stamp(1, 3),
        ).chain_broken
        # The sender's fallback: a full snapshot at the latest stamp...
        assert session.sync(
            parse_instance("reg(b, 2); reg(c, 3)"), stamp=Stamp(1, 3)
        ).ok
        # ...after which the next delta chains from it again.
        outcome = session.sync_delta(
            added=parse_instance("reg(d, 4)"),
            withdrawn=parse_instance("reg(b, 2)"),
            base=Stamp(1, 3),
            stamp=Stamp(1, 4),
        )
        assert outcome.ok and not outcome.chain_broken
        assert session.state() == parse_instance("db(c, 3); db(d, 4)")

    def test_stale_delta_is_a_no_op_before_any_chain_check(
        self, registry_setting
    ):
        from repro.sync import Stamp

        session = self.seeded(registry_setting)
        before = session.state()
        # Redelivered delta at the watermark, with a base that would break
        # the chain: staleness must win (redelivery is always harmless).
        outcome = session.sync_delta(
            added=parse_instance("reg(z, 9)"),
            withdrawn=Instance(),
            base=Stamp(1, 7),
            stamp=Stamp(1, 1),
        )
        assert outcome.ok and outcome.stale and outcome.delta
        assert not outcome.chain_broken
        assert session.state() == before
        assert session.rounds == 1

    def test_resume_restores_the_delta_base(self, tmp_path, registry_setting):
        from repro.runtime import SessionJournal
        from repro.sync import Stamp

        journal = SessionJournal(tmp_path / "session.journal")
        session = self.seeded(registry_setting, journal=journal)
        del session

        restored = SyncSession.resume(journal)
        outcome = restored.sync_delta(
            added=parse_instance("reg(c, 3)"),
            withdrawn=parse_instance("reg(a, 1)"),
            base=Stamp(1, 1),
            stamp=Stamp(1, 2),
        )
        assert outcome.ok and not outcome.chain_broken
        assert restored.state() == parse_instance("db(b, 2); db(c, 3)")

    def test_legacy_journal_without_source_breaks_then_recovers(
        self, tmp_path, registry_setting
    ):
        import json

        from repro.runtime import SessionJournal
        from repro.sync import Stamp

        path = tmp_path / "session.journal"
        session = self.seeded(registry_setting, journal=SessionJournal(path))
        del session
        # A journal written before delta support has no retained source.
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("source", None)
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n")

        restored = SyncSession.resume(SessionJournal(path))
        assert restored.last_stamp == Stamp(1, 1)  # watermark survives
        outcome = restored.sync_delta(
            added=parse_instance("reg(c, 3)"),
            withdrawn=Instance(),
            base=Stamp(1, 1),
            stamp=Stamp(1, 2),
        )
        assert outcome.chain_broken  # no base: one full refresh needed
        assert restored.sync(
            parse_instance("reg(a, 1); reg(b, 2); reg(c, 3)"), stamp=Stamp(1, 2)
        ).ok
