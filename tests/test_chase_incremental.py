"""Tests for the incremental (semi-naive) chase and the stateful solver.

The central contract: chaining :func:`chase_incremental` over any delta
schedule produces an instance homomorphically equivalent to chasing the
patched base from scratch — the same "agree up to null renaming" oracle
(`has_instance_homomorphism` both ways) the network convergence check
uses.  The from-scratch side is the naive reference chase in
``tests/reference_chase.py``, not :func:`chase`, which runs the same loop
as the incremental chase.  The suite covers directed unit cases
(retraction cascades, alternative justifications, vanished head
witnesses, input promotion, egd refusals, consume semantics), seeded
random delta schedules over the shipped workloads, a hypothesis sweep
over random bases/deltas, and the solver/session integration
(equivalence to the Figure 3 solver, reset paths, the ``chase.*``
counters).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import Fact
from repro.core.chase import chase, chase_incremental
from repro.core.homomorphism import has_instance_homomorphism
from repro.core.instance import Instance
from repro.core.parser import parse_dependencies, parse_dependency, parse_instance
from repro.core.terms import Constant, NullFactory
from repro.exceptions import DependencyError, IncrementalChaseUnsupported
from repro.obs.metrics import MetricsRegistry
from repro.solver.incremental import IncrementalTractableSolver
from repro.solver.tractable import exists_solution_tractable
from repro.sync.session import Stamp, SyncSession
from repro.workloads.scenarios import (
    generate_genomics_feed,
    genomics_setting,
)

from tests.reference_chase import reference_chase


def equivalent(left: Instance, right: Instance) -> bool:
    """Hom-equivalence: equal up to null renaming (the convergence oracle)."""
    return has_instance_homomorphism(
        left, right
    ) and has_instance_homomorphism(right, left)


def facts_of(instance: Instance) -> set[Fact]:
    return set(instance)


class TestIncrementalChaseUnits:
    TGDS = parse_dependencies("E(x, y) -> H(x, y); H(x, y), H(y, z) -> H(x, z)")

    def test_add_only_delta_matches_scratch(self):
        base = parse_instance("E(a, b)")
        prior = chase(base, self.TGDS)
        delta = [Fact("E", (Constant("b"), Constant("c")))]
        result = chase_incremental(prior, delta, [], self.TGDS)
        patched = base.copy()
        for fact in delta:
            patched.add(fact)
        assert equivalent(result.instance, reference_chase(patched, self.TGDS))
        assert result.incremental
        assert result.refired > 0

    def test_withdrawal_retracts_derivation_cone(self):
        base = parse_instance("E(a, b); E(b, c)")
        prior = chase(base, self.TGDS)
        gone = Fact("E", (Constant("a"), Constant("b")))
        result = chase_incremental(prior, [], [gone], self.TGDS)
        expected = reference_chase(parse_instance("E(b, c)"), self.TGDS)
        assert equivalent(result.instance, expected)
        # E(a,b), H(a,b), and H(a,c) all vanish with the justification.
        assert len(result.retracted) == 3

    def test_alternative_justification_survives(self):
        # H(a,b) is derivable from E(a,b) and independently from F(a,b);
        # withdrawing E(a,b) must re-derive it, not lose it.
        tgds = parse_dependencies("E(x, y) -> H(x, y); F(x, y) -> H(x, y)")
        base = parse_instance("E(a, b); F(a, b)")
        prior = chase(base, tgds)
        result = chase_incremental(
            prior, [], [Fact("E", (Constant("a"), Constant("b")))], tgds
        )
        assert Fact("H", (Constant("a"), Constant("b"))) in result.instance
        assert equivalent(
            result.instance, reference_chase(parse_instance("F(a, b)"), tgds)
        )

    def test_vanished_head_witness_refires(self):
        # The restricted chase never fired the tgd (H(a,b) already held);
        # withdrawing the witness must fire it now.
        tgds = [parse_dependency("E(x, y) -> H(x, y)")]
        base = parse_instance("E(a, b); H(a, b)")
        prior = chase(base, tgds)
        assert prior.step_count == 0
        result = chase_incremental(
            prior, [], [Fact("H", (Constant("a"), Constant("b")))], tgds
        )
        assert Fact("H", (Constant("a"), Constant("b"))) in result.instance
        assert result.refired == 1

    def test_existential_witness_refires_fresh_null(self):
        tgds = [parse_dependency("E(x, y) -> H(x, w)")]
        base = parse_instance("E(a, b); H(a, c)")
        prior = chase(base, tgds)
        assert prior.step_count == 0  # H(a,c) witnesses the head
        result = chase_incremental(
            prior, [], [Fact("H", (Constant("a"), Constant("c")))], tgds
        )
        expected = reference_chase(parse_instance("E(a, b)"), tgds)
        assert equivalent(result.instance, expected)
        assert result.instance.count("H") == 1

    def test_promoted_input_survives_withdrawal_of_derivation(self):
        tgds = [parse_dependency("E(x, y) -> H(x, y)")]
        base = parse_instance("E(a, b)")
        prior = chase(base, tgds)  # derives H(a, b)
        h = Fact("H", (Constant("a"), Constant("b")))
        e = Fact("E", (Constant("a"), Constant("b")))
        # Round 1: H(a,b) arrives as *input*.
        step1 = chase_incremental(prior, [h], [], tgds)
        # Round 2: the derivation's premise is withdrawn; H must survive.
        step2 = chase_incremental(step1, [], [e], tgds)
        assert h in step2.instance
        assert e not in step2.instance

    def test_withdrawing_derived_fact_is_vacuous(self):
        tgds = [parse_dependency("E(x, y) -> H(x, y)")]
        prior = chase(parse_instance("E(a, b)"), tgds)
        h = Fact("H", (Constant("a"), Constant("b")))
        result = chase_incremental(prior, [], [h], tgds)
        # The new base never contained H(a,b); the chase re-derives it, so
        # withdrawing it incrementally is a no-op.
        assert h in result.instance
        assert result.retracted == ()

    def test_egd_merge_history_unsupported(self):
        deps = parse_dependencies(
            "E(x) -> H(x, w);"
            "G(x, y) -> H(x, y);"
            "H(x, y), H(x, z) -> y = z"
        )
        # The first tgd invents H(a, n); G then forces H(a, b), and the
        # egd merges n into b.
        prior = chase(parse_instance("E(a); G(a, b)"), deps)
        assert any(step.merged for step in prior.steps)
        with pytest.raises(IncrementalChaseUnsupported):
            chase_incremental(prior, [], [], deps)

    def test_egd_newly_applicable_unsupported(self):
        deps = parse_dependencies(
            "E(x, y) -> H(x, w); H(x, y), H(x, z) -> y = z"
        )
        prior = chase(parse_instance("E(a, b)"), deps)
        with pytest.raises(IncrementalChaseUnsupported):
            chase_incremental(
                prior, [Fact("H", (Constant("a"), Constant("q")))], [], deps
            )

    def test_disjunctive_dependency_rejected(self):
        from repro.core.atoms import Atom
        from repro.core.dependencies import DisjunctiveTGD
        from repro.core.terms import Variable

        x, y = Variable("x"), Variable("y")
        deps = [
            DisjunctiveTGD(
                body=[Atom("E", (x, y))],
                disjuncts=[[Atom("H", (x, y))], [Atom("G", (x, y))]],
            )
        ]
        prior = chase(parse_instance("E(a, b)"), [])
        with pytest.raises(DependencyError):
            chase_incremental(prior, [], [], deps)

    def test_prior_not_mutated_by_default(self):
        prior = chase(parse_instance("E(a, b)"), self.TGDS)
        before = facts_of(prior.instance)
        chase_incremental(
            prior,
            [Fact("E", (Constant("b"), Constant("c")))],
            [Fact("E", (Constant("a"), Constant("b")))],
            self.TGDS,
        )
        assert facts_of(prior.instance) == before

    def test_consume_takes_over_instance(self):
        prior = chase(parse_instance("E(a, b)"), self.TGDS)
        result = chase_incremental(
            prior,
            [Fact("E", (Constant("b"), Constant("c")))],
            [],
            self.TGDS,
            consume=True,
        )
        assert result.instance is prior.instance  # ownership transferred

    def test_delta_fields_report_net_effect(self):
        tgds = [parse_dependency("E(x, y) -> H(x, y)")]
        prior = chase(parse_instance("E(a, b)"), tgds)
        e_new = Fact("E", (Constant("c"), Constant("d")))
        e_old = Fact("E", (Constant("a"), Constant("b")))
        result = chase_incremental(prior, [e_new], [e_old], tgds)
        added = set(result.delta_added)
        assert e_new in added
        assert Fact("H", (Constant("c"), Constant("d"))) in added
        retracted = set(result.retracted)
        assert e_old in retracted
        assert Fact("H", (Constant("a"), Constant("b"))) in retracted

    def test_support_index_transfers_and_rebuilds(self):
        prior = chase(parse_instance("E(a, b)"), self.TGDS)
        assert prior.support is None
        step1 = chase_incremental(
            prior, [Fact("E", (Constant("b"), Constant("c")))], [], self.TGDS
        )
        assert step1.support is not None
        assert prior.support is None
        # Chaining from the successor reuses the transferred index.
        step2 = chase_incremental(
            step1, [Fact("E", (Constant("c"), Constant("d")))], [], self.TGDS
        )
        assert step1.support is None
        assert step2.support is not None


class TestRandomDeltaSchedules:
    """Seeded random churn: the incremental chain tracks the scratch chase."""

    DEPS = parse_dependencies(
        "E(x, y) -> H(x, y);"
        "H(x, y), H(y, z) -> H(x, z);"
        "E(x, y) -> R(x, w);"
        "F(x) -> H(x, x)"
    )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_schedule_equivalence(self, seed):
        rng = random.Random(seed)
        names = [Constant(c) for c in "abcdef"]
        pool = [Fact("E", (u, v)) for u in names for v in names] + [
            Fact("F", (u,)) for u in names
        ]
        base = Instance(rng.sample(pool, k=8))
        factory = NullFactory()
        prior = chase(base, self.DEPS, null_factory=factory)
        live = facts_of(base)
        for _ in range(6):
            added = rng.sample([f for f in pool if f not in live], k=rng.randint(0, 4))
            withdrawn = rng.sample(sorted(live, key=str), k=rng.randint(0, 3))
            live = (live - set(withdrawn)) | set(added)
            prior = chase_incremental(
                prior, added, withdrawn, self.DEPS, null_factory=factory
            )
            scratch = reference_chase(Instance(live), self.DEPS)
            assert equivalent(prior.instance, scratch)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_genomics_feed_equivalence(self, seed):
        setting = genomics_setting()
        deps = list(setting.sigma_st)
        feed = generate_genomics_feed(
            rounds=5, proteins=25, churn=0.3, seed=seed
        )
        factory = NullFactory()
        prior = chase(feed[0], deps, null_factory=factory)
        prev = feed[0]
        for snap in feed[1:]:
            added, withdrawn = snap.diff(prev)
            prior = chase_incremental(
                prior, added, withdrawn, deps, null_factory=factory
            )
            assert equivalent(prior.instance, reference_chase(snap, deps))
            prev = snap


# Hypothesis sweep: arbitrary small bases and deltas over a fixed mixed
# dependency set (full + transitive + existential tgds).
_SWEEP_DEPS = parse_dependencies(
    "E(x, y) -> H(y, x); H(x, y), E(y, z) -> H(x, z); E(x, x) -> R(x, w)"
)
_vals = st.sampled_from([Constant(c) for c in "abcd"])
_e_facts = st.builds(lambda u, v: Fact("E", (u, v)), _vals, _vals)


class TestHypothesisEquivalence:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(_e_facts, max_size=8),
        st.lists(_e_facts, max_size=4),
        st.lists(_e_facts, max_size=4),
    )
    def test_single_delta_equivalence(self, base_facts, added, withdrawn):
        base = Instance(base_facts)
        prior = chase(base, _SWEEP_DEPS)
        result = chase_incremental(prior, added, withdrawn, _SWEEP_DEPS)
        patched = base.copy()
        for fact in withdrawn:
            patched.discard(fact)
        for fact in added:
            patched.add(fact)
        scratch = reference_chase(patched, _SWEEP_DEPS)
        assert equivalent(result.instance, scratch)


class TestIncrementalSolver:
    def test_matches_tractable_solver_on_churn(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=6, proteins=30, churn=0.25, seed=9)
        solver = IncrementalTractableSolver(setting)
        target = Instance(schema=setting.target_schema)
        for i, snap in enumerate(feed):
            got = solver.solve(snap, target)
            want = exists_solution_tractable(setting, snap, target)
            assert got.exists == want.exists
            if got.exists:
                assert equivalent(got.solution, want.solution)
            assert got.method == ("tractable" if i == 0 else "tractable-incremental")

    def test_reset_forces_cold_round(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=3, proteins=10, churn=0.2, seed=1)
        solver = IncrementalTractableSolver(setting)
        target = Instance(schema=setting.target_schema)
        solver.solve(feed[0], target)
        solver.reset()
        assert not solver.warm
        result = solver.solve(feed[1], target)
        assert result.method == "tractable"
        assert solver.warm

    def test_non_ctract_setting_rejected(self):
        from repro.core.setting import PDESetting
        from repro.exceptions import SolverError

        setting = PDESetting.from_text(
            source={"s": 1},
            target={"t": 1},
            st="s(x) -> t(x)",
            ts="t(x) -> s(x)",
            t="t(x), t(y) -> x = y",
            name="constrained",
        )
        with pytest.raises(SolverError):
            IncrementalTractableSolver(setting)

    def test_counters_emitted(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=3, proteins=10, churn=0.2, seed=2)
        solver = IncrementalTractableSolver(setting)
        target = Instance(schema=setting.target_schema)
        registry = MetricsRegistry()
        for snap in feed:
            solver.solve(snap, target, metrics=registry)
        counters = registry.snapshot()["counters"]
        assert counters["chase.incremental"] == 2  # rounds after the cold one
        assert counters["chase.refired"] > 0


class TestSessionIntegration:
    def _feed_deltas(self, feed, schema):
        prev = feed[0]
        for snap in feed[1:]:
            added, withdrawn = snap.diff(prev)
            ai = Instance(schema=schema)
            for fact in added:
                ai.add(fact)
            wi = Instance(schema=schema)
            for fact in withdrawn:
                wi.add(fact)
            yield ai, wi
            prev = snap

    def test_incremental_session_matches_scratch_session(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=6, proteins=25, churn=0.25, seed=4)

        def drive(incremental):
            session = SyncSession(setting, incremental=incremental)
            session.sync(feed[0], stamp=Stamp(0, 0))
            for i, (ai, wi) in enumerate(
                self._feed_deltas(feed, setting.source_schema), 1
            ):
                outcome = session.sync_delta(
                    ai, wi, base=Stamp(0, i - 1), stamp=Stamp(0, i)
                )
                assert outcome.ok
            return session

        fast, slow = drive(True), drive(False)
        assert equivalent(fast.state(), slow.state())

    def test_smoke_incremental_counter_exercised(self):
        # Tier-1 smoke (ISSUE 10): a small churn scenario must actually
        # take the incremental path, observable via chase.incremental.
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=4, proteins=12, churn=0.2, seed=6)
        session = SyncSession(setting)
        registry = MetricsRegistry()
        session.sync(feed[0], stamp=Stamp(0, 0), metrics=registry)
        for i, (ai, wi) in enumerate(
            self._feed_deltas(feed, setting.source_schema), 1
        ):
            outcome = session.sync_delta(
                ai, wi, base=Stamp(0, i - 1), stamp=Stamp(0, i),
                metrics=registry,
            )
            assert outcome.ok
        counters = registry.snapshot()["counters"]
        assert counters.get("chase.incremental", 0) > 0

    def test_epoch_bump_resets_pipeline(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=3, proteins=12, churn=0.2, seed=7)
        session = SyncSession(setting)
        session.sync(feed[0], stamp=Stamp(0, 0))
        session.sync(feed[1], stamp=Stamp(0, 1))
        assert session._solver is not None and session._solver.warm
        outcome = session.sync(feed[2], stamp=Stamp(1, 0))  # epoch bump
        assert outcome.ok
        # The bump reset the cache before the round, which then re-warmed it.
        assert session._solver.warm

    def test_incremental_off_uses_legacy_dispatch(self):
        setting = genomics_setting()
        feed = generate_genomics_feed(rounds=2, proteins=10, churn=0.2, seed=8)
        session = SyncSession(setting, incremental=False)
        outcome = session.sync(feed[0], stamp=Stamp(0, 0))
        assert outcome.ok
        assert session._solver is None
