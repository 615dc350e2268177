"""Incremental peer synchronization sessions.

The paper's motivating scenario (Introduction) is *periodic*: "at regular
intervals of time, the university database is willing to receive new data
from Swiss-Prot".  Re-solving from scratch at every interval wastes the
work of previous rounds; a :class:`SyncSession` maintains the materialized
target state across rounds and only processes the delta.

Model per round:

* the source peer publishes a new snapshot ``I_t`` (facts may be added or
  withdrawn — the source is authoritative, so withdrawals are legitimate);
* the target's current materialized state ``M_{t-1}`` plays the role of
  ``J`` — except that facts imported in earlier rounds which the source no
  longer vouches for must not block the sync: the session distinguishes
  *pinned* facts (the target's own data, which must survive, per
  Definition 2's ``J ⊆ J'``) from *imported* facts (materialized from
  earlier rounds, which may be retracted when the authority withdraws
  their justification);
* the session solves ``SOL(P)(I_t, pinned)`` seeded with the still-valid
  imported facts and reports the round's delta.

The incremental trick: imported facts that are still consistent with
``I_t`` are passed as part of the target instance, so the solver's chase
starts from the previous materialization instead of from scratch; facts
that lost their justification are retracted first (and reported).  The
retraction follows one named repair policy: the ``Σ_ts`` matches whose
head has no witness in ``I_t`` are visited in the canonical order of
their premise facts, and each drops its first imported, unpinned premise
fact unless an earlier drop already broke it — so the retracted set does
not depend on set iteration order or the process's hash seed.

Resilience (the :mod:`repro.runtime` integration):

* a round may be governed by a :class:`~repro.runtime.Budget`; when the
  budget runs out the round *degrades* — the outcome reports a
  non-``DECIDED`` :class:`~repro.runtime.SolveStatus` and the state stays
  unchanged — instead of corrupting the materialization;
* a :class:`~repro.runtime.RetryPolicy` re-attempts budget-exhausted
  rounds with escalated caps and jittered backoff (deadline expiry and
  cancellation are never retried: the deadline is shared by all attempts,
  and cancellation is a directive);
* a :class:`~repro.runtime.SessionJournal` makes the session crash-safe:
  each successful round is committed to the journal *before* the
  in-memory state is updated, and :meth:`SyncSession.resume` rebuilds a
  session from the journal after a crash.

Epoch-aware ingestion (the :mod:`repro.net` integration): real peer
transports deliver at-least-once and out of order, so a session fed from
a network must not re-apply a duplicated snapshot or regress to a stale
one.  A publisher stamps each snapshot with a :class:`Stamp` — a
``(epoch, seq)`` pair, ordered lexicographically: ``seq`` increments per
publish, ``epoch`` increments when the publisher restarts (resetting
``seq``).  ``sync(..., stamp=...)`` ingests a snapshot only when its
stamp is *strictly newer* than the session's watermark; otherwise the
round is a stale no-op (``outcome.stale``), which makes stamped ingestion
idempotent.  The watermark commits to the journal atomically with the
round it protects, so it survives crashes.

Delta rounds: the motivating scenario is periodic, so consecutive
snapshots overlap heavily and shipping the full snapshot every interval
wastes the wire.  :meth:`SyncSession.sync_delta` ingests an incremental
``(added, withdrawn)`` payload keyed on the *base* stamp of the snapshot
it patches: the session reconstructs ``I_t = (I_{t-1} - withdrawn) ∪
added`` from its retained copy of the last ingested source and runs the
ordinary stamped round on the result — the delta is pure wire-format
optimization, invisible to the solver.  The chain is validated first: a
delta applies only when the session's watermark equals the base stamp
and the base snapshot is retained; otherwise the round reports
``outcome.reason == DELTA_CHAIN_BROKEN`` (and ``outcome.chain_broken``)
without touching any state, telling the sender to fall back to a full
snapshot.  The retained source commits to the journal with its round, so
a resumed session keeps its delta chain intact across crashes; journals
written before delta support load with no retained source and simply
break the chain once, forcing one full-snapshot refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.core.atoms import Fact
from repro.core.chase import (
    _disjunct_satisfied,
    _head_satisfied,
    _instantiate_body,
    _unify_row,
)
from repro.core.dependencies import TGD, DisjunctiveTGD
from repro.core.homomorphism import iter_homomorphisms
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.core.terms import term_sort_key
from repro.exceptions import BudgetExceeded, SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.budget import Budget, SolveStatus
from repro.runtime.journal import SessionJournal
from repro.runtime.retry import RetryPolicy
from repro.solver.exists_solution import _governed, solve
from repro.solver.incremental import IncrementalTractableSolver

__all__ = [
    "DELTA_CHAIN_BROKEN",
    "Stamp",
    "SyncOutcome",
    "SyncSession",
    "watermark_lag",
]

#: The :attr:`SyncOutcome.reason` reported when a delta's base stamp does
#: not match the session's watermark (or no base snapshot is retained).
#: The sender's contract: on this reason, fall back to a full snapshot.
DELTA_CHAIN_BROKEN = "delta-chain-broken"


class Stamp(NamedTuple):
    """A monotone snapshot stamp: ``(epoch, seq)``, lexicographic order.

    ``seq`` increments with every publish; ``epoch`` increments when the
    publisher restarts or re-baselines (``seq`` restarts at 0, and the
    higher epoch still wins).  Tuple comparison gives exactly the
    protocol order, so ``stamp <= watermark`` means *stale*.
    """

    epoch: int
    seq: int

    def __str__(self) -> str:
        return f"{self.epoch}.{self.seq}"


def watermark_lag(
    published: "list[Stamp] | list[tuple[int, int]]",
    watermark: "Stamp | tuple[int, int] | None",
) -> int:
    """How many published stamps a peer's watermark has not yet absorbed.

    The convergence-lag primitive shared by the simulator and the real
    daemon: given the publisher's history of published stamps and one
    peer's applied watermark, the lag is the number of publishes stamped
    *strictly above* the watermark — publishes whose effect the peer has
    not yet seen.  A peer that never applied anything (``watermark is
    None``) lags by the full history; a peer at the head lags 0.  Pure
    stamp arithmetic — lexicographic tuple comparison, the same order
    that makes ingestion idempotent — so both network stacks compute the
    identical number.
    """
    stamps = [Stamp(*stamp) for stamp in published]
    if watermark is None:
        return len(stamps)
    mark = Stamp(*watermark)
    return sum(1 for stamp in stamps if stamp > mark)


def _candidate_matches(
    dependency: TGD | DisjunctiveTGD,
    state: Instance,
    withdrawn_rows: dict[str, set] | None,
) -> Iterator[dict]:
    """Body matches of ``dependency`` over ``state`` the scan must check.

    Every match when ``withdrawn_rows`` is None; otherwise the matches
    whose head (any disjunct's, for a disjunctive dependency) unifies
    with a withdrawn row on the body variables.  A match may be yielded
    more than once.
    """
    if withdrawn_rows is None:
        yield from iter_homomorphisms(dependency.body, state)
        return
    body_vars = dependency.body_variables()
    heads = (
        (dependency.head,) if isinstance(dependency, TGD) else dependency.disjuncts
    )
    for head in heads:
        for atom in head:
            for args in withdrawn_rows.get(atom.relation, ()):
                partial = _unify_row(atom, args, restrict=body_vars)
                if partial is not None:
                    yield from iter_homomorphisms(dependency.body, state, partial)


def _premise_key(premise: tuple[Fact, ...]) -> tuple:
    """The canonical visiting order of violated matches: by premise facts."""
    return tuple(
        (fact.relation, tuple(term_sort_key(value) for value in fact.args))
        for fact in premise
    )


@dataclass
class SyncOutcome:
    """The result of one synchronization round.

    Attributes:
        ok: the round produced a consistent materialization.
        added: facts newly imported this round.
        retracted: previously imported facts dropped because the source no
            longer vouches for them.
        state: the materialized target state after the round.
        reason: when ``ok`` is False, why the round was rejected (or what
            budget ran out, for degraded rounds).
        status: ``DECIDED`` when the round ran to completion (successfully
            or as a definitive rejection); a degraded status
            (``BUDGET_EXHAUSTED`` / ``DEADLINE`` / ``CANCELLED``) when the
            governed solve gave up — the state is untouched and the round
            may simply be re-run later.
        attempts: how many solve attempts the round used (> 1 when a
            :class:`~repro.runtime.RetryPolicy` escalated a budget).
        metrics: the :class:`repro.obs.MetricsRegistry` the caller passed
            into :meth:`SyncSession.sync`, populated with the round's
            instruments; None when no registry was supplied.
        stale: the snapshot's :class:`Stamp` was not newer than the
            session's watermark, so the round was skipped as a duplicate
            or out-of-order redelivery (``ok`` is True — rejecting a
            replay is the protocol working, not an error — and the state
            is untouched).
        delta: the round ingested an incremental ``(added, withdrawn)``
            payload via :meth:`SyncSession.sync_delta` rather than a full
            snapshot.
    """

    ok: bool
    added: Instance
    retracted: Instance
    state: Instance
    reason: str = ""
    status: SolveStatus = SolveStatus.DECIDED
    attempts: int = 1
    metrics: MetricsRegistry | None = None
    stale: bool = False
    delta: bool = False

    @property
    def changed(self) -> bool:
        """Did the round modify the materialized state?"""
        return bool(len(self.added) or len(self.retracted))

    @property
    def degraded(self) -> bool:
        """True when the round gave up on a budget rather than deciding."""
        return self.status is not SolveStatus.DECIDED

    @property
    def chain_broken(self) -> bool:
        """True when a delta round's base did not match the watermark.

        The state is untouched; the sender should re-offer a full
        snapshot (the stamped protocol makes the re-offer idempotent).
        """
        return self.reason == DELTA_CHAIN_BROKEN


@dataclass
class SyncSession:
    """A long-lived synchronization session between two peers.

    Args:
        setting: the PDE setting governing the exchange.
        pinned: the target peer's own facts — the ``J`` of Definition 2;
            every materialization must contain them.
        journal: optional :class:`~repro.runtime.SessionJournal`; when
            given, every successful round is durably committed before the
            in-memory state changes, and :meth:`resume` can rebuild the
            session after a crash.
        retry: optional :class:`~repro.runtime.RetryPolicy` applied to
            budget-exhausted rounds.
    """

    setting: PDESetting
    pinned: Instance = field(default_factory=Instance)
    journal: SessionJournal | None = None
    retry: RetryPolicy | None = None
    #: Solve rounds with the stateful semi-naive solver when the setting
    #: allows it (C_tract).  Flipped off automatically for settings the
    #: incremental pipeline cannot serve; flip off manually to force the
    #: historical from-scratch solve on every round.
    incremental: bool = True
    _imported: Instance = field(default_factory=Instance)
    rounds: int = 0
    #: Watermark of the newest stamped snapshot ever ingested; None until
    #: the first stamped round.  Snapshots at or below it are stale.
    last_stamp: Stamp | None = None
    #: The source snapshot of the last *applied* stamped round — the base
    #: a subsequent delta patches.  None until a stamped round applies
    #: (deltas are keyed on stamps, so unstamped rounds retain nothing).
    _last_source: Instance | None = None
    #: Lazily constructed incremental solver (see ``incremental``).
    _solver: IncrementalTractableSolver | None = field(default=None, repr=False)

    @classmethod
    def resume(cls, journal: SessionJournal) -> "SyncSession":
        """Rebuild a session from its journal (after a crash or restart).

        The restored session has the setting, pinned facts, imported
        facts, round counter, and stamp watermark of the last durably
        committed round; un-committed work is simply re-run by the next
        :meth:`sync` (stamped ingestion makes the re-run idempotent).
        """
        state = journal.load()
        session = cls(setting=state.setting, pinned=state.pinned, journal=journal)
        session._imported = state.imported
        session.rounds = state.rounds
        if state.stamp is not None:
            session.last_stamp = Stamp(*state.stamp)
        session._last_source = state.source
        return session

    def state(self) -> Instance:
        """The current materialized target state (pinned + imported)."""
        return self.pinned.union(self._imported)

    @property
    def last_source(self) -> Instance | None:
        """The source snapshot of the last applied stamped round.

        This is the snapshot a relay re-publishes downstream: forwarding
        the applied source (rather than the materialized target) keeps
        every hop exchanging *source* facts, so a chain of peers computes
        the same solutions as direct subscribers of the origin.  ``None``
        until a stamped round applies.
        """
        return self._last_source

    def _still_justified(self, source: Instance) -> tuple[Instance, Instance]:
        """Split imported facts into (still justified, retracted).

        The full-snapshot seed of :meth:`_retraction_scan`: every
        ``Σ_ts`` body match over the current state is a candidate.
        """
        return self._retraction_scan(source, None)

    def _still_justified_delta(
        self, source: Instance, withdrawn: Instance
    ) -> tuple[Instance, Instance]:
        """The delta-round seed of :meth:`_retraction_scan`.

        Sound under the delta-chain invariant :meth:`sync_delta` checks
        before calling: the current state was committed as a solution
        against the retained base source, so every ``Σ_ts`` body match
        over it had a head witness there.  A source differing only by
        ``(added, withdrawn)`` can break a match only if that witness used
        a withdrawn fact, so only the matches whose head (or, for a
        disjunctive dependency, any disjunct) unifies with a withdrawn row
        are candidates.  They are the same violated matches the full scan
        finds, so both seeds retract the same facts.
        """
        return self._retraction_scan(source, withdrawn)

    def _retraction_scan(
        self, source: Instance, withdrawn: Instance | None
    ) -> tuple[Instance, Instance]:
        """One ``Σ_ts`` pass: (imported facts kept, imported facts retracted).

        The repair policy: collect the candidate body matches over
        ``pinned ∪ imported`` whose head has no witness in ``source``,
        visit them sorted by their instantiated premise facts, and drop
        the first imported, unpinned premise fact of each match that has
        not already lost one.  ``Σ_ts`` heads live in the source, so
        dropping target facts only removes matches and never creates a
        violation: one pass leaves ``pinned ∪ kept`` satisfying ``Σ_ts``
        against ``source`` (unless a violated premise is entirely pinned,
        which the solve then rejects).  The canonical order makes the
        retracted set independent of set iteration order, and so of the
        process's hash seed.

        ``withdrawn`` is None for a full scan; otherwise only matches a
        withdrawn row could have witnessed are candidates (see
        :meth:`_still_justified_delta`).
        """
        state = self.pinned.union(self._imported)
        withdrawn_rows: dict[str, set] | None = None
        if withdrawn is not None:
            withdrawn_rows = {}
            for fact in withdrawn:
                withdrawn_rows.setdefault(fact.relation, set()).add(fact.args)
        violated: set[tuple[Fact, ...]] = set()
        for dependency in self.setting.sigma_ts:
            checked: set[tuple[Fact, ...]] = set()
            for assignment in _candidate_matches(dependency, state, withdrawn_rows):
                premise = _instantiate_body(dependency, assignment)
                if premise in checked:
                    continue
                checked.add(premise)
                if isinstance(dependency, TGD):
                    witnessed = _head_satisfied(source, dependency, assignment)
                else:
                    witnessed = _disjunct_satisfied(source, dependency, assignment)
                if not witnessed:
                    violated.add(premise)
        retracted = Instance(schema=self.setting.target_schema)
        for premise in sorted(violated, key=_premise_key):
            if any(fact in retracted for fact in premise):
                continue  # the match already lost a premise
            for fact in premise:
                if fact in self._imported and fact not in self.pinned:
                    retracted.add(fact)
                    break
        kept = self._imported.copy()
        for fact in retracted:
            kept.discard(fact)
        return kept, retracted

    def _incremental_solver(self) -> IncrementalTractableSolver | None:
        """The session's stateful solver, or None when unavailable."""
        if not self.incremental:
            return None
        if self._solver is None:
            try:
                self._solver = IncrementalTractableSolver(self.setting)
            except SolverError:
                # Outside C_tract the incremental pipeline is unsound;
                # remember that and keep the historical dispatch.
                self.incremental = False
                return None
        return self._solver

    def _attempt_solve(
        self,
        source: Instance,
        seed: Instance,
        node_budget: int | None,
        budget: Budget | None,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ):
        """One solve attempt, via the incremental solver when available.

        Mirrors :func:`repro.solver.exists_solution.solve`'s governance:
        with a non-strict budget, exhaustion and chase overruns degrade
        into a result instead of raising.  A failed incremental attempt
        resets the solver cache itself, so a retry rebuilds cold.
        """
        solver = self._incremental_solver()
        if solver is None:
            return solve(
                self.setting,
                source,
                seed,
                node_budget=node_budget,
                budget=budget,
                tracer=tracer,
            )
        accounting = budget if budget is not None else Budget(strict=True)
        # Keep the historical ``solve`` span shape (method/dispatched/
        # exists/status) so trace consumers see one solver span per
        # attempt regardless of which pipeline served it.
        with tracer.span("solve", method="incremental") as span:
            result = _governed(
                "tractable-incremental",
                budget,
                lambda: solver.solve(
                    source, seed, budget=accounting, tracer=tracer,
                    metrics=metrics,
                ),
            )
            if tracer.enabled:
                span.set("dispatched", result.method)
                span.set("exists", result.exists)
                span.set("status", result.status.value)
        return result

    def _unchanged(
        self, reason: str, status: SolveStatus, attempts: int
    ) -> SyncOutcome:
        """A failed/degraded outcome leaving the materialization untouched."""
        empty = Instance(schema=self.setting.target_schema)
        return SyncOutcome(
            ok=False,
            added=empty,
            retracted=empty.copy(),
            state=self.state(),
            reason=reason,
            status=status,
            attempts=attempts,
        )

    def sync(
        self,
        source: Instance,
        node_budget: int | None = None,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        stamp: Stamp | tuple[int, int] | None = None,
        _withdrawn: Instance | None = None,
    ) -> SyncOutcome:
        """Run one synchronization round against a new source snapshot.

        Returns a :class:`SyncOutcome`; when the round is rejected (the
        *pinned* facts themselves are incompatible with the new source) or
        degraded (a governed solve ran out of budget), the materialized
        state is left unchanged.

        ``stamp`` marks the snapshot's position in the publisher's
        timeline (see :class:`Stamp`).  A stamped snapshot at or below
        the session's watermark returns a ``stale`` no-op outcome without
        solving; a newer one advances the watermark atomically with the
        journal commit.  Unstamped calls (the historical API) skip the
        check entirely.

        With a non-strict ``budget`` and a session ``retry`` policy,
        budget-exhausted attempts are re-run with escalated caps after a
        jittered backoff; deadline and cancellation degradations are
        returned immediately.

        A ``tracer`` records one ``sync-round`` span per call, with a
        ``retraction-scan`` sub-span, one ``solve-attempt`` sub-span per
        attempt, a ``retry`` event before each backoff pause, and a
        ``journal-commit`` event after the durable commit.  A ``metrics``
        registry accumulates round/added/retracted counters and is
        attached to the outcome.

        ``_withdrawn`` is :meth:`sync_delta`'s channel: the withdrawn
        facts of a delta whose chain it has checked, which narrow the
        retraction scan to the matches they could have witnessed.
        """
        if tracer is None:
            tracer = NULL_TRACER
        if stamp is not None and not isinstance(stamp, Stamp):
            stamp = Stamp(*stamp)

        def finish(outcome: SyncOutcome, span) -> SyncOutcome:
            if tracer.enabled:
                span.set("ok", outcome.ok)
                span.set("status", outcome.status.value)
                span.set("attempts", outcome.attempts)
                span.add("added", len(outcome.added))
                span.add("retracted", len(outcome.retracted))
            if metrics is not None:
                metrics.counter("sync.rounds").inc()
                metrics.counter("sync.added").inc(len(outcome.added))
                metrics.counter("sync.retracted").inc(len(outcome.retracted))
                metrics.counter("sync.attempts").inc(outcome.attempts)
                metrics.annotate("sync.status", outcome.status.value)
                metrics.gauge("sync.state_size").set(len(outcome.state))
                outcome.metrics = metrics
            return outcome

        if (
            stamp is not None
            and self.last_stamp is not None
            and stamp <= self.last_stamp
        ):
            # Duplicate or out-of-order redelivery: the watermark already
            # covers this snapshot, so re-applying it could only regress
            # the materialization.  Skip without solving.
            tracer.event("stale-snapshot", stamp=str(stamp), watermark=str(self.last_stamp))
            if metrics is not None:
                metrics.counter("sync.stale").inc()
            empty = Instance(schema=self.setting.target_schema)
            outcome = SyncOutcome(
                ok=True,
                added=empty,
                retracted=empty.copy(),
                state=self.state(),
                reason=(
                    f"stale snapshot {stamp} at or below watermark "
                    f"{self.last_stamp}; round skipped"
                ),
                stale=True,
                metrics=metrics,
            )
            return outcome

        if (
            stamp is not None
            and self.last_stamp is not None
            and stamp.epoch != self.last_stamp.epoch
            and self._solver is not None
        ):
            # Epoch bump: the publisher re-baselined, so the new snapshot
            # shares no lineage with the cached pipeline state.  The diff
            # would still be correct, but could be as large as the data;
            # rebuild cold instead.
            self._solver.reset()
            tracer.event("incremental-reset", reason="epoch-bump")

        with tracer.span("sync-round", round=self.rounds + 1) as round_span:
            with tracer.span("retraction-scan"):
                if _withdrawn is None:
                    kept, retracted = self._still_justified(source)
                else:
                    kept, retracted = self._still_justified_delta(source, _withdrawn)
            seed = self.pinned.union(kept)

            max_attempts = self.retry.max_attempts if self.retry is not None else 1
            attempt = 0
            while True:
                attempt_budget = budget
                if attempt > 0 and self.retry is not None and budget is not None:
                    attempt_budget = self.retry.escalate(budget, attempt)
                try:
                    with tracer.span("solve-attempt", attempt=attempt + 1):
                        result = self._attempt_solve(
                            source,
                            seed,
                            node_budget,
                            attempt_budget,
                            tracer,
                            metrics,
                        )
                except BudgetExceeded as exhausted:
                    # Strict/legacy budgets raise; treat the raise like a
                    # degraded attempt so the retry policy still applies.
                    result = None
                    status = SolveStatus(exhausted.status)
                    reason = str(exhausted)
                except SolverError as error:
                    return finish(
                        self._unchanged(
                            str(error), SolveStatus.DECIDED, attempts=attempt + 1
                        ),
                        round_span,
                    )
                if result is not None:
                    if result.decided:
                        break
                    status = result.status
                    reason = result.reason
                retriable = status is SolveStatus.BUDGET_EXHAUSTED
                if not retriable or attempt + 1 >= max_attempts:
                    return finish(
                        self._unchanged(reason, status, attempts=attempt + 1),
                        round_span,
                    )
                assert self.retry is not None
                tracer.event("retry", attempt=attempt + 1, status=status.value)
                if metrics is not None:
                    metrics.counter("sync.retries").inc()
                self.retry.pause(attempt)
                attempt += 1

            if not result.exists:
                return finish(
                    self._unchanged(
                        "the target's pinned facts are incompatible with the "
                        "new source snapshot",
                        SolveStatus.DECIDED,
                        attempts=attempt + 1,
                    ),
                    round_span,
                )

            new_state = result.solution
            added = Instance(schema=self.setting.target_schema)
            previous = self.state()
            for fact in new_state:
                if fact not in previous:
                    added.add(fact)
            imported = Instance(schema=self.setting.target_schema)
            for fact in new_state:
                if fact not in self.pinned:
                    imported.add(fact)
            round_number = self.rounds + 1
            if self.journal is not None:
                # Commit durably before mutating in-memory state: a crash
                # between the two replays to the committed round.
                self.journal.ensure_header(self.setting, self.pinned)
                # Stamped rounds commit the ingested source alongside the
                # round: a resumed session then still holds the delta base,
                # so a crash does not break the delta chain.
                self.journal.record_round(
                    round_number, imported, added, retracted, stamp=stamp,
                    source=source if stamp is not None else None,
                )
                tracer.event("journal-commit", round=round_number)
            self.rounds = round_number
            self._imported = imported
            if stamp is not None:
                self.last_stamp = stamp
                self._last_source = source.copy()
            return finish(
                SyncOutcome(
                    ok=True,
                    added=added,
                    retracted=retracted,
                    state=self.state(),
                    attempts=attempt + 1,
                ),
                round_span,
            )

    def sync_delta(
        self,
        added: Instance,
        withdrawn: Instance,
        base: Stamp | tuple[int, int],
        stamp: Stamp | tuple[int, int],
        node_budget: int | None = None,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> SyncOutcome:
        """Run one round from an incremental ``(added, withdrawn)`` payload.

        The delta patches the source snapshot stamped ``base`` into the
        snapshot stamped ``stamp``: the session reconstructs ``I_t =
        (I_{t-1} - withdrawn) ∪ added`` from its retained base and runs
        the ordinary stamped round on the result, so a delta round and a
        full-snapshot round of the same ``I_t`` commit identical state —
        the delta only shrinks the wire and, whether or not
        ``incremental`` is on, narrows the round's retraction scan to the
        matches the withdrawn facts could have witnessed.

        Ordering mirrors :meth:`sync`: a stamp at or below the watermark
        is a stale no-op *before* any chain check (redelivered deltas are
        idempotent, like redelivered snapshots).  A live stamp whose
        ``base`` differs from the watermark — the session missed (or
        never saw) the base snapshot, or crashed without a journal —
        breaks the chain: the round returns ``ok=False`` with
        :data:`DELTA_CHAIN_BROKEN` as the reason, leaving all state
        untouched, and the sender is expected to fall back to a full
        snapshot.
        """
        if tracer is None:
            tracer = NULL_TRACER
        if not isinstance(stamp, Stamp):
            stamp = Stamp(*stamp)
        if not isinstance(base, Stamp):
            base = Stamp(*base)

        if self.last_stamp is not None and stamp <= self.last_stamp:
            tracer.event(
                "stale-snapshot", stamp=str(stamp), watermark=str(self.last_stamp)
            )
            if metrics is not None:
                metrics.counter("sync.stale").inc()
            empty = Instance(schema=self.setting.target_schema)
            return SyncOutcome(
                ok=True,
                added=empty,
                retracted=empty.copy(),
                state=self.state(),
                reason=(
                    f"stale delta {stamp} at or below watermark "
                    f"{self.last_stamp}; round skipped"
                ),
                stale=True,
                delta=True,
                metrics=metrics,
            )

        if self.last_stamp != base or self._last_source is None:
            tracer.event(
                "delta-chain-broken",
                base=str(base),
                stamp=str(stamp),
                watermark=str(self.last_stamp),
            )
            if metrics is not None:
                metrics.counter("sync.delta_broken").inc()
            if self._solver is not None:
                # The sender will fall back to a full snapshot of unknown
                # lineage; start the next round from a cold pipeline.
                self._solver.reset()
            empty = Instance(schema=self.setting.target_schema)
            return SyncOutcome(
                ok=False,
                added=empty,
                retracted=empty.copy(),
                state=self.state(),
                reason=DELTA_CHAIN_BROKEN,
                delta=True,
                metrics=metrics,
            )

        if metrics is not None:
            metrics.counter("sync.delta_rounds").inc()
        source = self._last_source.copy()
        for fact in withdrawn:
            source.discard(fact)
        for fact in added:
            source.add(fact)
        # The chain is intact, so the committed state solves the retained
        # base — exactly the invariant the delta-narrowed retraction scan
        # needs, whichever solver serves the round.
        outcome = self.sync(
            source,
            node_budget=node_budget,
            budget=budget,
            tracer=tracer,
            metrics=metrics,
            stamp=stamp,
            _withdrawn=withdrawn,
        )
        outcome.delta = True
        return outcome
