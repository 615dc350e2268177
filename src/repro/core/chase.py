"""The chase procedure.

Implements two procedures:

* the **standard (restricted) chase** with tgds and egds, following the
  definitions of Fagin, Kolaitis, Miller and Popa that the paper builds on:
  a tgd fires on a body homomorphism that cannot be extended to the head,
  creating fresh labeled nulls for the existential variables; an egd merges
  a null with another value, or *fails* (``⊥``) when it would equate two
  distinct constants;
* the **solution-aware chase** (Definitions 6 and 7 of the paper), which
  witnesses existential variables with values drawn from a given instance
  ``K'`` that contains the chased instance and satisfies the tgds.  Lemma 1
  shows its sequences have polynomial length for weakly acyclic sets; the
  library uses it to build small solutions (Lemma 2).

Both record per-step provenance, which the tests use to check the paper's
length bounds and which makes chase output debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # import-light: repro.runtime pulls repro.io at import time
    from repro.runtime.budget import Budget
    from repro.obs.tracer import Span, Tracer

from repro.core.atoms import Atom, Fact
from repro.core.dependencies import EGD, TGD, Dependency, DisjunctiveTGD
from repro.core.homomorphism import find_homomorphism, iter_homomorphisms
from repro.core.instance import Instance
from repro.core.terms import (
    Constant,
    InstanceTerm,
    NullFactory,
    Variable,
    is_null,
    is_variable,
)
from repro.exceptions import (
    ChaseFailure,
    ChaseNonTermination,
    DependencyError,
    IncrementalChaseUnsupported,
)
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "ChaseStep",
    "ChaseResult",
    "chase",
    "chase_incremental",
    "solution_aware_chase",
    "satisfies",
]

#: Default ceiling on chase steps; generous for every workload in this repo.
DEFAULT_MAX_STEPS = 200_000


@dataclass(frozen=True)
class ChaseStep:
    """Provenance for one chase step."""

    dependency: Dependency
    assignment: Mapping[Variable, InstanceTerm]
    added_facts: tuple[Fact, ...] = ()
    merged: tuple[InstanceTerm, InstanceTerm] | None = None

    def __str__(self) -> str:
        if self.merged is not None:
            kept, dropped = self.merged
            return f"egd step: {dropped} := {kept} via {self.dependency}"
        added = ", ".join(str(fact) for fact in self.added_facts)
        return f"tgd step: added {{{added}}} via {self.dependency}"


@dataclass
class ChaseResult:
    """The outcome of a chase run.

    Attributes:
        instance: the final instance (the chased fixpoint).
        steps: provenance, one entry per applied step.
        rounds: number of full passes over the dependency set.
        incremental: True when produced by :func:`chase_incremental`.
        retracted: facts of the prior result withdrawn by the incremental
            run's provenance-guided retraction (net of re-derivations).
        delta_added: facts of this result absent from the prior result
            (incremental runs only; includes both delta inputs and facts
            derived from them).
        refired: number of chase steps the incremental run applied.
    """

    instance: Instance
    steps: list[ChaseStep] = field(default_factory=list)
    rounds: int = 0
    incremental: bool = field(default=False, compare=False)
    retracted: tuple[Fact, ...] = field(default=(), compare=False)
    delta_added: tuple[Fact, ...] = field(default=(), compare=False)
    refired: int = field(default=0, compare=False)
    #: Memoized provenance support index (built lazily by
    #: :func:`chase_incremental`; transferred to the successor result).
    support: "_SupportIndex | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def step_count(self) -> int:
        """Number of chase steps applied."""
        return len(self.steps)

    def new_facts(self, original: Instance) -> Instance:
        """Return the facts the chase added relative to ``original``."""
        delta = Instance(schema=self.instance.schema)
        for fact in self.instance:
            if fact not in original:
                delta.add(fact)
        return delta

    def provenance_of(self, fact: Fact) -> ChaseStep | None:
        """Return the step that introduced ``fact``, or None.

        None means the fact was already present in the chased input (or is
        not a fact of the result at all).  Facts rewritten by egd merges
        are traced to the step that produced their pre-merge original.
        """
        # Walk the egd merges backwards to recover the fact's pre-merge
        # shapes, then find the first tgd step that added any of them.
        shapes = {fact.args}
        for step in reversed(self.steps):
            if step.merged is not None:
                kept, dropped = step.merged
                expanded = set()
                for shape in shapes:
                    expanded.add(shape)
                    if kept in shape:
                        variants = [
                            tuple(
                                dropped if (value == kept and flip & (1 << i)) else value
                                for i, value in enumerate(shape)
                            )
                            for flip in range(1 << len(shape))
                        ]
                        expanded.update(variants)
                shapes = expanded
        for step in self.steps:
            for added in step.added_facts:
                if added.relation == fact.relation and added.args in shapes:
                    return step
        return None


def _frontier_assignment(
    tgd: TGD, assignment: Mapping[Variable, InstanceTerm]
) -> dict[Variable, InstanceTerm]:
    """Restrict a body assignment to the variables exported to the head."""
    frontier = tgd.frontier_variables()
    return {variable: assignment[variable] for variable in frontier}


def _head_satisfied(
    instance: Instance, tgd: TGD, assignment: Mapping[Variable, InstanceTerm]
) -> bool:
    """Is the head of ``tgd`` witnessed in ``instance`` under ``assignment``?

    Fast path for full tgds: the head is fully determined, so the test is
    plain fact membership instead of a homomorphism search.
    """
    if tgd.is_full():
        for atom in tgd.head:
            args = tuple(
                assignment[arg] if is_variable(arg) else arg for arg in atom.args
            )
            if args not in instance.rows(atom.relation):
                return False
        return True
    frontier = _frontier_assignment(tgd, assignment)
    return find_homomorphism(tgd.head, instance, frontier) is not None


def _instantiate_head(
    head: Sequence[Atom], assignment: Mapping[Variable, InstanceTerm]
) -> list[Fact]:
    """Ground the head atoms under a total assignment of their variables."""
    facts = []
    for atom in head:
        args: list[InstanceTerm] = []
        for term in atom.args:
            if is_variable(term):
                args.append(assignment[term])  # type: ignore[index]
            else:
                args.append(term)  # type: ignore[arg-type]
        facts.append(Fact(atom.relation, args))
    return facts


def _apply_tgd_step(
    instance: Instance,
    tgd: TGD,
    assignment: Mapping[Variable, InstanceTerm],
    null_factory: NullFactory,
) -> ChaseStep:
    """Fire ``tgd`` under ``assignment``, minting fresh nulls for existentials."""
    total: dict[Variable, InstanceTerm] = dict(assignment)
    for variable in sorted(tgd.existential_variables(), key=lambda v: v.name):
        total[variable] = null_factory.fresh(hint=variable.name)
    facts = _instantiate_head(tgd.head, total)
    added = tuple(fact for fact in facts if instance.add(fact))
    return ChaseStep(dependency=tgd, assignment=dict(assignment), added_facts=added)


def _apply_egd_step(
    instance: Instance,
    egd: EGD,
    assignment: Mapping[Variable, InstanceTerm],
) -> tuple[Instance, ChaseStep]:
    """Fire ``egd``: merge the two values or raise :class:`ChaseFailure`."""
    left = assignment[egd.left]
    right = assignment[egd.right]
    if isinstance(left, Constant) and isinstance(right, Constant):
        raise ChaseFailure(
            f"egd {egd} requires {left} = {right}, but both are distinct constants"
        )
    # Keep the constant if there is one; otherwise keep the lower-labeled null.
    if isinstance(left, Constant):
        kept, dropped = left, right
    elif isinstance(right, Constant):
        kept, dropped = right, left
    else:
        kept, dropped = sorted((left, right))  # type: ignore[type-var]
    merged = instance.rename({dropped: kept})
    step = ChaseStep(
        dependency=egd, assignment=dict(assignment), merged=(kept, dropped)
    )
    return merged, step


def _find_applicable_tgd_assignment(
    instance: Instance, tgd: TGD
) -> dict[Variable, InstanceTerm] | None:
    """Return a body homomorphism with no head extension, or None."""
    for assignment in iter_homomorphisms(tgd.body, instance):
        if not _head_satisfied(instance, tgd, assignment):
            return assignment
    return None


def _find_applicable_egd_assignment(
    instance: Instance, egd: EGD
) -> dict[Variable, InstanceTerm] | None:
    """Return a body homomorphism violating the equality, or None."""
    for assignment in iter_homomorphisms(egd.body, instance):
        if assignment[egd.left] != assignment[egd.right]:
            return assignment
    return None


def _note_chase_span(span: "Span", steps: Sequence[ChaseStep], rounds: int) -> None:
    """Fold chase provenance into a span: per-dependency fires, facts, merges.

    Runs once per chase, after the fixpoint, so tracing adds no work to
    the chase loop itself.  Fire counts are grouped by dependency object
    identity and rendered once per unique dependency.
    """
    fires: dict[int, int] = {}
    rendered: dict[int, str] = {}
    facts_created = 0
    egd_merges = 0
    for step in steps:
        key = id(step.dependency)
        fires[key] = fires.get(key, 0) + 1
        if key not in rendered:
            rendered[key] = str(step.dependency)
        if step.merged is not None:
            egd_merges += 1
        else:
            facts_created += len(step.added_facts)
    span.set("rounds", rounds)
    span.set("fires", {rendered[key]: count for key, count in fires.items()})
    span.add("steps", len(steps))
    span.add("facts_created", facts_created)
    span.add("egd_merges", egd_merges)


def chase(
    instance: Instance,
    dependencies: Iterable[Dependency],
    null_factory: NullFactory | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: Budget | None = None,
    tracer: "Tracer | None" = None,
) -> ChaseResult:
    """Chase ``instance`` with ``dependencies`` to a fixpoint.

    The input instance is not modified.  Dependencies may be tgds and egds
    (disjunctive tgds cannot be chased deterministically and are rejected).

    Args:
        instance: the instance to chase.
        dependencies: tgds and egds over the instance's schema (or over a
            combined schema, for source-to-target / target-to-source tgds).
        null_factory: source of fresh nulls; defaults to a factory labeling
            above every null already in ``instance``.
        max_steps: hard budget guarding against non-terminating sets.
        budget: optional :class:`repro.runtime.Budget`; charged one
            chase step per applied step and one fact per added fact, with
            deadline/cancellation checkpoints between dependency passes.
        tracer: optional :class:`repro.obs.Tracer`; records one ``chase``
            span whose counters (steps, facts created, egd merges) and
            per-dependency fire counts are derived from the provenance
            after the fixpoint, so the chase loop itself is untouched.

    Returns:
        a :class:`ChaseResult` with the chased instance and provenance.

    Raises:
        ChaseFailure: if an egd step fails (the ``⊥`` outcome); this
            certifies that no solution containing the instance exists.
        ChaseNonTermination: if ``max_steps`` is exceeded.
        BudgetExceeded: if ``budget`` runs out (a cap, the deadline, or
            cancellation); governed solver entry points convert this into
            a degraded result when the budget is not strict.
    """
    dependencies = list(dependencies)
    for dependency in dependencies:
        if not isinstance(dependency, (TGD, EGD)):
            raise DependencyError(
                f"cannot chase non-deterministic dependency {dependency}"
            )
    if null_factory is None:
        null_factory = NullFactory.above(instance.nulls())
    if tracer is None:
        tracer = NULL_TRACER

    with tracer.span("chase", dependencies=len(dependencies)) as span:
        current = instance.copy()
        steps: list[ChaseStep] = []
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for dependency in dependencies:
                if budget is not None:
                    budget.checkpoint()
                if isinstance(dependency, TGD):
                    # Enumerate all body matches against a stable snapshot,
                    # then re-check applicability just before firing each one;
                    # this keeps the restricted-chase semantics while touching
                    # each match once per round instead of re-enumerating the
                    # whole match set after every step.
                    matches = list(iter_homomorphisms(dependency.body, current))
                    for assignment in matches:
                        if len(steps) >= max_steps:
                            raise ChaseNonTermination(max_steps)
                        if _head_satisfied(current, dependency, assignment):
                            continue
                        step = _apply_tgd_step(current, dependency, assignment, null_factory)
                        steps.append(step)
                        changed = True
                        if budget is not None:
                            budget.charge_chase_step()
                            if step.added_facts:
                                budget.charge_facts(len(step.added_facts))
                else:
                    while True:
                        if len(steps) >= max_steps:
                            raise ChaseNonTermination(max_steps)
                        assignment = _find_applicable_egd_assignment(current, dependency)
                        if assignment is None:
                            break
                        current, step = _apply_egd_step(current, dependency, assignment)
                        steps.append(step)
                        changed = True
                        if budget is not None:
                            budget.charge_chase_step()
        if tracer.enabled:
            _note_chase_span(span, steps, rounds)
    return ChaseResult(instance=current, steps=steps, rounds=rounds)


# ---------------------------------------------------------------------------
# incremental (semi-naive) chase
# ---------------------------------------------------------------------------


class _SupportIndex:
    """Provenance support graph over a chase history.

    Maps every justification fact to the steps it supports (``consumers``)
    and every derived fact to the step that introduced it (``producer``),
    so provenance-guided retraction walks the dependency cone of a
    withdrawn fact instead of re-deriving the world.  The index is owned
    by exactly one :class:`ChaseResult` at a time: :func:`chase_incremental`
    takes it from the prior result, mutates it, and hands it to the
    successor — rebuilding from ``steps`` when a result has none.
    """

    __slots__ = (
        "ordered",
        "dropped",
        "by_id",
        "justification",
        "consumers",
        "producer",
    )

    def __init__(self) -> None:
        #: Steps in application order (may contain dropped entries until
        #: :meth:`live_steps` compacts; their objects stay referenced here
        #: so ``id()`` keys cannot be recycled mid-run).
        self.ordered: list[ChaseStep] = []
        self.dropped: set[int] = set()
        self.by_id: dict[int, ChaseStep] = {}
        self.justification: dict[int, tuple[Fact, ...]] = {}
        self.consumers: dict[Fact, set[int]] = {}
        self.producer: dict[Fact, int] = {}

    @classmethod
    def from_steps(cls, steps: Iterable[ChaseStep]) -> "_SupportIndex":
        index = cls()
        for step in steps:
            index.add(step)
        return index

    def add(self, step: ChaseStep) -> None:
        sid = id(step)
        self.ordered.append(step)
        self.by_id[sid] = step
        body = _instantiate_body(step.dependency, step.assignment)
        self.justification[sid] = body
        for fact in body:
            self.consumers.setdefault(fact, set()).add(sid)
        for fact in step.added_facts:
            self.producer.setdefault(fact, sid)

    def drop(self, sid: int) -> ChaseStep | None:
        step = self.by_id.pop(sid, None)
        if step is None:
            return None
        self.dropped.add(sid)
        for fact in self.justification.pop(sid, ()):
            bucket = self.consumers.get(fact)
            if bucket is not None:
                bucket.discard(sid)
                if not bucket:
                    del self.consumers[fact]
        for fact in step.added_facts:
            if self.producer.get(fact) == sid:
                del self.producer[fact]
        return step

    def live_steps(self) -> list[ChaseStep]:
        """Compact away dropped entries and return the live steps in order."""
        if self.dropped:
            self.ordered = [s for s in self.ordered if id(s) not in self.dropped]
            self.dropped = set()
        return list(self.ordered)


def _instantiate_body(
    dependency: Dependency, assignment: Mapping[Variable, InstanceTerm]
) -> tuple[Fact, ...]:
    """Ground a dependency's body atoms under a total body assignment."""
    facts = []
    for atom in dependency.body:
        args = tuple(
            assignment[term] if is_variable(term) else term for term in atom.args
        )
        facts.append(Fact(atom.relation, args))
    return tuple(facts)


def _unify_row(
    atom: Atom,
    args: Sequence[InstanceTerm],
    restrict: "frozenset[Variable] | set[Variable] | None" = None,
) -> dict[Variable, InstanceTerm] | None:
    """Match one atom against one row, returning the variable bindings.

    With ``restrict``, only variables in the set are bound (used to unify
    head atoms, whose existential variables are unconstrained); other
    positions match anything.  Returns None on a constant or repeated-
    variable mismatch.
    """
    binding: dict[Variable, InstanceTerm] = {}
    for term, value in zip(atom.args, args):
        if is_variable(term):
            if restrict is not None and term not in restrict:
                continue
            bound = binding.get(term)  # type: ignore[arg-type]
            if bound is None:
                binding[term] = value  # type: ignore[index]
            elif bound != value:
                return None
        elif term != value:
            return None
    return binding


def _check_bound_match(
    atoms: Sequence[Atom],
    instance: Instance,
    assignment: Mapping[Variable, InstanceTerm],
) -> bool:
    """Verify a *total* assignment maps every atom to a fact (no search)."""
    for atom in atoms:
        args = tuple(
            assignment[term] if is_variable(term) else term for term in atom.args
        )
        if Fact(atom.relation, args) not in instance:
            return False
    return True


def _iter_delta_assignments(
    atoms: Sequence[Atom],
    instance: Instance,
    delta_rows: Mapping[str, set],
    seen: set,
    all_vars: "frozenset[Variable] | set[Variable]",
) -> Iterable[dict[Variable, InstanceTerm]]:
    """Semi-naive body matches: some atom is unified against a delta row.

    For each body atom whose relation has delta rows, the atom is unified
    with each delta row and the remaining atoms are matched with the
    resulting bindings pre-bound, so enumeration cost scales with the
    delta, not the relation.  ``seen`` dedupes assignments across atoms,
    rows, and rounds (head satisfaction only grows during a run, so a
    once-considered assignment never needs a second look).  When one
    unification already binds every variable of the conjunction (the
    single-atom-body common case), the backtracking matcher is skipped
    entirely in favor of direct containment checks.
    """
    for atom in atoms:
        rows = delta_rows.get(atom.relation)
        if not rows:
            continue
        for args in rows:
            partial = _unify_row(atom, args)
            if partial is None:
                continue
            if len(partial) == len(all_vars):
                # ``seen`` records only *successful* matches: a failed
                # containment may succeed in a later round once a missing
                # body fact is derived, and must then be re-considered.
                key = frozenset(partial.items())
                if key in seen:
                    continue
                if _check_bound_match(atoms, instance, partial):
                    seen.add(key)
                    yield partial
                continue
            for assignment in iter_homomorphisms(atoms, instance, partial):
                key = frozenset(assignment.items())
                if key not in seen:
                    seen.add(key)
                    yield assignment


def _iter_head_removal_assignments(
    tgd: TGD,
    instance: Instance,
    removed_rows: Mapping[str, set],
    seen: set,
) -> Iterable[dict[Variable, InstanceTerm]]:
    """Body matches whose head witness may have been retracted.

    The restricted chase fires a tgd only when the head is *not* already
    witnessed, so removing facts can make old body matches applicable
    again (their witness vanished) and can strand facts that are still
    derivable (their recorded derivation was over-deleted but another
    one survives).  Both cases are found the same way: unify each head
    atom with each removed row — binding only the universal variables —
    and enumerate body matches under those bindings.
    """
    body_vars = tgd.body_variables()
    for atom in tgd.head:
        rows = removed_rows.get(atom.relation)
        if not rows:
            continue
        for args in rows:
            partial = _unify_row(atom, args, restrict=body_vars)
            if partial is None:
                continue
            if len(partial) == len(body_vars):
                key = frozenset(partial.items())
                if key in seen:
                    continue
                if _check_bound_match(tgd.body, instance, partial):
                    seen.add(key)
                    yield partial
                continue
            for assignment in iter_homomorphisms(tgd.body, instance, partial):
                key = frozenset(assignment.items())
                if key not in seen:
                    seen.add(key)
                    yield assignment


def chase_incremental(
    prior: ChaseResult,
    added: Iterable[Fact],
    withdrawn: Iterable[Fact],
    dependencies: Iterable[Dependency],
    null_factory: NullFactory | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: Budget | None = None,
    tracer: "Tracer | None" = None,
    consume: bool = False,
) -> ChaseResult:
    """Chase a base delta on top of a prior chase result (semi-naive).

    Given ``prior = chase(B, dependencies)`` and a delta turning the base
    ``B`` into ``B' = (B - withdrawn) | added``, returns a fixpoint for
    ``B'`` that is homomorphically equivalent to ``chase(B')`` — touching
    only the dependency cone of the changed facts instead of re-running
    the full match enumeration:

    * **provenance-guided retraction** (DRed-style over-deletion): derived
      facts whose recorded justification transitively involved a withdrawn
      fact are retracted by walking the provenance support graph;
    * **semi-naive re-firing**: tgd matches are enumerated only where a
      body atom touches a changed fact, or where a head witness was
      retracted — the latter also re-derives over-deleted facts that have
      a surviving alternative justification (with fresh nulls for
      existentials, hence equivalence *up to null renaming*).

    Preconditions, enforced by raising :class:`IncrementalChaseUnsupported`
    (callers fall back to the from-scratch :func:`chase`):

    * the prior history contains no egd merges (a merge rewrites facts in
      place, invalidating recorded provenance);
    * the delta does not make an egd newly applicable.

    By default ``prior`` is never semantically modified (its instance and
    steps are untouched), but its memoized provenance ``support`` index is
    transferred to the returned result; re-using ``prior`` later simply
    rebuilds the index.  With ``consume=True`` the prior's *instance* is
    also taken over and mutated in place — skipping the per-round copy on
    hot loops where the caller discards ``prior`` anyway; a consumed prior
    must not be used again.  ``prior`` must be a fixpoint (any result of
    :func:`chase` or :func:`chase_incremental` is).

    Budget and ``max_steps`` govern only the new work of this call; the
    returned result's ``retracted`` / ``delta_added`` / ``refired`` fields
    report the net effect, and a ``chase-incremental`` span records the
    same counters on ``tracer``.
    """
    dependencies = list(dependencies)
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    egds = [d for d in dependencies if isinstance(d, EGD)]
    if len(tgds) + len(egds) != len(dependencies):
        raise DependencyError(
            "cannot chase non-deterministic dependencies incrementally"
        )
    if any(step.merged is not None for step in prior.steps):
        raise IncrementalChaseUnsupported(
            "prior chase history contains egd merges; re-chase from scratch"
        )
    added = list(added)
    withdrawn = list(withdrawn)
    if tracer is None:
        tracer = NULL_TRACER
    if null_factory is None:
        seeded = set(prior.instance.nulls())
        for fact in added:
            seeded.update(arg for arg in fact.args if is_null(arg))
        null_factory = NullFactory.above(seeded)

    with tracer.span(
        "chase-incremental",
        dependencies=len(dependencies),
        delta_in=len(added) + len(withdrawn),
    ) as span:
        current = prior.instance if consume else prior.instance.copy()
        index = prior.support
        prior.support = None  # ownership moves to the successor result
        if index is None:
            index = _SupportIndex.from_steps(prior.steps)
        added_set = set(added)

        # Facts arriving as *inputs* that the prior run derived lose their
        # derived status: strip them from their producing step so a later
        # withdrawal of that derivation cannot retract what is now input.
        for fact in added_set:
            sid = index.producer.get(fact)
            if sid is not None:
                step = index.by_id[sid]
                kept = tuple(g for g in step.added_facts if g != fact)
                index.drop(sid)
                if kept:
                    index.add(
                        ChaseStep(
                            dependency=step.dependency,
                            assignment=step.assignment,
                            added_facts=kept,
                        )
                    )

        # --- provenance-guided retraction (over-deletion) --------------
        removed: set[Fact] = set()
        queue: list[Fact] = []
        for fact in withdrawn:
            if fact not in current or fact in added_set:
                continue
            if fact in index.producer:
                # Derived, not input: the base never held it, so the
                # withdrawal is vacuous — the fact keeps its derivation.
                continue
            queue.append(fact)
        while queue:
            fact = queue.pop()
            if fact in removed or fact in added_set:
                continue
            removed.add(fact)
            for sid in list(index.consumers.get(fact, ())):
                step = index.drop(sid)
                if step is not None:
                    queue.extend(step.added_facts)

        removed_rows: dict[str, set] = {}
        for fact in removed:
            current.discard(fact)
            removed_rows.setdefault(fact.relation, set()).add(fact.args)

        # --- apply the input delta --------------------------------------
        delta_rows: dict[str, set] = {}
        inserted_rows: dict[str, set] = {}
        for fact in added:
            if current.add(fact):
                delta_rows.setdefault(fact.relation, set()).add(fact.args)
                inserted_rows.setdefault(fact.relation, set()).add(fact.args)

        # --- semi-naive fixpoint ----------------------------------------
        new_steps: list[ChaseStep] = []
        seen: list[set] = [set() for _ in tgds]
        body_vars = [tgd.body_variables() for tgd in tgds]
        rounds = 0
        first = True
        while True:
            rounds += 1
            next_rows: dict[str, set] = {}
            for position, tgd in enumerate(tgds):
                if budget is not None:
                    budget.checkpoint()
                # Materialize the candidate list before firing: firing
                # mutates ``current`` and the matcher must not observe it.
                matches = list(
                    _iter_delta_assignments(
                        tgd.body, current, delta_rows, seen[position],
                        body_vars[position],
                    )
                )
                if first:
                    matches.extend(
                        _iter_head_removal_assignments(
                            tgd, current, removed_rows, seen[position]
                        )
                    )
                for assignment in matches:
                    if len(new_steps) >= max_steps:
                        raise ChaseNonTermination(max_steps)
                    if _head_satisfied(current, tgd, assignment):
                        continue
                    step = _apply_tgd_step(current, tgd, assignment, null_factory)
                    new_steps.append(step)
                    index.add(step)
                    for fact in step.added_facts:
                        next_rows.setdefault(fact.relation, set()).add(fact.args)
                        inserted_rows.setdefault(fact.relation, set()).add(fact.args)
                    if budget is not None:
                        budget.charge_chase_step()
                        if step.added_facts:
                            budget.charge_facts(len(step.added_facts))
            first = False
            if not next_rows:
                break
            delta_rows = next_rows

        # --- egds: delta-restricted applicability check -----------------
        # The prior result is a fixpoint, so every egd was satisfied, and
        # removals only shrink the match set; an egd can become applicable
        # only through a match touching a fact inserted by this call.
        for egd in egds:
            if budget is not None:
                budget.checkpoint()
            seen_egd: set = set()
            for assignment in _iter_delta_assignments(
                egd.body, current, inserted_rows, seen_egd, egd.body_variables()
            ):
                if assignment[egd.left] != assignment[egd.right]:
                    raise IncrementalChaseUnsupported(
                        f"egd {egd} became applicable under the delta; "
                        "re-chase from scratch"
                    )

        # --- assemble ----------------------------------------------------
        # An inserted fact was absent when inserted, and insertion happens
        # strictly after the removal phase, so it was absent from the
        # post-removal state; it belonged to the *prior* fixpoint iff the
        # retraction removed it first.  (No reference to ``prior.instance``
        # here — under ``consume`` it aliases ``current``.)
        net_removed = tuple(fact for fact in removed if fact not in current)
        delta_added = tuple(
            fact
            for relation, rows in inserted_rows.items()
            for fact in (Fact(relation, args) for args in rows)
            if fact not in removed
        )
        if tracer.enabled:
            span.set("rounds", rounds)
            span.set("retracted", len(net_removed))
            span.set("refired", len(new_steps))
            span.set("delta_out", len(delta_added))
    return ChaseResult(
        instance=current,
        steps=index.live_steps(),
        rounds=rounds,
        incremental=True,
        retracted=net_removed,
        delta_added=delta_added,
        refired=len(new_steps),
        support=index,
    )


def solution_aware_chase(
    instance: Instance,
    dependencies: Iterable[Dependency],
    solution: Instance,
    max_steps: int = DEFAULT_MAX_STEPS,
    tracer: "Tracer | None" = None,
) -> ChaseResult:
    """Chase ``instance`` taking existential witnesses from ``solution``.

    This is the solution-aware chase of Definitions 6 and 7: ``solution``
    must contain ``instance`` and satisfy the tgds among ``dependencies``,
    so every applicable tgd step has a witness inside ``solution``; no fresh
    nulls are ever created.  By Lemma 2, the result is a sub-instance of
    ``solution`` of size polynomial in the input.

    Raises:
        ChaseFailure: on a failing egd step, or if ``solution`` does not
            actually witness a required head (i.e. the precondition that
            ``solution`` satisfies the tgds is violated).
        ChaseNonTermination: if ``max_steps`` is exceeded.
    """
    dependencies = list(dependencies)
    if not solution.contains_instance(instance):
        raise ChaseFailure("solution-aware chase requires solution ⊇ instance")
    if tracer is None:
        tracer = NULL_TRACER

    with tracer.span(
        "solution-aware-chase", dependencies=len(dependencies)
    ) as span:
        current = instance.copy()
        steps: list[ChaseStep] = []
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for dependency in dependencies:
                while True:
                    if len(steps) >= max_steps:
                        raise ChaseNonTermination(max_steps)
                    if isinstance(dependency, TGD):
                        assignment = _find_applicable_tgd_assignment(current, dependency)
                        if assignment is None:
                            break
                        frontier = _frontier_assignment(dependency, assignment)
                        witness = find_homomorphism(dependency.head, solution, frontier)
                        if witness is None:
                            raise ChaseFailure(
                                f"given solution does not satisfy tgd {dependency} "
                                f"under {assignment}"
                            )
                        facts = _instantiate_head(dependency.head, witness)
                        added = tuple(fact for fact in facts if current.add(fact))
                        steps.append(
                            ChaseStep(
                                dependency=dependency,
                                assignment=dict(assignment),
                                added_facts=added,
                            )
                        )
                    elif isinstance(dependency, EGD):
                        assignment = _find_applicable_egd_assignment(current, dependency)
                        if assignment is None:
                            break
                        current, step = _apply_egd_step(current, dependency, assignment)
                        steps.append(step)
                    else:
                        raise DependencyError(
                            f"cannot chase non-deterministic dependency {dependency}"
                        )
                    changed = True
        if tracer.enabled:
            _note_chase_span(span, steps, rounds)
    return ChaseResult(instance=current, steps=steps, rounds=rounds)


def satisfies(instance: Instance, dependencies: Iterable[Dependency]) -> bool:
    """Return True if ``instance`` satisfies every dependency.

    Tgds: every body homomorphism extends to a head homomorphism.
    Egds: every body homomorphism equates the two designated variables.
    Disjunctive tgds: every body homomorphism extends into some disjunct.
    """
    for dependency in dependencies:
        if isinstance(dependency, TGD):
            for assignment in iter_homomorphisms(dependency.body, instance):
                if not _head_satisfied(instance, dependency, assignment):
                    return False
        elif isinstance(dependency, EGD):
            if _find_applicable_egd_assignment(instance, dependency) is not None:
                return False
        else:
            for assignment in iter_homomorphisms(dependency.body, instance):
                if not _disjunct_satisfied(instance, dependency, assignment):
                    return False
    return True


def _disjunct_satisfied(
    instance: Instance,
    dependency: DisjunctiveTGD,
    assignment: Mapping[Variable, InstanceTerm],
) -> bool:
    """Is some disjunct of ``dependency`` witnessed in ``instance``?

    ``assignment`` is a body match (it binds body variables only); each
    disjunct is searched with the variables it shares with the body held
    fixed and its existentials free.
    """
    for disjunct in dependency.disjuncts:
        relevant = {
            variable: value
            for variable, value in assignment.items()
            if any(variable in atom.variables() for atom in disjunct)
        }
        if find_homomorphism(list(disjunct), instance, relevant) is not None:
            return True
    return False
