"""The chase procedure.

One in-place semi-naive fixpoint (:func:`_fixpoint`) is the only chase
loop.  Three entry points seed it:

* :func:`chase`, the **standard (restricted) chase** with tgds and egds,
  following the definitions of Fagin, Kolaitis, Miller and Popa that the
  paper builds on: a tgd fires on a body homomorphism that cannot be
  extended to the head, creating fresh labeled nulls for the existential
  variables; an egd merges a null with another value, or *fails* (``⊥``)
  when it would equate two distinct constants.  Every input fact seeds
  the first round;
* :func:`chase_incremental`, which patches a finished chase with a base
  delta: the loop is seeded with the delta left after provenance-guided
  retraction;
* :func:`solution_aware_chase`, the **solution-aware chase** (Definitions
  6 and 7 of the paper), whose firing rule takes existential witnesses
  from a given instance ``K'`` that contains the chased instance and
  satisfies the tgds.  Lemma 1 shows its sequences have polynomial length
  for weakly acyclic sets; the library uses it to build small solutions
  (Lemma 2).

All record per-step provenance, which the tests use to check the paper's
length bounds and which makes chase output debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

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

#: Rows grouped by relation name: a round's delta, or withdrawn facts.
Rows = dict[str, set]

#: A firing rule: the head assignment a tgd step fires under, given the
#: body match (fresh nulls in the standard chase, values of the given
#: solution in the solution-aware one).
Witness = Callable[[TGD, dict[Variable, InstanceTerm]], Mapping[Variable, InstanceTerm]]


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
        rounds: number of semi-naive rounds, counting the last one, which
            derived nothing new.
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


def _ground(
    atoms: Sequence[Atom], assignment: Mapping[Variable, InstanceTerm]
) -> tuple[Fact, ...]:
    """Ground ``atoms`` under an assignment binding all of their variables."""
    return tuple(
        Fact(atom.relation, [assignment[t] if is_variable(t) else t for t in atom.args])
        for atom in atoms
    )


def _unify_row(
    atom: Atom,
    args: Sequence[InstanceTerm],
    bind: "frozenset[Variable] | set[Variable]",
) -> dict[Variable, InstanceTerm] | None:
    """Match one atom against one row, binding the variables in ``bind``.

    Variables outside ``bind`` (a head atom's existentials) match
    anything.  Returns None on a constant or repeated-variable mismatch.
    """
    binding: dict[Variable, InstanceTerm] = {}
    for term, value in zip(atom.args, args):
        if is_variable(term):
            if term not in bind:
                continue
            bound = binding.get(term)  # type: ignore[arg-type]
            if bound is None:
                binding[term] = value  # type: ignore[index]
            elif bound != value:
                return None
        elif term != value:
            return None
    return binding


def _seeded_matches(
    seeds: Iterable[Atom],
    body: Sequence[Atom],
    instance: Instance,
    rows: Mapping[str, set],
    bind: "frozenset[Variable] | set[Variable]",
) -> Iterator[dict[Variable, InstanceTerm]]:
    """Body matches under which some seed atom maps onto one of ``rows``.

    The seeded matcher: unify one atom with one row, binding the body
    variables ``bind`` it holds, then match ``body`` over ``instance``
    under that binding, so the cost scales with ``rows`` rather than with
    the relations.  Seeds are body atoms for delta matching, and head
    atoms to find the matches a withdrawn row may have witnessed.  When
    one unification binds every body variable, a containment check
    replaces the search.  A match may be yielded more than once.
    """
    for atom in seeds:
        atom_rows = rows.get(atom.relation)
        if not atom_rows:
            continue
        for args in atom_rows:
            partial = _unify_row(atom, args, bind)
            if partial is None:
                continue
            if len(partial) == len(bind):
                if all(fact in instance for fact in _ground(body, partial)):
                    yield partial
            else:
                yield from iter_homomorphisms(body, instance, partial)


def _fresh_nulls(null_factory: NullFactory) -> Witness:
    """The standard chase's firing rule: a fresh null per existential."""

    def witness(tgd, assignment):
        total = dict(assignment)
        for variable in sorted(tgd.existential_variables(), key=lambda v: v.name):
            total[variable] = null_factory.fresh(hint=variable.name)
        return total

    return witness


def _witnesses_in(solution: Instance) -> Witness:
    """The solution-aware firing rule: a head witness inside ``solution``."""

    def witness(tgd, assignment):
        frontier = _frontier_assignment(tgd, assignment)
        found = find_homomorphism(tgd.head, solution, frontier)
        if found is None:
            raise ChaseFailure(
                f"given solution does not satisfy tgd {tgd} under {assignment}"
            )
        return found

    return witness


def _facts_holding(instance: Instance, values: Iterable[InstanceTerm]) -> set[Fact]:
    """The facts of ``instance`` holding any of ``values`` (index lookups)."""
    values = list(values)
    found: set[Fact] = set()
    for relation in instance.relations():
        arity = len(next(iter(instance.rows(relation))))
        for position in range(arity):
            for value in values:
                for args in instance.candidate_rows(relation, position, value):
                    found.add(Fact(relation, args))
    return found


def _merge(
    current: Instance,
    violations: Sequence[tuple[EGD, dict[Variable, InstanceTerm]]],
    steps: list[ChaseStep],
    added: Rows,
    max_steps: int,
    budget: "Budget | None",
) -> None:
    """Apply one round's egd violations as one batch of merges, in place.

    The violated equalities are closed under union-find: a class keeps its
    constant, else its lowest-labeled null, and a class holding two
    constants raises :class:`ChaseFailure`.  Each union is recorded as an
    egd step whose ``merged`` is ``(kept, dropped)``.  Only the facts
    holding a dropped value are rewritten; those the rewrite makes new
    join ``added``, the next round's delta.
    """
    parent: dict[InstanceTerm, InstanceTerm] = {}

    def find(value):
        root = value
        while root in parent:
            root = parent[root]
        while value != root:
            parent[value], value = root, parent[value]
        return root

    for egd, assignment in violations:
        kept, dropped = find(assignment[egd.left]), find(assignment[egd.right])
        if kept == dropped:
            continue
        if isinstance(kept, Constant) and isinstance(dropped, Constant):
            raise ChaseFailure(
                f"egd {egd} requires {kept} = {dropped}, but both are distinct constants"
            )
        if isinstance(dropped, Constant) or (
            not isinstance(kept, Constant) and dropped < kept  # type: ignore[operator]
        ):
            kept, dropped = dropped, kept
        if len(steps) >= max_steps:
            raise ChaseNonTermination(max_steps)
        parent[dropped] = kept
        steps.append(
            ChaseStep(dependency=egd, assignment=assignment, merged=(kept, dropped))
        )
        if budget is not None:
            budget.charge_chase_step()
    image = {value: find(value) for value in parent}
    for fact in _facts_holding(current, image):
        current.discard(fact)
        rows = added.get(fact.relation)
        if rows is not None:
            rows.discard(fact.args)
        rewritten = fact.substitute(image)
        if current.add(rewritten):
            added.setdefault(rewritten.relation, set()).add(rewritten.args)


def _fixpoint(
    current: Instance,
    dependencies: Sequence[Dependency],
    witness: Witness,
    delta: Rows | None,
    max_steps: int,
    budget: "Budget | None" = None,
    withdrawn: Rows | None = None,
    merges: bool = True,
) -> tuple[list[ChaseStep], int]:
    """The chase loop: chase ``current`` in place; return (steps, rounds).

    Semi-naive: a round considers only the body matches that touch its
    delta.  Round one's delta is ``delta`` (None means every fact of
    ``current``, and each body match is then enumerated once over the
    whole instance); each later round's is the facts the previous round
    added or rewrote.  Round one also re-examines the tgd matches whose
    head unifies with a ``withdrawn`` row, since their witness may be
    gone.  A match whose head is not witnessed fires under the head
    assignment ``witness`` returns.  The egd violations a round finds are
    merged together at its end (:func:`_merge`); with ``merges`` False a
    violation raises :class:`IncrementalChaseUnsupported` instead.
    """
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    egds = [d for d in dependencies if isinstance(d, EGD)]
    egd_vars = [egd.body_variables() for egd in egds]
    # Matches already considered, per tgd; a considered match stays
    # witnessed (heads only grow, and merges rewrite witnesses along).
    seen: list[set] = [set() for _ in tgds]
    steps: list[ChaseStep] = []
    rounds = 0
    while True:
        rounds += 1
        added: Rows = {}
        for tgd, considered in zip(tgds, seen):
            if budget is not None:
                budget.checkpoint()
            # Materialize the matches before firing: firing mutates
            # ``current`` and the matcher must not observe it.
            if delta is None:
                matches = list(iter_homomorphisms(tgd.body, current))
            else:
                bind = tgd.body_variables()
                candidates: Iterable = _seeded_matches(
                    tgd.body, tgd.body, current, delta, bind
                )
                if withdrawn and rounds == 1:
                    candidates = chain(
                        candidates,
                        _seeded_matches(tgd.head, tgd.body, current, withdrawn, bind),
                    )
                matches = []
                for assignment in candidates:
                    key = frozenset(assignment.items())
                    if key not in considered:
                        considered.add(key)
                        matches.append(assignment)
            for assignment in matches:
                if len(steps) >= max_steps:
                    raise ChaseNonTermination(max_steps)
                if _head_satisfied(current, tgd, assignment):
                    continue
                facts = _ground(tgd.head, witness(tgd, assignment))
                step = ChaseStep(
                    dependency=tgd,
                    assignment=dict(assignment),
                    added_facts=tuple(fact for fact in facts if current.add(fact)),
                )
                steps.append(step)
                for fact in step.added_facts:
                    added.setdefault(fact.relation, set()).add(fact.args)
                if budget is not None:
                    budget.charge_chase_step()
                    if step.added_facts:
                        budget.charge_facts(len(step.added_facts))
        violations = []
        for egd, bind in zip(egds, egd_vars):
            if budget is not None:
                budget.checkpoint()
            if delta is None:
                candidates = iter_homomorphisms(egd.body, current)
            else:
                candidates = _seeded_matches(egd.body, egd.body, current, delta, bind)
            for assignment in candidates:
                if assignment[egd.left] != assignment[egd.right]:
                    if not merges:
                        raise IncrementalChaseUnsupported(
                            f"egd {egd} became applicable under the delta; "
                            "re-chase from scratch"
                        )
                    violations.append((egd, assignment))
        if violations:
            _merge(current, violations, steps, added, max_steps, budget)
        if not any(added.values()):
            return steps, rounds
        delta = added


def _deterministic(dependencies: Iterable[Dependency]) -> list[Dependency]:
    """The dependencies as a list, refusing disjunctive tgds."""
    dependencies = list(dependencies)
    for dependency in dependencies:
        if not isinstance(dependency, (TGD, EGD)):
            raise DependencyError(
                f"cannot chase non-deterministic dependency {dependency}"
            )
    return dependencies


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
    Every input fact seeds the first round of the semi-naive loop; the
    egd violations of a round are merged in one batch at its end.

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
    dependencies = _deterministic(dependencies)
    if null_factory is None:
        null_factory = NullFactory.above(instance.nulls())
    if tracer is None:
        tracer = NULL_TRACER

    with tracer.span("chase", dependencies=len(dependencies)) as span:
        current = instance.copy()
        steps, rounds = _fixpoint(
            current, dependencies, _fresh_nulls(null_factory), None, max_steps, budget
        )
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
        body = _ground(step.dependency.body, step.assignment)
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
    * **semi-naive re-firing**: the chase loop runs seeded with the added
      facts, plus the tgd matches whose head witness was retracted — the
      latter also re-derives over-deleted facts that have a surviving
      alternative justification (with fresh nulls for existentials, hence
      equivalence *up to null renaming*).

    Preconditions, enforced by raising :class:`IncrementalChaseUnsupported`
    (callers re-chase from scratch with :func:`chase`):

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
    dependencies = _deterministic(dependencies)
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

        removed_rows: Rows = {}
        for fact in removed:
            current.discard(fact)
            removed_rows.setdefault(fact.relation, set()).add(fact.args)

        # --- the chase loop, seeded with the input delta ----------------
        inserted = [fact for fact in added if current.add(fact)]
        delta_rows: Rows = {}
        for fact in inserted:
            delta_rows.setdefault(fact.relation, set()).add(fact.args)
        new_steps, rounds = _fixpoint(
            current,
            dependencies,
            _fresh_nulls(null_factory),
            delta_rows,
            max_steps,
            budget,
            withdrawn=removed_rows,
            merges=False,
        )
        for step in new_steps:
            index.add(step)
            inserted.extend(step.added_facts)

        # --- assemble ----------------------------------------------------
        # An inserted fact was absent when inserted, and insertion happens
        # strictly after the removal phase, so it was absent from the
        # post-removal state; it belonged to the *prior* fixpoint iff the
        # retraction removed it first.  (No reference to ``prior.instance``
        # here — under ``consume`` it aliases ``current``.)
        net_removed = tuple(fact for fact in removed if fact not in current)
        delta_added = tuple(fact for fact in inserted if fact not in removed)
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
    ``solution`` of size polynomial in the input.  It runs the same loop
    as :func:`chase`; only the firing rule differs.

    Raises:
        ChaseFailure: on a failing egd step, or if ``solution`` does not
            actually witness a required head (i.e. the precondition that
            ``solution`` satisfies the tgds is violated).
        ChaseNonTermination: if ``max_steps`` is exceeded.
    """
    dependencies = _deterministic(dependencies)
    if not solution.contains_instance(instance):
        raise ChaseFailure("solution-aware chase requires solution ⊇ instance")
    if tracer is None:
        tracer = NULL_TRACER

    with tracer.span(
        "solution-aware-chase", dependencies=len(dependencies)
    ) as span:
        current = instance.copy()
        steps, rounds = _fixpoint(
            current, dependencies, _witnesses_in(solution), None, max_steps
        )
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
        for assignment in iter_homomorphisms(dependency.body, instance):
            if isinstance(dependency, TGD):
                holds = _head_satisfied(instance, dependency, assignment)
            elif isinstance(dependency, EGD):
                holds = assignment[dependency.left] == assignment[dependency.right]
            else:
                holds = _disjunct_satisfied(instance, dependency, assignment)
            if not holds:
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
