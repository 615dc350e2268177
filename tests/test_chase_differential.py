"""The chase loop against the naive reference chase, on generated inputs.

:func:`repro.core.chase.chase` runs one semi-naive loop that merges a
round's egd violations in one batch and rewrites facts in place.  The
oracle is ``tests/reference_chase.py``: the naive loop it replaced, one
whole-instance rename per merge.  On seeded random weakly acyclic tgd +
egd sets, over instances that already hold nulls:

* both give the same :class:`ChaseFailure` verdict, and otherwise
  homomorphically equivalent results that satisfy the dependencies;
* :func:`repro.core.chase.solution_aware_chase` run against a (bloated)
  solution returns an instance that contains the start, lies inside the
  solution and satisfies the dependencies.

The default run covers a tier-1 sized sweep; the ``slow`` sweep covers a
few hundred more seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.atoms import Atom, Fact
from repro.core.chase import chase, satisfies, solution_aware_chase
from repro.core.dependencies import EGD, TGD
from repro.core.homomorphism import has_instance_homomorphism
from repro.core.instance import Instance
from repro.core.parser import parse_dependencies, parse_instance
from repro.core.terms import Constant, Null, Variable
from repro.core.weak_acyclicity import is_weakly_acyclic
from repro.exceptions import ChaseFailure

from tests.reference_chase import reference_chase

ARITIES = {"A": 1, "B": 1, "P": 2, "Q": 2, "R": 2}
BODY_VARS = [Variable(name) for name in "xyz"]
EXISTENTIALS = [Variable(name) for name in "uv"]
CONSTANTS = [Constant(name) for name in "abc"]
NULLS = [Null(label) for label in range(3)]


def equivalent(left: Instance, right: Instance) -> bool:
    return has_instance_homomorphism(left, right) and has_instance_homomorphism(
        right, left
    )


def random_atom(rng: random.Random, terms) -> Atom:
    relation = rng.choice(sorted(ARITIES))
    return Atom(relation, [rng.choice(terms) for _ in range(ARITIES[relation])])


def random_tgd(rng: random.Random) -> TGD:
    body = [random_atom(rng, BODY_VARS) for _ in range(rng.randint(1, 2))]
    exported = sorted(set().union(*(atom.variables() for atom in body)))
    head_terms = exported + EXISTENTIALS[: rng.randint(0, 2)]
    if rng.random() < 0.2:
        head_terms = head_terms + [CONSTANTS[0]]
    head = [random_atom(rng, head_terms) for _ in range(rng.randint(1, 2))]
    return TGD(body, head)


def random_egd(rng: random.Random) -> EGD:
    """A key-style egd: two atoms agreeing on one position, equated on another."""
    first, second = rng.choice(["P", "Q", "R"]), rng.choice(["P", "Q", "R"])
    x, y, z = BODY_VARS
    if rng.random() < 0.5:
        body = [Atom(first, (x, y)), Atom(second, (x, z))]
    else:
        body = [Atom(first, (y, x)), Atom(second, (z, x))]
    return EGD(body, y, z)


def random_dependencies(rng: random.Random) -> list:
    while True:
        tgds = [random_tgd(rng) for _ in range(rng.randint(1, 4))]
        if is_weakly_acyclic(tgds):
            break
    egds = [random_egd(rng) for _ in range(rng.choice([0, 1, 1, 2, 2]))]
    dependencies = tgds + egds
    rng.shuffle(dependencies)
    return dependencies


def random_instance(rng: random.Random, size: int) -> Instance:
    values = CONSTANTS + NULLS + NULLS
    facts = []
    for _ in range(size):
        relation = rng.choice(sorted(ARITIES))
        facts.append(
            Fact(relation, tuple(rng.choice(values) for _ in range(ARITIES[relation])))
        )
    return Instance(facts)


def outcome(run):
    try:
        return run()
    except ChaseFailure:
        return None


def check_seed(seed: int) -> None:
    rng = random.Random(seed)
    dependencies = random_dependencies(rng)
    instance = random_instance(rng, rng.randint(2, 10))

    expected = outcome(lambda: reference_chase(instance, dependencies))
    result = outcome(lambda: chase(instance, dependencies))
    assert (result is None) == (expected is None), (seed, dependencies, instance)
    if expected is None:
        return
    got = result.instance
    assert equivalent(got, expected), (seed, dependencies, instance)
    assert satisfies(got, dependencies)

    # The solution-aware chase, against a solution bloated with extra facts.
    bloated = instance.union(random_instance(rng, rng.randint(0, 4)))
    solution = outcome(lambda: reference_chase(bloated, dependencies))
    if solution is None:
        solution = expected
    start = Instance(fact for fact in instance if fact in solution)
    aware = solution_aware_chase(start, dependencies, solution).instance
    assert aware.contains_instance(start)
    assert solution.contains_instance(aware)
    assert satisfies(aware, dependencies)
    assert has_instance_homomorphism(chase(start, dependencies).instance, aware)


@pytest.mark.parametrize("seed", range(60))
def test_chase_matches_reference(seed):
    check_seed(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(60, 460))
def test_chase_matches_reference_sweep(seed):
    check_seed(seed)


def test_sweep_exercises_merges_and_failures():
    """The tier-1 seeds reach egd merges, constant clashes and nulls."""
    merges = failures = 0
    for seed in range(60):
        rng = random.Random(seed)
        dependencies = random_dependencies(rng)
        instance = random_instance(rng, rng.randint(2, 10))
        try:
            result = chase(instance, dependencies)
        except ChaseFailure:
            failures += 1
            continue
        merges += sum(1 for step in result.steps if step.merged is not None)
    assert merges > 0
    assert failures > 0


def test_merge_rewrites_input_fact_that_a_tgd_then_fires_on():
    # Round one merges N0 into b, which rewrites the input fact Q(N0) into
    # the new fact Q(b); R(b) must follow from it.
    dependencies = parse_dependencies("P(x, y), P(x, z) -> y = z; Q(x) -> R(x)")
    instance = Instance(
        [
            Fact("P", (Constant("a"), Null(0))),
            Fact("P", (Constant("a"), Constant("b"))),
            Fact("Q", (Null(0),)),
        ]
    )
    result = chase(instance, dependencies)
    assert result.instance == parse_instance("P(a, b); Q(b); R(b)")
    assert result.instance == reference_chase(instance, dependencies)
    assert [step.merged for step in result.steps if step.merged] == [
        (Constant("b"), Null(0))
    ]
    step = result.provenance_of(Fact("R", (Constant("b"),)))
    assert step is not None and step.added_facts


def test_tgd_fires_only_on_the_rewritten_fact():
    # Q(N0) joins S(b) only once N0 is merged into b, so the rewrite must
    # feed Q(b) back into the next round's delta.
    dependencies = parse_dependencies("P(x, y), P(x, z) -> y = z; Q(x), S(x) -> R(x)")
    instance = Instance(
        [
            Fact("P", (Constant("a"), Null(0))),
            Fact("P", (Constant("a"), Constant("b"))),
            Fact("Q", (Null(0),)),
            Fact("S", (Constant("b"),)),
        ]
    )
    result = chase(instance, dependencies)
    assert result.instance == parse_instance("P(a, b); Q(b); S(b); R(b)")
    assert result.instance == reference_chase(instance, dependencies)


def test_batched_merges_chain_to_the_constant():
    # One round finds N2 = N1 and N1 = c: the class keeps the constant and
    # every fact holding a dropped null is rewritten.
    dependencies = parse_dependencies("P(x, y), P(x, z) -> y = z")
    instance = Instance(
        [
            Fact("P", (Constant("a"), Null(2))),
            Fact("P", (Constant("a"), Null(1))),
            Fact("P", (Constant("a"), Constant("c"))),
            Fact("Q", (Null(2), Null(1))),
        ]
    )
    result = chase(instance, dependencies)
    assert result.instance == parse_instance("P(a, c); Q(c, c)")
    # Replaying the recorded (kept, dropped) pairs in order, as
    # provenance_of does backwards, sends both nulls to c.
    image = {Null(1): Null(1), Null(2): Null(2)}
    for step in result.steps:
        kept, dropped = step.merged
        image = {null: kept if value == dropped else value for null, value in image.items()}
    assert image == {Null(1): Constant("c"), Null(2): Constant("c")}


def test_batched_merge_of_two_constants_fails():
    dependencies = parse_dependencies("P(x, y), P(x, z) -> y = z")
    instance = Instance(
        [
            Fact("P", (Constant("a"), Null(0))),
            Fact("P", (Constant("a"), Constant("b"))),
            Fact("P", (Constant("a"), Constant("c"))),
        ]
    )
    with pytest.raises(ChaseFailure):
        chase(instance, dependencies)
