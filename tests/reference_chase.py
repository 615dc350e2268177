"""The reference chase: the naive loop that the semi-naive engine replaced.

Kept in the test suite as the oracle for :mod:`repro.core.chase`, next
to the matcher's own reference in ``test_matcher_reference.py``.  Every
round re-enumerates every body match of every dependency over the whole
instance.  A tgd fires on a match whose head has no witness, with a
fresh null per existential.  Each egd violation is one step that renames
the whole instance: a null gives way to a constant, a higher-labelled
null to a lower one, and two distinct constants fail.  Slow on purpose;
it shares nothing with the production loop but the homomorphism matcher.
"""

from __future__ import annotations

from repro.core.atoms import Fact
from repro.core.dependencies import TGD
from repro.core.homomorphism import find_homomorphism, iter_homomorphisms
from repro.core.instance import Instance
from repro.core.terms import Constant, NullFactory, is_variable
from repro.exceptions import ChaseFailure, ChaseNonTermination


def _ground(atom, assignment) -> Fact:
    return Fact(
        atom.relation,
        tuple(assignment[t] if is_variable(t) else t for t in atom.args),
    )


def reference_chase(instance: Instance, dependencies, max_steps: int = 20_000) -> Instance:
    """Chase ``instance`` with tgds and egds naively; return the fixpoint.

    Raises :class:`ChaseFailure` when an egd equates two constants and
    :class:`ChaseNonTermination` after ``max_steps`` steps.
    """
    current = instance.copy()
    factory = NullFactory.above(instance.nulls())
    steps = 0
    changed = True
    while changed:
        changed = False
        for dependency in dependencies:
            if isinstance(dependency, TGD):
                for assignment in list(iter_homomorphisms(dependency.body, current)):
                    frontier = {
                        v: assignment[v] for v in dependency.frontier_variables()
                    }
                    if find_homomorphism(dependency.head, current, frontier) is not None:
                        continue
                    steps += 1
                    if steps > max_steps:
                        raise ChaseNonTermination(max_steps)
                    total = dict(assignment)
                    for variable in dependency.existential_variables():
                        total[variable] = factory.fresh()
                    for atom in dependency.head:
                        current.add(_ground(atom, total))
                    changed = True
                continue
            while True:
                violation = next(
                    (
                        a
                        for a in iter_homomorphisms(dependency.body, current)
                        if a[dependency.left] != a[dependency.right]
                    ),
                    None,
                )
                if violation is None:
                    break
                steps += 1
                if steps > max_steps:
                    raise ChaseNonTermination(max_steps)
                left, right = violation[dependency.left], violation[dependency.right]
                if isinstance(left, Constant) and isinstance(right, Constant):
                    raise ChaseFailure(f"{dependency} equates {left} and {right}")
                if isinstance(left, Constant) or (
                    not isinstance(right, Constant) and left < right
                ):
                    kept, dropped = left, right
                else:
                    kept, dropped = right, left
                current = current.rename({dropped: kept})
                changed = True
    return current
