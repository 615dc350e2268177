"""The single ``Σ_ts`` retraction scan against a restarting reference.

:meth:`repro.sync.SyncSession._retraction_scan` makes one pass over the
violated ``Σ_ts`` matches in canonical premise order.  The oracle here is
the restarting loop it replaced — after every retracted fact it
re-enumerates every violated match over the survivors — visiting matches
in the same canonical order.  Checked on seeded random settings (single-
and two-atom bodies, disjunctive and existential heads, pinned facts):

* the scan retracts exactly the reference's facts;
* the delta-seeded scan equals the full scan whenever the delta-chain
  invariant holds (the state solves the base source);
* survivors ∪ pinned satisfy ``Σ_ts`` against the new source, except for
  violations whose premise is entirely pinned.

A subprocess twin test pins the retracted set across hash seeds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.atoms import Fact
from repro.core.dependencies import TGD
from repro.core.homomorphism import find_homomorphism, iter_homomorphisms
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.core.terms import Constant, Variable, term_sort_key
from repro.net import registry_setting
from repro.sync import Stamp, SyncSession
from repro.workloads import generate_genomics_feed, genomics_setting
from repro.workloads.scenarios import procurement_setting

SRC = Path(__file__).resolve().parent.parent / "src"

SOURCE = {"s": 2, "r": 2, "q": 1}
TARGET = {"e": 2, "f": 2}
SIGMA_ST = "s(x, y) -> e(x, y)\nr(x, y) -> f(x, y)"
SIGMA_TS_POOL = (
    "e(x, y) -> s(x, y)",
    "f(x, y) -> r(x, y)",
    "e(x, y) -> q(x)",
    "f(x, y) -> s(x, w)",
    "e(x, y), f(y, z) -> s(x, z)",
    "e(x, y), e(y, z) -> r(x, z)",
    "f(x, y), e(x, z) -> q(z)",
    "f(x, y) -> (s(x, y)) | (r(y, x))",
    "e(x, y), f(x, z) -> (q(y)) | (r(z, x))",
)


# -- the reference oracle ---------------------------------------------------


def premise_key(premise: tuple[Fact, ...]) -> tuple:
    return tuple(
        (fact.relation, tuple(term_sort_key(value) for value in fact.args))
        for fact in premise
    )


def witnessed(dependency, assignment, source: Instance) -> bool:
    """Does some head (disjunct) extend ``assignment`` into ``source``?"""
    heads = (
        [dependency.head] if isinstance(dependency, TGD) else dependency.disjuncts
    )
    for head in heads:
        head_vars: set[Variable] = set()
        for atom in head:
            head_vars |= atom.variables()
        fixed = {var: value for var, value in assignment.items() if var in head_vars}
        if find_homomorphism(list(head), source, fixed) is not None:
            return True
    return False


def violations(setting, state: Instance, source: Instance) -> list[tuple[Fact, ...]]:
    """Premises of the ``Σ_ts`` matches over ``state`` unwitnessed in ``source``."""
    found = []
    for dependency in setting.sigma_ts:
        for assignment in iter_homomorphisms(dependency.body, state):
            if not witnessed(dependency, assignment, source):
                found.append(
                    tuple(atom.substitute(assignment).to_fact() for atom in dependency.body)
                )
    return found


def reference_scan(
    setting, pinned: Instance, imported: Instance, source: Instance,
    canonical: bool = True,
) -> set[Fact]:
    """The restarting loop: drop one fact, then re-scan from the start.

    With ``canonical`` the violated matches are visited in premise order;
    without it, in enumeration order (which follows set iteration).
    """
    survivors = pinned.union(imported)
    retracted: set[Fact] = set()
    while True:
        violated = violations(setting, survivors, source)
        if canonical:
            violated.sort(key=premise_key)
        for premise in violated:
            droppable = [f for f in premise if f in imported and f not in pinned]
            if droppable:
                survivors.discard(droppable[0])
                retracted.add(droppable[0])
                break
        else:
            return retracted


# -- seeded random settings ---------------------------------------------------


def random_facts(arities, domain, density, rng) -> list[Fact]:
    facts = []
    for relation, arity in sorted(arities.items()):
        rows = [()]
        for _ in range(arity):
            rows = [row + (value,) for row in rows for value in domain]
        facts.extend(Fact(relation, row) for row in rows if rng.random() < density)
    return facts


def random_case(seed: int):
    """(setting, session, new source, withdrawn) with the chain invariant."""
    rng = random.Random(seed)
    ts = rng.sample(SIGMA_TS_POOL, k=rng.randint(1, 3))
    setting = PDESetting.from_text(
        source=SOURCE, target=TARGET, st=SIGMA_ST, ts="\n".join(ts),
        name=f"random-{seed}",
    )
    domain = [Constant(f"c{i}") for i in range(rng.randint(3, 5))]
    target = random_facts(TARGET, domain, rng.uniform(0.2, 0.5), rng)
    pinned = Instance(schema=setting.target_schema)
    imported = Instance(schema=setting.target_schema)
    for fact in target:
        (pinned if rng.random() < 0.2 else imported).add(fact)
    base = Instance(schema=setting.source_schema)
    base.add_all(random_facts(SOURCE, domain, rng.uniform(0.3, 0.7), rng))

    # Establish the delta-chain invariant: drop what the base does not
    # justify, then witness the all-pinned violations in the base itself.
    kept = imported.copy()
    for fact in reference_scan(setting, pinned, imported, base):
        kept.discard(fact)
    state = pinned.union(kept)
    filler = Constant("w")
    for dependency in setting.sigma_ts:
        head = dependency.head if isinstance(dependency, TGD) else dependency.disjuncts[0]
        for assignment in iter_homomorphisms(dependency.body, state):
            if not witnessed(dependency, assignment, base):
                for atom in head:
                    base.add(Fact(atom.relation, tuple(
                        assignment.get(term, filler) if isinstance(term, Variable)
                        else term
                        for term in atom.args
                    )))
    assert not violations(setting, state, base)

    session = SyncSession(setting, pinned=pinned)
    session._imported = kept
    withdrawn = Instance(schema=setting.source_schema)
    source = Instance(schema=setting.source_schema)
    for fact in sorted(base, key=str):
        (withdrawn if rng.random() < 0.3 else source).add(fact)
    source.add_all(random_facts(SOURCE, domain, 0.1, rng))
    return setting, session, source, withdrawn


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_retracts_what_the_restarting_reference_retracts(seed):
    setting, session, source, _ = random_case(seed)
    kept, retracted = session._still_justified(source)
    expected = reference_scan(setting, session.pinned, session._imported, source)
    assert set(retracted) == expected
    assert set(kept) == set(session._imported) - expected


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_seed_equals_full_scan_under_the_chain_invariant(seed):
    _, session, source, withdrawn = random_case(seed)
    full = session._still_justified(source)
    delta = session._still_justified_delta(source, withdrawn)
    assert delta == full


@pytest.mark.parametrize("seed", SEEDS)
def test_survivors_satisfy_sigma_ts_against_the_new_source(seed):
    setting, session, source, _ = random_case(seed)
    kept, _ = session._still_justified(source)
    for premise in violations(setting, session.pinned.union(kept), source):
        assert all(fact in session.pinned for fact in premise), premise


def test_random_cases_cover_the_interesting_shapes():
    shapes = {"two-atom": 0, "disjunctive": 0, "retracting": 0, "pinned": 0}
    for seed in SEEDS:
        setting, session, source, _ = random_case(seed)
        shapes["two-atom"] += any(len(d.body) == 2 for d in setting.sigma_ts)
        shapes["disjunctive"] += any(not isinstance(d, TGD) for d in setting.sigma_ts)
        shapes["pinned"] += bool(len(session.pinned))
        shapes["retracting"] += bool(len(session._still_justified(source)[1]))
    assert min(shapes.values()) >= 10, shapes


# -- shipped single-atom settings ----------------------------------------------


def test_single_atom_settings_retract_as_in_enumeration_order():
    # One premise fact per match: the visiting order cannot matter, so the
    # canonical scan retracts exactly what the historical loop did.
    rng = random.Random(5)
    domain = [Constant(f"v{i}") for i in range(3)]
    for setting in (procurement_setting(), registry_setting()):
        target = {symbol.name: symbol.arity for symbol in setting.target_schema}
        source_arities = {
            symbol.name: symbol.arity for symbol in setting.source_schema
        }
        total = 0
        for _ in range(5):
            imported = Instance(schema=setting.target_schema)
            imported.add_all(random_facts(target, domain, 0.3, rng))
            pinned = Instance(schema=setting.target_schema)
            for fact in sorted(imported, key=str)[:2]:
                imported.discard(fact)
                pinned.add(fact)
            source = Instance(schema=setting.source_schema)
            source.add_all(random_facts(source_arities, domain, 0.25, rng))
            session = SyncSession(setting, pinned=pinned)
            session._imported = imported
            _, retracted = session._still_justified(source)
            assert set(retracted) == reference_scan(
                setting, pinned, imported, source, canonical=False
            )
            total += len(retracted)
        assert total, setting.name

    feed = generate_genomics_feed(rounds=4, proteins=12, churn=0.3, seed=2)
    setting = genomics_setting()
    session = SyncSession(setting)
    for seq, snapshot in enumerate(feed):
        if seq:
            _, retracted = session._still_justified(snapshot)
            assert set(retracted) == reference_scan(
                setting, session.pinned, session._imported, snapshot,
                canonical=False,
            )
        assert session.sync(snapshot, stamp=Stamp(0, seq)).ok


# -- hash-seed independence -------------------------------------------------

TWIN_SCRIPT = """
import json
from repro.core.parser import parse_instance
from repro.core.setting import PDESetting
from repro.sync import SyncSession

setting = PDESetting.from_text(
    source={"s": 2, "p": 2}, target={"e": 2},
    st="s(x, y) -> e(x, y)", ts="e(x, y), e(y, z) -> p(x, z)",
)
nodes = [f"n{i}" for i in range(8)]
edges = [f"s({a}, {b})" for a, b in zip(nodes, nodes[1:])]
paths = [f"p({a}, {c})" for a, c in zip(nodes, nodes[2:])]
session = SyncSession(setting)
assert session.sync(parse_instance("; ".join(edges + paths))).ok
outcome = session.sync(parse_instance(edges[-1]))
assert outcome.ok
print(json.dumps({
    "retracted": sorted(str(fact) for fact in outcome.retracted),
    "state": sorted(str(fact) for fact in outcome.state),
}))
"""


def run_twin(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", TWIN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout)


def test_retraction_is_identical_under_every_hash_seed():
    runs = [run_twin(hash_seed) for hash_seed in range(4)]
    assert all(run == runs[0] for run in runs[1:]), runs
    # Canonical order drops the first edge of each broken two-hop path.
    assert runs[0]["state"] == ["e(n6, n7)"]
    assert len(runs[0]["retracted"]) == 6
