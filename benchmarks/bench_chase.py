"""Experiment E12 — Definition 5 / Lemma 1: weakly acyclic chase behavior.

Paper claims: weak acyclicity of a set of tgds guarantees that every
(solution-aware) chase sequence has length bounded by a polynomial in the
instance size.  The bench measures chase length and wall time across
growing instances for weakly acyclic sets (linear-to-polynomial growth),
verifies the classifier on a catalogue of dependency sets, and shows the
step budget catching a non-weakly-acyclic set.

The second half benchmarks the incremental (semi-naive) chase on the
sync hot path: a genomics churn feed replayed through ``sync_delta``
with the warm incremental pipeline on and off, recorded to
``BENCH_chase.json`` for the nightly lane to archive.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.chase import chase, solution_aware_chase
from repro.core.homomorphism import has_instance_homomorphism
from repro.core.instance import Instance
from repro.core.parser import parse_dependencies, parse_instance
from repro.core.weak_acyclicity import is_weakly_acyclic
from repro.exceptions import ChaseNonTermination
from repro.sync.session import Stamp, SyncSession
from repro.workloads.scenarios import generate_genomics_feed, genomics_setting

WEAKLY_ACYCLIC = parse_dependencies(
    """
    E(x, y) -> G(x, w)
    G(x, w) -> F(w)
    E(x, y), E(y, z) -> E2(x, z)
    """
)

NON_WEAKLY_ACYCLIC = parse_dependencies("H(x, y) -> H(y, z)")


def chain_instance(n: int):
    return parse_instance("; ".join(f"E(a{i}, a{i + 1})" for i in range(n)))


def test_chase_length_polynomial(benchmark, table):
    sizes = [8, 16, 32, 64]

    def run():
        rows = []
        for n in sizes:
            instance = chain_instance(n)
            started = time.perf_counter()
            result = chase(instance, WEAKLY_ACYCLIC)
            elapsed = time.perf_counter() - started
            rows.append(
                [n, result.step_count, result.rounds, f"{elapsed * 1000:.1f} ms"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    table(
        "E12: chase length on a weakly acyclic set (paper: polynomial)",
        ["|I|", "chase steps", "rounds", "time"],
        rows,
    )
    # Steps grow at most quadratically here (E2 join of a chain is linear).
    steps = [row[1] for row in rows]
    assert steps[-1] <= steps[0] * (sizes[-1] // sizes[0]) ** 2


def test_solution_aware_chase_length(benchmark, table):
    """Lemma 1 for the solution-aware variant: bounded by the same polynomial."""
    tgds = parse_dependencies("E(x, y) -> G(x, w)\nG(x, w) -> F(w)")
    sizes = [8, 16, 32]

    def run():
        rows = []
        for n in sizes:
            start = chain_instance(n)
            solution = start.copy()
            solution.add_all(parse_instance("; ".join(f"G(a{i}, c{i})" for i in range(n))))
            solution.add_all(parse_instance("; ".join(f"F(c{i})" for i in range(n))))
            result = solution_aware_chase(start, tgds, solution)
            assert result.instance.is_ground()
            rows.append([n, result.step_count])
        return rows

    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    table(
        "E12: solution-aware chase length (Lemma 1)",
        ["|I|", "chase steps"],
        rows,
    )
    steps = [row[1] for row in rows]
    assert steps == [2 * n for n in sizes]  # exactly linear for this set


def test_weak_acyclicity_classifier(benchmark, table):
    catalogue = [
        ("full tgds", "E(x, y) -> E(y, x)", True),
        ("acyclic inclusion", "A(x, y) -> B(x, y)\nB(x, y) -> C(x, w)", True),
        ("one-shot existential", "H(x, y) -> H(x, z)", True),
        ("self special loop", "H(x, y) -> H(y, z)", False),
        ("two-tgd special cycle", "A(x) -> B(x, w)\nB(x, y) -> A(y)", False),
    ]

    def run():
        rows = []
        for label, text, expected in catalogue:
            verdict = is_weakly_acyclic(parse_dependencies(text))
            assert verdict is expected
            rows.append([label, verdict])
        return rows

    rows = benchmark(run)
    table(
        "E12: weak-acyclicity classification (Definition 5)",
        ["dependency set", "weakly acyclic"],
        rows,
    )


def test_non_weakly_acyclic_budget(benchmark):
    instance = parse_instance("H(a, b)")

    def run():
        with pytest.raises(ChaseNonTermination):
            chase(instance, NON_WEAKLY_ACYCLIC, max_steps=200)
        return True

    assert benchmark(run)


def test_certified_budget(benchmark, table):
    """Lemma 1 constructively: the position-rank budget always covers the
    actual chase length (by a wide margin — the bound is coarse)."""
    from repro.core.weak_acyclicity import chase_step_bound, position_ranks

    sizes = [8, 16, 32]

    def run():
        ranks = position_ranks(WEAKLY_ACYCLIC)
        max_rank = max(ranks.values())
        rows = []
        for n in sizes:
            instance = chain_instance(n)
            budget = chase_step_bound(WEAKLY_ACYCLIC, len(instance))
            result = chase(instance, WEAKLY_ACYCLIC, max_steps=budget)
            assert result.step_count <= budget
            rows.append([n, max_rank, result.step_count, budget])
        return rows

    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    table(
        "E12: certified chase budget from position ranks (Lemma 1)",
        ["|I|", "max rank", "actual steps", "certified budget"],
        rows,
    )


def _drive_churn(feed, setting, incremental: bool) -> tuple[list[float], Instance]:
    """Replay ``feed`` through ``sync_delta``; per-round latencies + state."""
    schema = setting.source_schema
    session = SyncSession(setting, incremental=incremental)
    session.sync(feed[0], stamp=Stamp(0, 0))
    latencies = []
    prev = feed[0]
    for index, snap in enumerate(feed[1:], 1):
        added, withdrawn = snap.diff(prev)
        added_instance = Instance(schema=schema)
        added_instance.add_all(added)
        withdrawn_instance = Instance(schema=schema)
        withdrawn_instance.add_all(withdrawn)
        started = time.perf_counter()
        outcome = session.sync_delta(
            added_instance,
            withdrawn_instance,
            base=Stamp(0, index - 1),
            stamp=Stamp(0, index),
        )
        latencies.append(time.perf_counter() - started)
        assert outcome.ok
        prev = snap
    return latencies, session.state()


def test_incremental_chase_sync_hot_path(benchmark, table, record):
    """Incremental (semi-naive) chase vs from-scratch on genomics churn.

    Both sessions run the same delta-narrowed retraction scan, so the
    ratio isolates the solve: warm ``chase_incremental`` against a
    from-scratch Figure 3 solve.  Measured at 1.7-2.3x on a shared
    2-vCPU VM (median ``sync_delta`` round ~13-21 ms against ~31-47 ms);
    the bar keeps margin below that, and both runs must converge to
    hom-equivalent states.
    """
    setting = genomics_setting()
    feed = generate_genomics_feed(rounds=10, proteins=120, churn=0.12, seed=7)

    def run():
        warm, warm_state = _drive_churn(feed, setting, incremental=True)
        cold, cold_state = _drive_churn(feed, setting, incremental=False)
        assert has_instance_homomorphism(warm_state, cold_state)
        assert has_instance_homomorphism(cold_state, warm_state)
        return warm, cold

    warm, cold = benchmark.pedantic(run, rounds=3, iterations=1)
    warm_ms = statistics.median(warm) * 1000
    cold_ms = statistics.median(cold) * 1000
    speedup = cold_ms / warm_ms
    table(
        "incremental chase: sync_delta round latency on genomics churn",
        ["rounds", "incremental median", "scratch median", "speedup"],
        [[len(warm), f"{warm_ms:.2f} ms", f"{cold_ms:.2f} ms", f"{speedup:.1f}x"]],
    )
    record(
        "bench_chase.sync_delta_incremental",
        {
            "workload": "genomics-churn",
            "rounds": len(warm),
            "proteins": 120,
            "churn": 0.12,
            "incremental_median_ms": round(warm_ms, 3),
            "scratch_median_ms": round(cold_ms, 3),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 1.3
