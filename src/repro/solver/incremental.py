"""Incremental ``ExistsSolution`` for churny peers (semi-naive Figure 3).

:class:`IncrementalTractableSolver` keeps the Figure 3 pipeline state of
the *previous* round — the chased ``Σ_st`` fixpoint, the chased ``Σ_ts``
fixpoint, and one persistent :class:`~repro.core.terms.NullFactory` — and
answers the next round by pushing the ``(source, target)`` delta through
:func:`repro.core.chase.chase_incremental` twice instead of re-chasing
from scratch:

1. diff the new ``(I, J)`` against the cached bases and chase the delta
   through ``Σ_st``, obtaining the updated ``J_can``;
2. diff the new ``J_can`` against the previous one and chase *that* delta
   through ``Σ_ts``, obtaining the updated ``I_can``;
3. test ``I_can ⊆hom I`` — containment when ``I_can`` is ground (the
   common case for back-mapping ``Σ_ts``), per-block embedding otherwise.

Correctness leans on the incremental chase contract: its result is
homomorphically equivalent to the from-scratch chase of the patched base,
and both are universal, so existence answers and witnesses agree with
:func:`repro.solver.tractable.exists_solution_tractable` up to null
renaming.  One null factory spans both stages and every round, so fresh
nulls never collide with cached ones; it starts above every null of the
first round's input, so they never collide with nulls a resumed session
brought back from its journal either.

The solver chases only ``Σ_st`` and ``Σ_ts``, which
:class:`~repro.core.setting.PDESetting` restricts to tgds, so the
incremental chase's egd preconditions never bind here.  It is
*self-healing*: an interrupted round (budget exhaustion mid-chase)
resets the cache, and the next call simply rebuilds from scratch.
Callers never need to distinguish the cold path from the warm path —
only ``method`` in the result (``"tractable-incremental"`` vs
``"tractable"``) and the ``chase.*`` metrics tell them apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import decompose_into_blocks
from repro.core.chase import ChaseResult, chase, chase_incremental
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.core.terms import InstanceTerm, Null, NullFactory
from repro.exceptions import SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.budget import Budget
from repro.solver.results import SolveResult
from repro.solver.tractable import _assemble_solution
from repro.tractability.classifier import classify

__all__ = ["IncrementalTractableSolver"]


@dataclass
class IncrementalTractableSolver:
    """Stateful Figure 3 solver that re-chases only deltas between rounds.

    One instance serves one logical peer pair: rounds must form a single
    evolving ``(source, target)`` timeline (exactly what a
    :class:`~repro.sync.SyncSession` provides).  :meth:`reset` drops the
    cache — call it on epoch bumps or chain breaks, where the new
    snapshot shares no lineage with the cached one.

    The cache is only committed after a fully successful round, so an
    exception mid-round (budget, cancellation) leaves the solver
    consistent; the next round falls back to a cold build.
    """

    setting: PDESetting
    check_membership: bool = True
    #: Created by the first cold build, above every null of that build's
    #: input — a session resumed from its journal already holds nulls.
    _factory: NullFactory | None = field(default=None, repr=False)
    _source: Instance | None = field(default=None, repr=False)
    _target: Instance | None = field(default=None, repr=False)
    _st_result: ChaseResult | None = field(default=None, repr=False)
    _j_can: Instance | None = field(default=None, repr=False)
    _ts_result: ChaseResult | None = field(default=None, repr=False)
    #: Occurrence counts of each null in the source-schema part of the
    #: ``Σ_ts`` fixpoint, maintained from chase deltas so the per-round
    #: "is I_can ground?" test never rescans the instance.
    _i_can_nulls: dict[Null, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.check_membership and not classify(self.setting).in_ctract:
            raise SolverError(
                "incremental solving uses the Figure 3 algorithm, which is "
                "only sound for C_tract settings"
            )

    @property
    def warm(self) -> bool:
        """True when the next round can run incrementally."""
        return self._st_result is not None

    def reset(self) -> None:
        """Drop all cached pipeline state (next round rebuilds cold)."""
        self._source = None
        self._target = None
        self._st_result = None
        self._j_can = None
        self._ts_result = None
        self._i_can_nulls = {}

    def solve(
        self,
        source: Instance,
        target: Instance,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> SolveResult:
        """Decide ``SOL(P)(source, target)``, incrementally when warm.

        Matches :func:`~repro.solver.tractable.exists_solution_tractable`
        on answers and (up to null renaming) witnesses.  Exceptions
        propagate exactly as from the from-scratch solver — but any
        partially-applied incremental state is reset first, so a caller
        that degrades and retries gets a consistent cold rebuild.
        """
        if tracer is None:
            tracer = NULL_TRACER
        try:
            return self._solve(source, target, self.warm, budget, tracer, metrics)
        except Exception:
            # Mid-round interruption (budget, cancellation, chase overrun):
            # the cache may hold a consumed support index — drop it.
            self.reset()
            raise

    # -- internals --------------------------------------------------------

    def _solve(
        self,
        source: Instance,
        target: Instance,
        incremental: bool,
        budget: Budget | None,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ) -> SolveResult:
        with tracer.span(
            "tractable-incremental", warm=incremental
        ) as span:
            if incremental:
                st_result, j_can, ts_result, stats = self._advance(
                    source, target, budget, tracer
                )
            else:
                st_result, j_can, ts_result, stats = self._rebuild(
                    source, target, budget, tracer
                )
            i_can = ts_result.instance.restrict_to(self.setting.source_schema)
            self._track_i_can_nulls(incremental, i_can, ts_result)
            stats["j_can_size"] = len(j_can)
            stats["i_can_size"] = len(i_can)
            if metrics is not None:
                metrics.counter("chase.incremental").inc(1 if incremental else 0)
                metrics.counter("chase.retracted").inc(stats.get("retracted", 0))
                metrics.counter("chase.refired").inc(stats.get("refired", 0))

            method = "tractable-incremental" if incremental else "tractable"
            exists, mapping = self._embeds(i_can, source, budget, stats, span)
            if not exists:
                solution = None
            elif mapping:
                solution = _assemble_solution(j_can, i_can, mapping)
            else:
                # No shared nulls to rename: the witness is J_can itself.
                solution = j_can.copy()
            if budget is not None:
                stats.update(budget.snapshot())
            if tracer.enabled:
                span.set("exists", exists)

            # Commit the cache only now: every stage of the round landed.
            self._source = source.copy()
            self._target = target.copy()
            self._st_result = st_result
            self._j_can = j_can
            self._ts_result = ts_result
            return SolveResult(
                exists=exists, solution=solution, method=method, stats=stats
            )

    def _rebuild(
        self,
        source: Instance,
        target: Instance,
        budget: Budget | None,
        tracer: Tracer,
    ) -> tuple[ChaseResult, Instance, ChaseResult, dict]:
        """Cold path: the ordinary Figure 3 chases, but with cached state."""
        self.setting.validate_source_instance(source)
        self.setting.validate_target_instance(target)
        combined = self.setting.combine(source, target)
        if self._factory is None:
            self._factory = NullFactory.above(combined.nulls())
        with tracer.span("sigma-st-chase"):
            st_result = chase(
                combined,
                self.setting.sigma_st,
                null_factory=self._factory,
                budget=budget,
                tracer=tracer,
            )
        j_can = st_result.instance.restrict_to(self.setting.target_schema)
        j_can_combined = Instance(schema=self.setting.combined_schema)
        j_can_combined.add_all(j_can)
        with tracer.span("sigma-ts-chase"):
            ts_result = chase(
                j_can_combined,
                self.setting.sigma_ts,
                null_factory=self._factory,
                budget=budget,
                tracer=tracer,
            )
        stats = {
            "st_chase_steps": st_result.step_count,
            "ts_chase_steps": ts_result.step_count,
            "retracted": 0,
            "refired": 0,
        }
        return st_result, j_can, ts_result, stats

    def _advance(
        self,
        source: Instance,
        target: Instance,
        budget: Budget | None,
        tracer: Tracer,
    ) -> tuple[ChaseResult, Instance, ChaseResult, dict]:
        """Warm path: push the round's delta through both chase stages.

        The input delta is computed against the cached bases, never by
        re-validating the combined instance; the ``Σ_ts`` stage's delta is
        the change in ``J_can`` itself, so derived facts that did not
        change never reach the second stage's matcher.
        """
        assert self._source is not None and self._target is not None
        assert self._st_result is not None and self._j_can is not None
        assert self._ts_result is not None
        added, withdrawn = source.diff(self._source)
        t_added, t_withdrawn = target.diff(self._target)
        added.extend(t_added)
        withdrawn.extend(t_withdrawn)
        # The cached results are dead after this round (the cache commits
        # the successors), so both chases may consume them in place.
        st_result = chase_incremental(
            self._st_result,
            added,
            withdrawn,
            self.setting.sigma_st,
            null_factory=self._factory,
            budget=budget,
            tracer=tracer,
            consume=True,
        )
        j_can = st_result.instance.restrict_to(self.setting.target_schema)
        j_added, j_withdrawn = j_can.diff(self._j_can)
        ts_result = chase_incremental(
            self._ts_result,
            j_added,
            j_withdrawn,
            self.setting.sigma_ts,
            null_factory=self._factory,
            budget=budget,
            tracer=tracer,
            consume=True,
        )
        stats = {
            "st_chase_steps": st_result.refired,
            "ts_chase_steps": ts_result.refired,
            "retracted": len(st_result.retracted) + len(ts_result.retracted),
            "refired": st_result.refired + ts_result.refired,
        }
        return st_result, j_can, ts_result, stats

    def _track_i_can_nulls(
        self, incremental: bool, i_can: Instance, ts_result: ChaseResult
    ) -> None:
        """Maintain the null occurrence counts of ``I_can``.

        Cold rounds scan the fresh ``I_can`` once; warm rounds fold in the
        ``Σ_ts`` chase's reported delta (facts added/retracted relative to
        the prior fixpoint), restricted to source relations, so keeping
        the counts current costs O(delta).
        """
        if not incremental:
            counts: dict[Null, int] = {}
            for fact in i_can:
                for value in fact.args:
                    if isinstance(value, Null):
                        counts[value] = counts.get(value, 0) + 1
            self._i_can_nulls = counts
            return
        counts = self._i_can_nulls
        names = set(self.setting.source_schema.names())
        for fact in ts_result.delta_added:
            if fact.relation in names:
                for value in fact.args:
                    if isinstance(value, Null):
                        counts[value] = counts.get(value, 0) + 1
        for fact in ts_result.retracted:
            if fact.relation in names:
                for value in fact.args:
                    if isinstance(value, Null):
                        remaining = counts.get(value, 0) - 1
                        if remaining <= 0:
                            counts.pop(value, None)
                        else:
                            counts[value] = remaining

    def _embeds(
        self,
        i_can: Instance,
        source: Instance,
        budget: Budget | None,
        stats: dict,
        span,
    ) -> tuple[bool, dict[Null, InstanceTerm]]:
        """Does ``I_can`` map homomorphically into ``I``? (Theorem 5 test.)

        Ground ``I_can`` needs no block machinery: the only homomorphism
        candidate is the identity, so the test is pure containment at
        set-operation speed.  Groundness comes from the maintained null
        occurrence counts, not a per-round instance scan.
        """
        if not self._i_can_nulls:
            if budget is not None:
                budget.charge_node()
            span.add("hom_tests")
            return source.contains_instance(i_can), {}

        from repro.core.homomorphism import find_instance_homomorphism

        blocks = decompose_into_blocks(i_can)
        stats["blocks"] = len(blocks)
        mapping: dict[Null, InstanceTerm] = {}
        for block in blocks:
            if budget is not None:
                budget.charge_node()
            span.add("hom_tests")
            found = find_instance_homomorphism(block.facts, source)
            if found is None:
                return False, {}
            mapping.update(found)
        return True, mapping
