"""Database instances with labeled nulls.

An :class:`Instance` stores a finite set of facts grouped by relation.  It
is the workhorse data structure of the library: chase procedures extend
instances, homomorphism search matches into them, and solvers compare them.

Instances are mutable (the chase adds facts in place for efficiency) but
expose ``frozen()`` / ``copy()`` for safe sharing, and equality compares
fact sets, not identity.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from repro.core.atoms import Fact
from repro.core.schema import Schema
from repro.core.terms import Constant, InstanceTerm, Null, is_null

__all__ = ["Instance"]

#: Shared empty row set returned by :meth:`Instance.rows` for absent
#: relations.  A ``frozenset`` so that a caller that (wrongly) tries to
#: mutate an empty result raises instead of silently poisoning every
#: other instance that shares this sentinel.
_EMPTY_ROWS: frozenset = frozenset()


class Instance:
    """A finite relational instance: a set of facts grouped by relation.

    Args:
        facts: initial facts.
        schema: optional schema; when provided, every added fact is
            validated against it (arity and relation-name checks).
    """

    def __init__(self, facts: Iterable[Fact] = (), schema: Schema | None = None):
        self.schema = schema
        self._relations: dict[str, set[tuple[InstanceTerm, ...]]] = {}
        self._size = 0
        # Lazy positional index: (relation, position, value) -> row set.
        # Built on first candidate_rows() call, maintained incrementally by
        # add/discard afterwards.
        self._index: dict[tuple[str, int, InstanceTerm], set[tuple[InstanceTerm, ...]]] | None = None
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        tuples: Mapping[str, Iterable[Sequence[object]]],
        schema: Schema | None = None,
    ) -> "Instance":
        """Build an instance from raw Python values.

        Every raw value is wrapped in a :class:`Constant` unless it already
        is a :class:`Constant` or :class:`Null`::

            Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        """
        instance = cls(schema=schema)
        for relation, rows in tuples.items():
            for row in rows:
                args = tuple(
                    value if isinstance(value, (Constant, Null)) else Constant(value)
                    for value in row
                )
                instance.add(Fact(relation, args))
        return instance

    def copy(self) -> "Instance":
        """Return an independent copy sharing no mutable state.

        A built positional index is copied bucket-by-bucket (set copies at
        C speed) rather than discarded: the incremental chase copies the
        prior fixpoint every round, and rebuilding the index through the
        Python fact loop would cost more than the whole delta pass.
        """
        clone = Instance(schema=self.schema)
        clone._relations = {name: set(rows) for name, rows in self._relations.items()}
        clone._size = self._size
        if self._index is not None:
            clone._index = {
                key: set(bucket) for key, bucket in self._index.items()
            }
        return clone

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, fact: Fact) -> bool:
        """Add a fact; return True if it was not already present."""
        if self.schema is not None:
            self.schema.validate_fact(fact)
        return self._add_unchecked(fact)

    def _add_unchecked(self, fact: Fact) -> bool:
        """Add a fact known to satisfy the schema, skipping validation.

        Internal fast path for rebuilds of already-validated facts
        (``rename``, ``restrict_to``): renaming values or projecting
        relations cannot change a fact's relation name or arity, so
        re-validating every row on such rebuilds is pure overhead —
        egd merges in the chase pay it once per merge otherwise.
        """
        rows = self._relations.setdefault(fact.relation, set())
        if fact.args in rows:
            return False
        rows.add(fact.args)
        self._size += 1
        if self._index is not None:
            for position, value in enumerate(fact.args):
                self._index.setdefault(
                    (fact.relation, position, value), set()
                ).add(fact.args)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    def discard(self, fact: Fact) -> bool:
        """Remove a fact if present; return True if it was removed.

        Emptied row sets and index buckets are pruned so that long
        add/discard churn (sync sessions retracting imported facts round
        after round) cannot grow ``_relations`` / ``_index`` unboundedly.
        """
        rows = self._relations.get(fact.relation)
        if rows is None or fact.args not in rows:
            return False
        rows.remove(fact.args)
        if not rows:
            del self._relations[fact.relation]
        self._size -= 1
        if self._index is not None:
            for position, value in enumerate(fact.args):
                key = (fact.relation, position, value)
                bucket = self._index.get(key)
                if bucket is not None:
                    bucket.discard(fact.args)
                    if not bucket:
                        del self._index[key]
        return True

    def rename(self, mapping: Mapping[InstanceTerm, InstanceTerm]) -> "Instance":
        """Return a new instance with every value replaced by its image.

        Values absent from the mapping are left unchanged.  This is how egd
        chase steps identify a null with another value, and how valuations
        of nulls are applied by the solvers.

        Every fact of self already passed schema validation when it was
        added, and renaming values preserves relation names and arities,
        so the rebuild skips per-fact re-validation (egd merges in the
        chase would otherwise pay O(n) validation per merge).
        """
        if not mapping:
            return self.copy()
        renamed = Instance(schema=self.schema)
        for fact in self:
            renamed._add_unchecked(fact.substitute(mapping))
        return renamed

    # ------------------------------------------------------------------
    # queries about content
    # ------------------------------------------------------------------

    def __contains__(self, fact: Fact) -> bool:
        rows = self._relations.get(fact.relation)
        return rows is not None and fact.args in rows

    def __iter__(self) -> Iterator[Fact]:
        for relation, rows in self._relations.items():
            for row in rows:
                yield Fact(relation, row)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        mine = {name: rows for name, rows in self._relations.items() if rows}
        theirs = {name: rows for name, rows in other._relations.items() if rows}
        return mine == theirs

    def __hash__(self) -> int:
        parts = []
        for name in sorted(self._relations):
            rows = self._relations[name]
            if rows:
                parts.append((name, frozenset(rows)))
        return hash(tuple(parts))

    def relations(self) -> list[str]:
        """Return the names of relations holding at least one fact."""
        return [name for name, rows in self._relations.items() if rows]

    def tuples(self, relation: str) -> frozenset[tuple[InstanceTerm, ...]]:
        """Return the rows of ``relation`` (empty if the relation is absent)."""
        return frozenset(self._relations.get(relation, ()))

    def candidate_rows(
        self, relation: str, position: int, value: InstanceTerm
    ) -> AbstractSet[tuple[InstanceTerm, ...]]:
        """Rows of ``relation`` holding ``value`` at ``position`` (no copy).

        Backed by a lazily built positional index that ``add``/``discard``
        maintain incrementally; the homomorphism matcher uses it to avoid
        scanning whole relations when an atom has bound positions.  Callers
        must treat the result as read-only and must not mutate the instance
        while iterating it.
        """
        if self._index is None:
            index: dict[tuple[str, int, InstanceTerm], set[tuple[InstanceTerm, ...]]] = {}
            for name, rows in self._relations.items():
                for row in rows:
                    for pos, val in enumerate(row):
                        index.setdefault((name, pos, val), set()).add(row)
            self._index = index
        return self._index.get((relation, position, value), _EMPTY_ROWS)

    def rows(self, relation: str) -> AbstractSet[tuple[InstanceTerm, ...]]:
        """Return the *live* row set of ``relation`` (no copy).

        Hot-path accessor for the homomorphism matcher; callers must treat
        the result as read-only and must not mutate the instance while
        iterating it.  For an absent relation the shared immutable empty
        set is returned, so an accidental mutation attempt raises rather
        than corrupting unrelated instances.
        """
        return self._relations.get(relation, _EMPTY_ROWS)

    def diff(self, other: "Instance") -> tuple[list[Fact], list[Fact]]:
        """Return ``(added, removed)`` fact deltas of self relative to ``other``.

        ``added`` holds the facts of self absent from ``other``; ``removed``
        the facts of ``other`` absent from self.  Computed with per-relation
        set differences, so diffing two mostly-overlapping snapshots (the
        incremental-chase hot path) costs set arithmetic, not hashing every
        fact through Python-level loops.
        """
        added: list[Fact] = []
        removed: list[Fact] = []
        for relation, rows in self._relations.items():
            theirs = other._relations.get(relation)
            if theirs is None:
                added.extend(Fact(relation, row) for row in rows)
            elif rows is not theirs:
                added.extend(Fact(relation, row) for row in rows - theirs)
        for relation, theirs in other._relations.items():
            mine = self._relations.get(relation)
            if mine is None:
                removed.extend(Fact(relation, row) for row in theirs)
            elif mine is not theirs:
                removed.extend(Fact(relation, row) for row in theirs - mine)
        return added, removed

    def facts(self, relation: str | None = None) -> list[Fact]:
        """Return facts of one relation, or all facts when ``relation`` is None."""
        if relation is None:
            return list(self)
        return [Fact(relation, row) for row in self._relations.get(relation, ())]

    def count(self, relation: str) -> int:
        """Return the number of facts in ``relation``."""
        return len(self._relations.get(relation, ()))

    def contains_instance(self, other: "Instance") -> bool:
        """Return True if every fact of ``other`` is a fact of self (``other ⊆ self``)."""
        for relation, rows in other._relations.items():
            mine = self._relations.get(relation, set())
            if not rows <= mine:
                return False
        return True

    def union(self, other: "Instance") -> "Instance":
        """Return a new instance containing the facts of both operands.

        The result keeps ``self.schema``.  When that is None or equals
        ``other.schema``, every fact already passed it, so the larger
        operand is copied bucket by bucket (see :meth:`copy`) and the
        smaller one added without re-validation; sync sessions take
        ``pinned ∪ imported`` several times a round.  Otherwise ``other``'s
        facts are validated against ``self.schema`` one by one.
        """
        if self.schema is not None and self.schema != other.schema:
            merged = self.copy()
            merged.add_all(other)
            return merged
        larger, smaller = (self, other) if len(self) >= len(other) else (other, self)
        merged = larger.copy()
        merged.schema = self.schema
        for fact in smaller:
            merged._add_unchecked(fact)
        return merged

    def difference(self, other: "Instance") -> "Instance":
        """Return the facts of self that are not facts of ``other``."""
        result = Instance(schema=self.schema)
        for fact in self:
            if fact not in other:
                result.add(fact)
        return result

    def intersection(self, other: "Instance") -> "Instance":
        """Return the facts common to both operands."""
        result = Instance(schema=self.schema)
        for fact in self:
            if fact in other:
                result.add(fact)
        return result

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def __sub__(self, other: "Instance") -> "Instance":
        return self.difference(other)

    def __and__(self, other: "Instance") -> "Instance":
        return self.intersection(other)

    # ------------------------------------------------------------------
    # domains and nulls
    # ------------------------------------------------------------------

    def active_domain(self) -> set[InstanceTerm]:
        """Return every value (constant or null) occurring in some fact."""
        domain: set[InstanceTerm] = set()
        for rows in self._relations.values():
            for row in rows:
                domain.update(row)
        return domain

    def constants(self) -> set[Constant]:
        """Return every constant occurring in some fact."""
        return {value for value in self.active_domain() if isinstance(value, Constant)}

    def nulls(self) -> set[Null]:
        """Return every labeled null occurring in some fact."""
        return {value for value in self.active_domain() if is_null(value)}

    def is_ground(self) -> bool:
        """Return True if the instance contains no nulls."""
        return not self.nulls()

    # ------------------------------------------------------------------
    # schema projection
    # ------------------------------------------------------------------

    def restrict_to(self, schema: Schema) -> "Instance":
        """Return the sub-instance over the relations of ``schema``.

        Used to split an instance over the combined schema ``(S, T)`` back
        into its source and target parts.
        """
        projected = Instance(schema=schema)
        for name in schema.names():
            rows = self._relations.get(name)
            if rows:
                # Rows were validated when added to self, and projection
                # keeps relation names and arities intact: copy them in
                # bulk without per-fact re-validation.
                projected._relations[name] = set(rows)
                projected._size += len(rows)
        return projected

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._size:
            return "{}"
        rendered = sorted(str(fact) for fact in self)
        return "{" + ", ".join(rendered) + "}"

    def __repr__(self) -> str:
        return f"Instance(<{self._size} facts over {sorted(self.relations())}>)"

    def pretty(self) -> str:
        """Return a multi-line, relation-grouped rendering for debugging."""
        lines = []
        for name in sorted(self._relations):
            rows = self._relations[name]
            if not rows:
                continue
            rendered = sorted(
                "(" + ", ".join(str(value) for value in row) + ")" for row in rows
            )
            lines.append(f"{name}: " + ", ".join(rendered))
        return "\n".join(lines) if lines else "(empty instance)"
