"""Unit tests for instances."""

import pytest

from repro.core.atoms import Fact
from repro.core.instance import Instance
from repro.core.schema import Schema
from repro.core.terms import Constant, Null
from repro.exceptions import SchemaError


def fact(relation: str, *values) -> Fact:
    return Fact(
        relation,
        [v if isinstance(v, (Constant, Null)) else Constant(v) for v in values],
    )


class TestConstruction:
    def test_from_tuples(self):
        instance = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        assert len(instance) == 2
        assert fact("E", "a", "b") in instance

    def test_from_tuples_with_nulls(self):
        instance = Instance.from_tuples({"E": [("a", Null(0))]})
        assert instance.nulls() == {Null(0)}

    def test_duplicate_facts_collapse(self):
        instance = Instance.from_tuples({"E": [("a", "b"), ("a", "b")]})
        assert len(instance) == 1

    def test_copy_is_independent(self):
        original = Instance.from_tuples({"E": [("a", "b")]})
        clone = original.copy()
        clone.add(fact("E", "x", "y"))
        assert len(original) == 1
        assert len(clone) == 2

    def test_schema_validation_on_add(self):
        schema = Schema.from_arities({"E": 2})
        instance = Instance(schema=schema)
        with pytest.raises(SchemaError):
            instance.add(fact("E", "a"))
        with pytest.raises(SchemaError):
            instance.add(fact("F", "a", "b"))


class TestMutation:
    def test_add_returns_newness(self):
        instance = Instance()
        assert instance.add(fact("E", "a", "b")) is True
        assert instance.add(fact("E", "a", "b")) is False

    def test_discard(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        assert instance.discard(fact("E", "a", "b")) is True
        assert instance.discard(fact("E", "a", "b")) is False
        assert len(instance) == 0

    def test_add_all_counts_new(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        added = instance.add_all([fact("E", "a", "b"), fact("E", "b", "c")])
        assert added == 1

    def test_rename_merges_values(self):
        instance = Instance.from_tuples({"E": [(Null(0), "b"), (Null(1), "b")]})
        renamed = instance.rename({Null(0): Null(1)})
        assert len(renamed) == 1
        assert renamed.nulls() == {Null(1)}

    def test_rename_to_constant(self):
        instance = Instance.from_tuples({"E": [(Null(0), "b")]})
        renamed = instance.rename({Null(0): Constant("a")})
        assert fact("E", "a", "b") in renamed
        assert renamed.is_ground()


class TestQueries:
    def test_len_and_bool(self):
        assert not Instance()
        assert Instance.from_tuples({"E": [("a", "b")]})

    def test_relations_lists_only_nonempty(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        instance.discard(fact("E", "a", "b"))
        assert instance.relations() == []

    def test_tuples(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        assert instance.tuples("E") == frozenset({(Constant("a"), Constant("b"))})
        assert instance.tuples("missing") == frozenset()

    def test_count(self):
        instance = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        assert instance.count("E") == 2
        assert instance.count("F") == 0

    def test_contains_instance(self):
        big = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        small = Instance.from_tuples({"E": [("a", "b")]})
        assert big.contains_instance(small)
        assert not small.contains_instance(big)
        assert big.contains_instance(Instance())

    def test_union(self):
        first = Instance.from_tuples({"E": [("a", "b")]})
        second = Instance.from_tuples({"F": [("c",)]})
        union = first.union(second)
        assert len(union) == 2
        assert len(first) == 1

    def test_equality_ignores_empty_relations(self):
        first = Instance.from_tuples({"E": [("a", "b")]})
        second = Instance.from_tuples({"E": [("a", "b")], "F": []})
        assert first == second

    def test_hash_equal_for_equal_instances(self):
        first = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        second = Instance.from_tuples({"E": [("b", "c"), ("a", "b")]})
        assert hash(first) == hash(second)


class TestDomains:
    def test_active_domain(self):
        instance = Instance.from_tuples({"E": [("a", Null(0))]})
        assert instance.active_domain() == {Constant("a"), Null(0)}

    def test_constants_and_nulls(self):
        instance = Instance.from_tuples({"E": [("a", Null(0))]})
        assert instance.constants() == {Constant("a")}
        assert instance.nulls() == {Null(0)}

    def test_is_ground(self):
        assert Instance.from_tuples({"E": [("a", "b")]}).is_ground()
        assert not Instance.from_tuples({"E": [("a", Null(0))]}).is_ground()


class TestProjection:
    def test_restrict_to(self):
        schema = Schema.from_arities({"E": 2})
        instance = Instance.from_tuples({"E": [("a", "b")], "H": [("x", "y")]})
        projected = instance.restrict_to(schema)
        assert projected.relations() == ["E"]
        assert len(projected) == 1


class TestRendering:
    def test_str_empty(self):
        assert str(Instance()) == "{}"

    def test_pretty_groups_by_relation(self):
        instance = Instance.from_tuples({"E": [("a", "b")], "F": [("c",)]})
        rendered = instance.pretty()
        assert "E:" in rendered and "F:" in rendered


class TestSetOperations:
    def test_difference(self):
        big = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        small = Instance.from_tuples({"E": [("a", "b")]})
        assert big.difference(small) == Instance.from_tuples({"E": [("b", "c")]})

    def test_difference_disjoint(self):
        first = Instance.from_tuples({"E": [("a", "b")]})
        second = Instance.from_tuples({"F": [("c",)]})
        assert first.difference(second) == first

    def test_intersection(self):
        first = Instance.from_tuples({"E": [("a", "b"), ("b", "c")]})
        second = Instance.from_tuples({"E": [("b", "c"), ("c", "d")]})
        assert first.intersection(second) == Instance.from_tuples({"E": [("b", "c")]})

    def test_operators(self):
        first = Instance.from_tuples({"E": [("a", "b")]})
        second = Instance.from_tuples({"E": [("b", "c")]})
        assert (first | second).count("E") == 2
        assert (first - second) == first
        assert len(first & second) == 0

    def test_operations_preserve_operands(self):
        first = Instance.from_tuples({"E": [("a", "b")]})
        second = Instance.from_tuples({"E": [("b", "c")]})
        first | second
        first - second
        first & second
        assert len(first) == 1 and len(second) == 1


class TestChurnRegressions:
    """PR 10 bugfixes: long add/discard churn must not leak bookkeeping."""

    def test_discard_prunes_empty_row_sets(self):
        instance = Instance()
        for i in range(50):
            f = fact(f"R{i}", "a", "b")
            instance.add(f)
            instance.discard(f)
        assert instance._relations == {}
        assert len(instance) == 0

    def test_discard_prunes_empty_index_buckets(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        # Force the lazy positional index into existence.
        assert instance.candidate_rows("E", 0, Constant("a"))
        baseline = len(instance._index)
        for i in range(50):
            f = fact("E", f"x{i}", f"y{i}")
            instance.add(f)
            instance.discard(f)
        assert len(instance._index) == baseline
        assert instance.candidate_rows("E", 0, Constant("x0")) == frozenset()

    def test_rename_matches_validated_rebuild(self):
        schema = Schema.from_arities({"E": 2})
        instance = Instance(schema=schema)
        instance.add(fact("E", Null(0), "b"))
        instance.add(fact("E", "a", Null(1)))
        renamed = instance.rename({Null(0): Constant("c"), Null(1): Null(7)})
        validated = Instance(schema=schema)
        for f in instance:
            validated.add(f.substitute({Null(0): Constant("c"), Null(1): Null(7)}))
        assert renamed == validated
        assert renamed.schema is schema

    def test_rename_empty_mapping_returns_independent_copy(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        clone = instance.rename({})
        assert clone is not instance
        clone.add(fact("E", "c", "d"))
        assert len(instance) == 1

    def test_empty_rows_view_is_immutable(self):
        instance = Instance()
        empty = instance.rows("missing")
        with pytest.raises(AttributeError):
            empty.add(("a",))  # type: ignore[attr-defined]
        # The shared view cannot leak rows between instances.
        other = Instance()
        assert other.rows("missing") == frozenset()

    def test_empty_candidate_rows_view_is_immutable(self):
        instance = Instance.from_tuples({"E": [("a", "b")]})
        empty = instance.candidate_rows("E", 0, Constant("zz"))
        with pytest.raises(AttributeError):
            empty.add(("zz", "zz"))  # type: ignore[attr-defined]
        assert fact("E", "zz", "zz") not in instance


class TestUnionFastPath:
    """``union`` copies the larger operand when both share a schema."""

    SCHEMA = {"E": 2, "F": 1}

    def _operand(self, rng, schema, size):
        instance = Instance(schema=schema)
        for _ in range(size):
            value = rng.randrange(8)
            if rng.random() < 0.5:
                instance.add(fact("E", f"c{value}", Null(rng.randrange(4))))
            else:
                instance.add(fact("F", f"c{value}"))
        return instance

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("schemas", ["none", "only-other", "equal", "different"])
    def test_union_matches_fact_by_fact_union(self, seed, schemas):
        import random

        rng = random.Random(seed)
        first_schema, second_schema = {
            "none": (None, None),
            "only-other": (None, Schema.from_arities(self.SCHEMA)),
            "equal": (Schema.from_arities(self.SCHEMA), Schema.from_arities(self.SCHEMA)),
            "different": (
                Schema.from_arities(self.SCHEMA),
                Schema.from_arities({**self.SCHEMA, "G": 3}),
            ),
        }[schemas]
        first = self._operand(rng, first_schema, rng.randrange(12))
        second = self._operand(rng, second_schema, rng.randrange(12))
        for operand in (first, second):
            if rng.random() < 0.5:  # a built index must be carried over
                operand.candidate_rows("E", 0, Constant("c0"))

        union = first.union(second)
        expected = Instance(schema=first_schema)
        for f in list(first) + list(second):
            expected.add(f)
        assert union == expected
        assert union.schema is first_schema
        assert len(union) == len(expected)
        fresh = Instance(list(union))
        for f in union:
            for position, value in enumerate(f.args):
                assert union.candidate_rows(f.relation, position, value) == (
                    fresh.candidate_rows(f.relation, position, value)
                )
        union.add(fact("F", "new"))
        assert fact("F", "new") not in first and fact("F", "new") not in second

    def test_bad_arity_still_raises_when_schemas_differ(self):
        narrow = Instance(schema=Schema.from_arities({"E": 2}), facts=[fact("E", "a", "b")])
        wide = Instance(schema=Schema.from_arities({"E": 3}))
        wide.add(fact("E", "a", "b", "c"))
        with pytest.raises(SchemaError):
            narrow.union(wide)
        with pytest.raises(SchemaError):
            narrow.union(Instance([fact("E", "x")]))
