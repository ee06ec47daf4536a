"""Structure/signature validation and formula semantics."""

import pytest

from pfdim.logic import (And, App, Const, Eq, Exists, FiniteStructure, Forall,
                         Implies, Not, Or, Rel, SchemaError, SortError,
                         StructureError, Var, free_variables, make_signature,
                         rename_free, sort_check, structure_from_json_dict)
from pfdim.counting import evaluate
from pfdim.families import (family_summary, generate, get_family,
                            list_families)


SIG = make_signature(
    ["S"],
    relations=[("E", ("S", "S")), ("P", ("S",))],
    functions=[("f", ("S",), "S")],
    constants=[("c", "S")],
)


def path_structure(n):
    # directed path 0 -> 1 -> ... -> n-1, P marks even nodes, f = successor
    return FiniteStructure(
        signature=SIG,
        sizes={"S": n},
        relations={
            "E": frozenset((i, i + 1) for i in range(n - 1)),
            "P": frozenset((i,) for i in range(0, n, 2)),
        },
        functions={"f": {(i,): min(i + 1, n - 1) for i in range(n)}},
        constants={"c": 0},
    )


class TestSortCheck:
    def test_annotates_free_variables(self):
        phi = sort_check(Rel("E", (Var("x"), Var("y"))), SIG)
        assert dict(free_variables(phi)) == {"x": "S", "y": "S"}

    def test_equality_defaults_to_single_sort(self):
        phi = sort_check(Eq(Var("x"), Var("x")), SIG)
        assert dict(free_variables(phi)) == {"x": "S"}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SortError):
            sort_check(Rel("E", (Var("x"),)), SIG)

    def test_unknown_relation_rejected(self):
        with pytest.raises(SortError):
            sort_check(Rel("Q", (Var("x"),)), SIG)

    def test_two_sorted_equality_mismatch(self):
        sig2 = make_signature(["A", "B"], relations=[("R", ("A", "B"))])
        phi = And(Rel("R", (Var("x"), Var("y"))), Eq(Var("x"), Var("y")))
        with pytest.raises(SortError):
            sort_check(phi, sig2)

    def test_annotation_after_an_unsorted_first_look(self):
        # the left side's first look marks x seen, sort unknown, so the
        # annotation on the right does not decide the equality's sort
        sig2 = make_signature(["A", "B"])
        assert sort_check(Eq(Var("y"), Var("x", "A")), sig2) == Eq(
            Var("y", "A"), Var("x", "A"))
        with pytest.raises(SortError, match="cannot infer sort of equality"):
            sort_check(Eq(Var("x"), Var("x", "A")), sig2)


class TestEvaluate:
    M = path_structure(5)

    def ev(self, phi, **env):
        return evaluate(sort_check(phi, SIG), self.M, env)

    def test_atoms(self):
        assert self.ev(Rel("E", (Var("x"), Var("y"))), x=0, y=1)
        assert not self.ev(Rel("E", (Var("x"), Var("y"))), x=1, y=0)
        assert self.ev(Rel("P", (Var("x"),)), x=2)

    def test_function_and_constant_terms(self):
        assert self.ev(Eq(App("f", (Const("c"),)), Var("x")), x=1)

    def test_connectives(self):
        p, q = Rel("P", (Var("x"),)), Eq(Var("x"), Const("c"))
        for x in range(5):
            a, b = self.ev(p, x=x), self.ev(q, x=x)
            assert self.ev(And(p, q), x=x) == (a and b)
            assert self.ev(Or(p, q), x=x) == (a or b)
            assert self.ev(Not(p), x=x) == (not a)
            assert self.ev(Implies(p, q), x=x) == ((not a) or b)

    def test_quantifiers(self):
        succ = Rel("E", (Var("x"), Var("z")))
        assert self.ev(Exists("z", "S", succ), x=0)
        assert not self.ev(Exists("z", "S", succ), x=4)
        assert self.ev(Forall("z", "S", Implies(Rel("E", (Var("z"), Var("x"))),
                                                Rel("P", (Var("z"),)))), x=1)

    def test_shadowing(self):
        # the bound x shadows the free x
        phi = Exists("x", "S", Rel("P", (Var("x"),)))
        assert self.ev(phi, x=1)


def two_element(E=frozenset(), P=frozenset()):
    return FiniteStructure(signature=SIG, sizes={"S": 2},
                           relations={"E": E, "P": P},
                           functions={"f": {(0,): 0, (1,): 1}},
                           constants={"c": 0})


class TestStructureValidation:
    @pytest.mark.parametrize("E,P,message", [
        ({(0, 1), (1,)}, set(), "relation E: tuple arity mismatch"),
        (set(), {(0, 1)}, "relation P: tuple arity mismatch"),
        ({(0, 1), (1, -1)}, set(), "relation E: id -1 out of bounds"),
        (set(), {(-3,), (1,)}, "relation P: id -3 out of bounds"),
        ({(0, 0), (2, 1)}, set(), "relation E: id 2 out of bounds"),
        (set(), {(0,), (2,)}, "relation P: id 2 out of bounds"),
    ])
    def test_bad_table_names_the_relation(self, E, P, message):
        with pytest.raises(StructureError, match=message):
            two_element(frozenset(E), frozenset(P))

    def test_empty_tables_accepted(self):
        M = two_element()
        assert M.relations == {"E": frozenset(), "P": frozenset()}

    @pytest.mark.parametrize("family_id", sorted(
        set(list_families()) - {"convsupersimple"}))
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_generated_equivalence_is_the_class_blocks(self, family_id,
                                                       index):
        summary = family_summary(get_family(family_id), index)
        want = set()
        start = 0
        for size in summary.class_sizes:
            for a in range(start, start + size):
                for b in range(start, start + size):
                    want.add((a, b))
            start += size
        assert generate(family_id, index).relations["E"] == want

    def test_relation_tuple_out_of_range(self):
        with pytest.raises(StructureError):
            FiniteStructure(signature=SIG, sizes={"S": 2},
                            relations={"E": frozenset({(0, 5)}),
                                       "P": frozenset()},
                            functions={"f": {(0,): 0, (1,): 1}},
                            constants={"c": 0})

    def test_partial_function_table_rejected(self):
        with pytest.raises(StructureError):
            FiniteStructure(signature=SIG, sizes={"S": 2},
                            relations={"E": frozenset(), "P": frozenset()},
                            functions={"f": {(0,): 0}},
                            constants={"c": 0})

    def test_json_roundtrip(self):
        data = {
            "sorts": [{"name": "S", "size": 3}],
            "relations": [{"name": "E", "sorts": ["S", "S"],
                           "tuples": [[0, 1], [1, 2]]}],
            "functions": [{"name": "f", "argSorts": ["S"], "resultSort": "S",
                           "table": [[0, 1], [1, 2], [2, 2]]}],
            "constants": [{"name": "c", "sort": "S", "value": 0}],
        }
        M = structure_from_json_dict(data)
        assert M.sizes == {"S": 3}
        assert M.relations["E"] == frozenset({(0, 1), (1, 2)})
        assert M.functions["f"][(1,)] == 2
        assert M.constants["c"] == 0

    def test_json_shape_errors(self):
        with pytest.raises(SchemaError):
            structure_from_json_dict([])
        with pytest.raises(SchemaError):
            structure_from_json_dict({"relations": []})


class TestRenameFree:
    def test_function_term(self):
        phi = Eq(App("f", (Var("y", "S"),)), Var("x", "S"))
        assert rename_free(phi, "y", "z") == Eq(
            App("f", (Var("z", "S"),)), Var("x", "S"))

    def test_binder_stops_the_rename(self):
        bound = Exists("y", "S", Rel("E", (Var("x"), Var("y"))))
        phi = And(bound, Not(Rel("P", (App("f", (Var("y"),)),))))
        assert rename_free(phi, "y", "y1") == And(
            bound, Not(Rel("P", (App("f", (Var("y1"),)),))))

    @staticmethod
    def rebuilt(f, old, new):
        """The rename as a rebuild of every node."""
        def term(t):
            if isinstance(t, Var):
                return Var(new, t.sort) if t.name == old else t
            if isinstance(t, App):
                return App(t.func, tuple(term(a) for a in t.args))
            return t

        def walk(f):
            if isinstance(f, Rel):
                return Rel(f.name, tuple(term(a) for a in f.args))
            if isinstance(f, Eq):
                return Eq(term(f.left), term(f.right))
            if isinstance(f, Not):
                return Not(walk(f.body))
            if isinstance(f, (And, Or, Implies)):
                return type(f)(walk(f.left), walk(f.right))
            if f.var == old:
                return f
            return type(f)(f.var, f.sort, walk(f.body))

        return walk(f)

    FORMULAS = [
        Rel("E", (Var("x", "S"), Var("y", "S"))),
        Eq(App("f", (Var("y"), Const("c"))), Var("x")),
        Not(Rel("P", (App("f", (App("g", (Var("y"),)),)),))),
        Implies(Rel("P", (Var("x"),)), Or(Eq(Var("y"), Var("x")),
                                            Rel("P", (Const("c"),)))),
        Forall("z", "S", And(Rel("E", (Var("z"), Var("y"))),
                             Exists("y", "S", Rel("E", (Var("y"), Var("z")))))),
        And(Exists("x", "S", Eq(Var("x"), Var("x"))), Rel("P", (Var("x"),))),
    ]

    @pytest.mark.parametrize("phi", FORMULAS)
    def test_equals_the_full_rebuild(self, phi):
        for old in ("y", "x", "z"):
            assert rename_free(phi, old, "w") == self.rebuilt(phi, old, "w")

    def test_a_subtree_without_y_is_the_same_object(self):
        untouched = Exists("z", "S", Rel("E", (Var("x"), App("f", (Var("z"),)))))
        bound = Forall("y", "S", Eq(Var("y"), Var("x")))
        phi = And(untouched, Or(bound, Not(Rel("P", (Var("y"),)))))
        out = rename_free(phi, "y", "y#0")
        assert out == And(untouched, Or(bound, Not(Rel("P", (Var("y#0"),)))))
        assert out.left is untouched and out.right.left is bound
        assert rename_free(untouched, "y", "y#0") is untouched
        assert rename_free(phi, "v", "w") is phi
