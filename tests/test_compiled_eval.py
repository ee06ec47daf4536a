"""Differential tests: the compiled evaluator behind ``evaluate`` and
``count`` against a slow dict-based tree walk kept here as the reference.

The reference is the evaluator the package used before formulas were
compiled: one ``isinstance`` dispatch per node over a dict environment,
saving and restoring a bound variable around each quantifier.  It lives
only in the tests.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pfdim import families
from pfdim.counting import AssignmentError, count, evaluate
from pfdim.families import make_homocyclic, make_vector_space
from pfdim.logic import (And, App, Const, Eq, Exists, FiniteStructure, Forall,
                         Implies, Not, Or, Rel, Var, free_variables,
                         make_signature, sort_check)


# ---------------------------------------------------------------------------
# The reference evaluator


def ref_term(t, M, env):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise AssignmentError(f"no value for variable {t.name}") from None
    if isinstance(t, Const):
        return M.constants[t.name]
    if isinstance(t, App):
        args = tuple(ref_term(a, M, env) for a in t.args)
        return M.functions[t.func][args]
    raise TypeError(f"not a term: {t!r}")


def ref_eval(phi, M, env):
    if isinstance(phi, Rel):
        return M.holds(phi.name, tuple(ref_term(a, M, env) for a in phi.args))
    if isinstance(phi, Eq):
        return ref_term(phi.left, M, env) == ref_term(phi.right, M, env)
    if isinstance(phi, Not):
        return not ref_eval(phi.body, M, env)
    if isinstance(phi, And):
        return ref_eval(phi.left, M, env) and ref_eval(phi.right, M, env)
    if isinstance(phi, Or):
        return ref_eval(phi.left, M, env) or ref_eval(phi.right, M, env)
    if isinstance(phi, Implies):
        return (not ref_eval(phi.left, M, env)) or ref_eval(phi.right, M, env)
    if isinstance(phi, (Exists, Forall)):
        size = M.sizes[phi.sort]
        saved = env.get(phi.var)
        want = isinstance(phi, Exists)
        result = not want
        for v in range(size):
            env[phi.var] = v
            if ref_eval(phi.body, M, env) == want:
                result = want
                break
        if saved is None:
            env.pop(phi.var, None)
        else:
            env[phi.var] = saved
        return result
    raise TypeError(f"not a formula node: {phi!r}")


def outcome(fn, *args):
    """The truth value, or the AssignmentError message."""
    try:
        return bool(fn(*args))
    except AssignmentError as exc:
        return str(exc)


def ref_count(phi, M, fixed, counted, sort):
    total = 0
    for values in itertools.product(range(M.sizes[sort]), repeat=len(counted)):
        total += ref_eval(phi, M, {**fixed, **dict(zip(counted, values))})
    return total


# ---------------------------------------------------------------------------
# Formulas: a quantifier's variable is drawn from the same names as the free
# variables, so binders shadow free variables and each other.

NAMES = "xyz"


@st.composite
def formulas(draw, atom, sort, depth=3, quantifiers=2):
    kinds = ["atom"]
    if depth:
        kinds += ["not", "and", "or", "implies"]
        if quantifiers:
            kinds += ["exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(atom)
    if kind == "not":
        return Not(draw(formulas(atom, sort, depth - 1, quantifiers)))
    if kind in ("exists", "forall"):
        body = draw(formulas(atom, sort, depth - 1, quantifiers - 1))
        quant = Exists if kind == "exists" else Forall
        return quant(draw(st.sampled_from(NAMES)), sort, body)
    node = {"and": And, "or": Or, "implies": Implies}[kind]
    return node(draw(formulas(atom, sort, depth - 1, quantifiers)),
                draw(formulas(atom, sort, depth - 1, quantifiers)))


def terms(sort, constants, unary, binary):
    leaves = st.builds(Var, st.sampled_from(NAMES), st.just(sort))
    if constants:
        leaves = leaves | st.sampled_from([Const(c) for c in constants])

    def grow(sub):
        out = st.builds(lambda f, a: App(f, (a,)), st.sampled_from(unary), sub)
        if binary:
            out = out | st.builds(lambda f, a, b: App(f, (a, b)),
                                  st.sampled_from(binary), sub, sub)
        return out

    return st.recursive(leaves, grow, max_leaves=3)


def assignments(size, names=NAMES):
    """Partial assignments: each name is present or missing."""
    return st.fixed_dictionaries(
        {}, optional={n: st.integers(0, size - 1) for n in names})


# Structure 1: one sort, a binary and a unary relation, a function and a
# constant, all drawn at random.

SIG = make_signature(["S"], relations=[("E", ("S", "S")), ("P", ("S",))],
                     functions=[("f", ("S",), "S")], constants=[("c", "S")])


@st.composite
def small_structures(draw):
    n = draw(st.integers(1, 4))
    pairs = list(itertools.product(range(n), repeat=2))
    E = draw(st.sets(st.sampled_from(pairs)))
    P = draw(st.sets(st.integers(0, n - 1)))
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FiniteStructure(
        signature=SIG, sizes={"S": n},
        relations={"E": frozenset(E), "P": frozenset((a,) for a in P)},
        functions={"f": {(a,): b for a, b in enumerate(f)}},
        constants={"c": draw(st.integers(0, n - 1))})


S_TERMS = terms("S", ["c"], ["f"], [])
S_ATOMS = st.one_of(
    st.builds(lambda a, b: Rel("E", (a, b)), S_TERMS, S_TERMS),
    st.builds(lambda a: Rel("P", (a,)), S_TERMS),
    st.builds(Eq, S_TERMS, S_TERMS))
S_FORMULAS = formulas(S_ATOMS, "S")

# Structure 2: the group Z/4 with add, neg and zero (function terms and
# constants, no relations).

GROUP = make_homocyclic(2, 2, 1)
G_TERMS = terms("G", ["zero"], ["neg"], ["add"])
G_FORMULAS = formulas(st.builds(Eq, G_TERMS, G_TERMS), "G")

# Structure 3: the 4-dimensional space over GF(2), with theta3 and theta4
# left as virtual relations (rank predicates) and theta1, theta2 tabulated.

with mock.patch.object(families, "THETA_TABLE_LIMIT", 1000):
    SPACE = make_vector_space(2, 4)
V_TERMS = terms("V", ["zeroV"], ["vneg"], ["vadd"])
V_ATOMS = st.one_of(
    [st.builds(lambda *a, n=n: Rel(f"theta{n}", a), *[V_TERMS] * n)
     for n in range(1, 5)] + [st.builds(Eq, V_TERMS, V_TERMS)])
V_FORMULAS = formulas(V_ATOMS, "V", quantifiers=1)

CASES = {"random": (small_structures(), S_FORMULAS, "S"),
         "group": (st.just(GROUP), G_FORMULAS, "G"),
         "space": (st.just(SPACE), V_FORMULAS, "V")}

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_space_has_virtual_theta():
    assert set(SPACE.virtual_relations) == {"theta3", "theta4"}
    assert set(SPACE.relations) == {"theta1", "theta2"}


@pytest.mark.parametrize("case", sorted(CASES))
@SETTINGS
@given(data=st.data())
def test_evaluate_matches_reference(case, data):
    structures, phis, sort = CASES[case]
    M = data.draw(structures)
    phi = sort_check(data.draw(phis), M.signature)
    env = data.draw(assignments(M.sizes[sort]))
    # a partial assignment may leave a free variable unassigned: both sides
    # must then agree on the value or on the error, branch by branch
    assert outcome(evaluate, phi, M, env) == outcome(ref_eval, phi, M, dict(env))


@pytest.mark.parametrize("case", sorted(CASES))
@SETTINGS
@given(data=st.data())
def test_count_matches_reference(case, data):
    structures, phis, sort = CASES[case]
    M = data.draw(structures)
    phi = sort_check(data.draw(phis), M.signature)
    free = [n for n, _ in free_variables(phi)]
    # on the space (16 vectors, virtual theta) count one variable at a time
    n_counted = data.draw(st.integers(0, len(free) if case != "space"
                                      else min(1, len(free))))
    counted = free[:n_counted]
    fixed = {v: data.draw(st.integers(0, M.sizes[sort] - 1))
             for v in free[n_counted:]}
    assert (count(phi, M, fixed, counted).value
            == ref_count(phi, M, fixed, counted, sort))


# ---------------------------------------------------------------------------
# Hand-picked cases


M4 = FiniteStructure(
    signature=SIG, sizes={"S": 4},
    relations={"E": frozenset({(0, 1), (1, 2), (2, 3)}),
               "P": frozenset({(0,), (2,)})},
    functions={"f": {(a,): (a + 1) % 4 for a in range(4)}},
    constants={"c": 0})


def checked(phi):
    return sort_check(phi, SIG)


def P(t):
    return Rel("P", (t,))


def E(a, b):
    return Rel("E", (a, b))


x, y, z = Var("x"), Var("y"), Var("z")


class TestPartialAssignments:
    def test_missing_variable_in_short_circuited_branch(self):
        # P(0) holds, so the right disjunct with the unassigned y is skipped
        for phi in (Or(P(x), P(y)), Implies(Not(P(x)), P(y)),
                    Not(And(Not(P(x)), P(y)))):
            phi = checked(phi)
            assert evaluate(phi, M4, {"x": 0}) == ref_eval(phi, M4, {"x": 0})

    def test_missing_variable_raises_when_reached(self):
        # P(1) fails, P(2) holds: each formula has to look at y
        for phi, a in ((Or(P(x), P(y)), 1), (And(P(x), E(x, y)), 2),
                       (Eq(x, y), 1)):
            phi = checked(phi)
            for evaluator in (evaluate, ref_eval):
                with pytest.raises(AssignmentError,
                                   match="no value for variable y"):
                    evaluator(phi, M4, {"x": a})

    def test_missing_variable_inside_quantifier(self):
        # exists z: E(x, z) & P(y): only reached when some z has E(x, z)
        phi = checked(Exists("z", "S", And(E(x, z), P(y))))
        assert not evaluate(phi, M4, {"x": 3})
        with pytest.raises(AssignmentError):
            evaluate(phi, M4, {"x": 0})

    def test_bound_variable_needs_no_value(self):
        phi = checked(Forall("y", "S", Implies(E(x, y), Not(P(y)))))
        assert evaluate(phi, M4, {"x": 0})
        assert not evaluate(phi, M4, {"x": 1})


class TestShadowing:
    def test_binder_reusing_a_free_name_gets_its_own_slot(self):
        # x is free in P(x) and bound in exists x: E(x, y); the free x keeps
        # its value after the quantifier has run through every element
        phi = checked(And(Exists("x", "S", E(x, y)), P(x)))
        for a, b in itertools.product(range(4), repeat=2):
            env = {"x": a, "y": b}
            assert evaluate(phi, M4, env) == ref_eval(phi, M4, dict(env))
        assert count(phi, M4, {}, ["x", "y"]).value == ref_count(
            phi, M4, {}, ["x", "y"], "S")

    def test_nested_binders_of_one_name(self):
        phi = checked(Exists("x", "S", And(P(x), Forall("x", "S", Not(E(x, x))))))
        assert evaluate(phi, M4, {}) == ref_eval(phi, M4, {})

    def test_function_terms_and_constants(self):
        phi = checked(Forall("z", "S", Eq(App("f", (App("f", (z,)),)),
                                          App("f", (App("f", (Const("c"),)),)))))
        assert not evaluate(phi, M4, {})
        phi = checked(E(Const("c"), App("f", (x,))))
        assert count(phi, M4, {}, ["x"]).value == 1
