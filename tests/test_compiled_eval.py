"""Differential tests: the compiled evaluator behind ``evaluate`` and
``count`` against a slow dict-based tree walk kept here as the reference.

The reference is the evaluator the package used before formulas were
compiled: one ``isinstance`` dispatch per node over a dict environment,
saving and restoring a bound variable around each quantifier.  It lives
only in the tests.
"""

import functools
import gc
import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pfdim import families
from pfdim.counting import AssignmentError, compile_formula, count, evaluate
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

    def test_quantifier_stops_at_its_first_witness(self):
        # z = 0 decides each quantifier, so P(y) is never reached
        for phi in (Exists("z", "S", Or(Eq(z, Const("c")), P(y))),
                    Forall("z", "S", And(Not(Eq(z, Const("c"))), P(y)))):
            phi = checked(phi)
            assert evaluate(phi, M4, {}) == ref_eval(phi, M4, {})

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


# ---------------------------------------------------------------------------
# The mask paths: ``compile_formula`` returns the set of values of the last
# counted variable as a bitmask.  Structures with more than 64 elements make
# the masks longer than a machine word; in the two-sorted case the counted
# variable's sort and a binder's sort differ, so a mask built on the wrong
# width shows.

TWO = make_signature(["A", "B"],
                     relations=[("R", ("A", "B")), ("Q", ("B",)),
                                ("F", ("B", "B")), ("T", ("B", "B", "A"))],
                     functions=[("g", ("B",), "B"), ("h", ("B",), "A")])


def random_two_sorted(seed, n):
    rng = random.Random(seed)
    return FiniteStructure(
        signature=TWO, sizes={"A": 3, "B": n},
        relations={
            "R": frozenset((a, b) for a in range(3) for b in range(n)
                           if rng.random() < 0.4),
            "Q": frozenset((b,) for b in range(n) if rng.random() < 0.5),
            "F": frozenset((b, c) for b in range(n) for c in range(n)
                           if rng.random() < 0.05),
            "T": frozenset((b, c, a) for b in range(n) for c in range(n)
                           for a in range(3)
                           if rng.random() < (0.5 if b == c else 0.02))},
        functions={"g": {(b,): rng.randrange(n) for b in range(n)},
                   "h": {(b,): rng.randrange(3) for b in range(n)}},
        constants={})


# a and d range over A, b and c over B; a and b are the free names, and a
# binder may reuse either
B_TERMS = st.recursive(
    st.builds(Var, st.sampled_from("bc"), st.just("B")),
    lambda sub: st.builds(lambda t: App("g", (t,)), sub), max_leaves=2)
A_TERMS = (st.builds(Var, st.sampled_from("ad"), st.just("A"))
           | st.builds(lambda t: App("h", (t,)), B_TERMS))
TWO_ATOMS = st.one_of(
    st.builds(lambda a, b: Rel("R", (a, b)), A_TERMS, B_TERMS),
    st.builds(lambda b: Rel("Q", (b,)), B_TERMS),
    st.builds(lambda b, c: Rel("F", (b, c)), B_TERMS, B_TERMS),
    st.builds(lambda b, c, a: Rel("T", (b, c, a)), B_TERMS, B_TERMS, A_TERMS),
    st.builds(Eq, A_TERMS, A_TERMS), st.builds(Eq, B_TERMS, B_TERMS))


@st.composite
def two_sorted_formulas(draw, depth=3, quantifiers=2):
    kinds = ["atom"]
    if depth:
        kinds += ["not", "and", "or", "implies"]
        if quantifiers:
            kinds += ["exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(TWO_ATOMS)
    if kind == "not":
        return Not(draw(two_sorted_formulas(depth - 1, quantifiers)))
    if kind in ("exists", "forall"):
        body = draw(two_sorted_formulas(depth - 1, quantifiers - 1))
        var = draw(st.sampled_from("abcd"))
        quant = Exists if kind == "exists" else Forall
        return quant(var, "A" if var in "ad" else "B", body)
    node = {"and": And, "or": Or, "implies": Implies}[kind]
    return node(draw(two_sorted_formulas(depth - 1, quantifiers)),
                draw(two_sorted_formulas(depth - 1, quantifiers)))


def ref_count_sorted(phi, M, fixed, counted):
    sorts = dict(free_variables(phi))
    total = 0
    for values in itertools.product(*[range(M.sizes[sorts[v]])
                                      for v in counted]):
        total += ref_eval(phi, M, {**fixed, **dict(zip(counted, values))})
    return total


MASK_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])
# B sizes on both sides of a 64-bit word, and tiny ones
B_SIZES = st.sampled_from([1, 2, 5, 63, 64, 65, 70])


@MASK_SETTINGS
@given(data=st.data())
def test_two_sorted_count_matches_reference(data):
    M = random_two_sorted(data.draw(st.integers(0, 2 ** 32)),
                          data.draw(B_SIZES))
    phi = sort_check(data.draw(two_sorted_formulas()), TWO)
    free = data.draw(st.permutations([n for n, _ in free_variables(phi)]))
    sorts = dict(free_variables(phi))
    n_counted = data.draw(st.integers(0, len(free)))
    counted = free[:n_counted]
    fixed = {v: data.draw(st.integers(0, M.sizes[sorts[v]] - 1))
             for v in free[n_counted:]}
    assert (count(phi, M, fixed, counted).value
            == ref_count_sorted(phi, M, fixed, counted))


def random_large(seed, n):
    rng = random.Random(seed)
    return FiniteStructure(
        signature=SIG, sizes={"S": n},
        relations={"E": frozenset((a, b) for a in range(n) for b in range(n)
                                  if rng.random() < 0.1),
                   "P": frozenset((a,) for a in range(n) if rng.random() < 0.5)},
        functions={"f": {(a,): rng.randrange(n) for a in range(n)}},
        constants={"c": rng.randrange(n)})


def rank(phi):
    """The most nested binders."""
    if isinstance(phi, (Exists, Forall)):
        return 1 + rank(phi.body)
    if isinstance(phi, Not):
        return rank(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return max(rank(phi.left), rank(phi.right))
    return 0


@MASK_SETTINGS
@given(data=st.data())
def test_count_past_one_word_matches_reference(data):
    n = data.draw(st.sampled_from([63, 64, 65, 70]))
    M = random_large(data.draw(st.integers(0, 2 ** 32)), n)
    phi = sort_check(data.draw(formulas(S_ATOMS, "S", quantifiers=1)), SIG)
    free = data.draw(st.permutations([n for n, _ in free_variables(phi)]))
    # two counted variables under a binder would take the reference too long
    most = 1 if rank(phi) else 2
    n_counted = data.draw(st.integers(0, min(most, len(free))))
    counted = free[:n_counted]
    fixed = {v: data.draw(st.integers(0, n - 1)) for v in free[n_counted:]}
    assert (count(phi, M, fixed, counted).value
            == ref_count(phi, M, fixed, counted, "S"))


M70 = random_large(3, 70)


class TestMasks:
    def test_reflexive_atom_with_the_counted_variable_twice(self):
        phi = checked(E(x, x))
        loops = sum(1 for a, b in M70.relations["E"] if a == b)
        assert count(phi, M70, {}, ["x"]).value == loops
        phi = checked(And(E(x, x), E(x, y)))
        assert count(phi, M70, {}, ["y", "x"]).value == ref_count(
            phi, M70, {}, ["y", "x"], "S")

    def test_ternary_table_with_the_counted_variable_twice(self):
        M = random_two_sorted(5, 70)
        a, b, c, d = (Var("a", "A"), Var("b", "B"), Var("c", "B"),
                      Var("d", "A"))
        for phi, counted in ((Rel("T", (b, b, a)), ["a", "b"]),
                             (Exists("d", "A", Rel("T", (b, b, d))), ["b"]),
                             (Exists("c", "B", Rel("T", (b, c, a))),
                              ["a", "b"])):
            phi = sort_check(phi, TWO)
            assert count(phi, M, {}, counted).value == ref_count_sorted(
                phi, M, {}, counted)

    def test_binder_reusing_the_counted_name(self):
        # the bound x is its own slot, not the counted x
        phi = checked(And(E(x, y), Exists("x", "S", E(y, x))))
        for counted in (["x", "y"], ["y", "x"]):
            assert count(phi, M70, {}, counted).value == ref_count(
                phi, M70, {}, counted, "S")
        # M4: (0, 1) and (1, 2); y = 3 has no E-successor
        assert count(phi, M4, {}, ["x", "y"]).value == 2

    def test_sentence_counts_zero_or_one(self):
        for phi, want in ((Exists("x", "S", P(x)), 1),
                          (Forall("x", "S", P(x)), 0),
                          (Exists("x", "S", Forall("y", "S", Not(E(y, x)))),
                           1)):
            phi = checked(phi)
            assert count(phi, M4, {}, []).value == want
            assert evaluate(phi, M4, {}) is bool(want)

    def test_equalities_with_the_counted_variable(self):
        for phi in (Eq(x, x), Eq(x, y), Eq(y, x), Eq(App("f", (x,)), y),
                    Not(Eq(Const("c"), x))):
            phi = checked(phi)
            fixed = {"y": 69} if "y" in dict(free_variables(phi)) else {}
            assert count(phi, M70, fixed, ["x"]).value == ref_count(
                phi, M70, fixed, ["x"], "S")


def test_count_and_evaluate_leave_no_cyclic_garbage():
    # a compile drops its recursive helpers, so its closures, indexes and
    # structure go as soon as the call returns
    phi = checked(Or(Exists("z", "S", And(E(x, z), Not(E(z, y)))),
                     And(P(App("f", (x,))), Eq(y, Const("c")))))
    gc.collect()
    gc.disable()
    try:
        count(phi, M70, {}, ["x", "y"])
        count(phi, M70, {"y": 3}, ["x"])
        evaluate(phi, M70, {"x": 1, "y": 2})
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Guarded binders: when something is counted, a binder loops only over the
# bound values its guard allows, the conjuncts of its body (of the
# antecedent, for forall z. A -> B) that read the bound variable bare, do
# not read the last counted variable and read only names with a value.  The
# literals below key a guard on another variable (E(x, z)), on none
# (E(z, z), P(z)) or on a constant (c = z), plain or negated; P(f(z)) and a
# literal on the last counted variable stay out, so a guard may be empty.


def guard_literals(b):
    bound = Var(b, "S")
    other = st.sampled_from([Var(n, "S") for n in NAMES])
    atoms = st.one_of(
        st.builds(lambda o: E(bound, o), other),
        st.builds(lambda o: E(o, bound), other),
        st.builds(lambda o: Eq(bound, o), other),
        st.sampled_from([P(bound), E(bound, bound), Eq(Const("c"), bound),
                         P(App("f", (bound,)))]))
    return atoms | st.builds(Not, atoms)


@st.composite
def guarded_formulas(draw, nested=1, extra=None):
    """``exists b. C1 & ... & Ck`` or ``forall b. (C1 & ... & Ck) -> D``;
    a conjunct may be a guarded binder itself, over the same name mostly,
    and ``extra``, when given, is put among the conjuncts."""
    b = draw(st.sampled_from("zzzx"))
    parts = guard_literals(b)
    if nested:
        parts = parts | guarded_formulas(nested - 1)
    conjuncts = draw(st.lists(parts, min_size=1, max_size=4))
    if extra is not None:
        conjuncts.insert(draw(st.integers(0, len(conjuncts))), extra)
    body = functools.reduce(And, conjuncts)
    if draw(st.booleans()):
        phi = Exists(b, "S", body)
    else:
        phi = Forall(b, "S", Implies(body, draw(parts)))
    if draw(st.booleans()):   # beside a quantifier-free atom on x and y
        phi = draw(st.sampled_from([And, Or]))(E(x, y), phi)
    return phi


def guarded_case(data, extra=None):
    """A guarded formula, a structure with guard masks on either side of a
    64-bit word (small ones under nested binders, for the reference's
    sake), and the free variables in a random order."""
    phi = sort_check(data.draw(guarded_formulas(extra=extra)), SIG)
    sizes = [1, 2, 5, 63, 64, 65, 70] if rank(phi) < 2 else [1, 2, 5, 9]
    n = data.draw(st.sampled_from(sizes))
    M = random_large(data.draw(st.integers(0, 2 ** 32)), n)
    free = data.draw(st.permutations([v for v, _ in free_variables(phi)]))
    return phi, M, n, free


@MASK_SETTINGS
@given(data=st.data())
def test_guarded_count_matches_reference(data):
    phi, M, n, free = guarded_case(data)
    # at least one counted variable, so the binders are guarded; as many as
    # keep the reference's n^(counted + rank) visits small
    most = max(k for k in range(len(free) + 1)
               if k <= 1 or n ** (k + rank(phi)) <= 25_000)
    n_counted = data.draw(st.integers(min(1, len(free)), most))
    counted = free[:n_counted]
    fixed = {v: data.draw(st.integers(0, n - 1)) for v in free[n_counted:]}
    assert (count(phi, M, fixed, counted).value
            == ref_count(phi, M, fixed, counted, "S"))


@MASK_SETTINGS
@given(data=st.data())
def test_unassigned_conjunct_is_reached_as_in_the_reference(data):
    # P(w) has no value for w: a guard stops before it, so wherever the
    # reference reaches it for some value of the last counted variable,
    # the compiled masks reach it too; where they do not, the masks agree
    phi, M, n, free = guarded_case(data, extra=P(Var("w", "S")))
    free = [v for v in free if v != "w"]
    if not free:
        assert (outcome(evaluate, phi, M, {})
                == outcome(ref_eval, phi, M, {}))
        return
    counted = free[:1 if n > 9 else len(free)]
    fixed = {v: data.draw(st.integers(0, n - 1))
             for v in free[len(counted):]}
    test, env, _ = compile_formula(phi, M, fixed, counted)
    first = len(fixed)
    for values in itertools.product(range(n), repeat=len(counted) - 1):
        env[first:first + len(values)] = values
        seen = [outcome(ref_eval, phi, M,
                        {**fixed, **dict(zip(counted, values + (b,)))})
                for b in range(n)]
        try:
            mask = test(env)
        except AssignmentError:
            continue
        assert seen == [bool(mask >> b & 1) for b in range(n)]


class TestGuardedBinders:
    def test_two_step_path_is_a_union_of_index_rows(self):
        # exists z. E(x, z) & E(z, y): the rows E(z, .) over z in E(x, .)
        phi = checked(Exists("z", "S", And(E(x, z), E(z, y))))
        rows = {a: {b for c, b in M70.relations["E"] if c == a}
                for a in range(70)}
        want = sum(len(set().union(*[rows[c] for c in rows[a]]))
                   for a in range(70))
        assert count(phi, M70, {}, ["x", "y"]).value == want

    def test_conjunct_after_an_unassigned_name_stays_out_of_the_guard(self):
        # on M4, E(3, .) is empty: a guard of E(x, z) would skip every z,
        # but the reference reads P(w) first at z = 0
        w = Var("w", "S")
        for phi in (Exists("z", "S", And(P(w), And(E(x, z), E(z, y)))),
                    Forall("z", "S", Implies(And(P(w), E(x, z)), E(z, y)))):
            test, env, _ = compile_formula(checked(phi), M4, {"x": 3}, ["y"])
            with pytest.raises(AssignmentError, match="no value for variable w"):
                test(env)
        # after the guard it is reached only where the guard holds
        phi = checked(Exists("z", "S", And(E(x, z), And(P(w), E(z, y)))))
        test, env, _ = compile_formula(phi, M4, {"x": 3}, ["y"])
        assert test(env) == 0


class TestOneFreeVariableWalk:
    def test_count_walks_the_free_variables_once(self):
        from pfdim import counting
        phi = checked(Exists("z", "S", And(E(x, z), E(z, y))))
        walks = []
        real = counting.free_variables

        def counted(f):
            walks.append(f)
            return real(f)

        with mock.patch.object(counting, "free_variables", counted):
            assert count(phi, M4, {}, ["x", "y"]) == count(phi, M4, {},
                                                           ["x", "y"])
        assert len(walks) == 2    # one per count

    def test_the_size_compile_formula_reads_when_none_is_given(self):
        phi = checked(Exists("z", "S", And(E(x, z), E(z, y))))
        for fixed, counted in (({}, ["x", "y"]), ({"x": 1}, ["y"]),
                               ({"y": 2}, ["x"])):
            read, _, _ = compile_formula(phi, M4, fixed, counted)
            given_size, env, _ = compile_formula(phi, M4, fixed, counted,
                                                 M4.sizes["S"])
            env[len(fixed):len(fixed) + len(counted) - 1] = [3] * (
                len(counted) - 1)
            assert read(env) == given_size(env)
