"""Exactness and algebraic laws of the counting engine."""

import itertools
import random

import pytest

from pfdim.counting import AssignmentError, BudgetExceeded, count, evaluate
from pfdim.families import FamilyAt, count_family, get_family
from pfdim.logic import (And, Eq, Exists, FiniteStructure, Not, Or, Rel, Var,
                         free_variables, make_signature, sort_check)


SIG = make_signature(["S"], relations=[("E", ("S", "S")), ("P", ("S",))])


def random_structure(rng, max_size=12):
    n = rng.randint(1, max_size)
    E = frozenset((a, b) for a in range(n) for b in range(n)
                  if rng.random() < 0.3)
    P = frozenset((a,) for a in range(n) if rng.random() < 0.5)
    return FiniteStructure(signature=SIG, sizes={"S": n},
                           relations={"E": E, "P": P},
                           functions={}, constants={})


def random_formula(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.4:
        if rng.random() < 0.6:
            return Rel("E", (Var(rng.choice("xy")), Var(rng.choice("xy"))))
        return Rel("P", (Var(rng.choice("xy")),))
    if r < 0.55:
        return Not(random_formula(rng, depth + 1))
    if r < 0.7:
        return And(random_formula(rng, depth + 1), random_formula(rng, depth + 1))
    if r < 0.85:
        return Or(random_formula(rng, depth + 1), random_formula(rng, depth + 1))
    return Exists("z", "S", Rel("E", (Var("z"), Var(rng.choice("xy")))))


def pad_to(phi, names):
    # conjoin trivial equalities so phi's free variables cover `names`
    present = {n for n, _ in free_variables(phi)}
    for v in names:
        if v not in present:
            phi = And(phi, Eq(Var(v), Var(v)))
    return phi


def brute(phi, M, cv):
    n = M.sizes["S"]
    total = 0
    for vals in itertools.product(range(n), repeat=len(cv)):
        if evaluate(phi, M, dict(zip(cv, vals))):
            total += 1
    return total


class TestExactness:
    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(100):
            M = random_structure(rng)
            phi = sort_check(pad_to(random_formula(rng), ["x", "y"]), SIG)
            cv = ["x", "y"]
            assert count(phi, M, {}, cv).value == brute(phi, M, cv)

    def test_fixed_assignment(self):
        rng = random.Random(8)
        M = random_structure(rng, max_size=8)
        phi = sort_check(Rel("E", (Var("x"), Var("y"))), SIG)
        n = M.sizes["S"]
        total = sum(count(phi, M, {"x": v}, ["y"]).value for v in range(n))
        assert total == count(phi, M, {}, ["x", "y"]).value


class TestAlgebraicLaws:
    def test_laws_hold_on_random_pairs(self):
        rng = random.Random(6)
        for trial in range(200):
            M = random_structure(rng)
            n = M.sizes["S"]
            a, b = random_formula(rng), random_formula(rng)
            cv = sorted({nm for nm, _ in
                         free_variables(And(a, b))}) or ["x"]
            a, b = pad_to(a, cv), pad_to(b, cv)
            fa = sort_check(a, SIG)
            fb = sort_check(b, SIG)
            fand = sort_check(And(a, b), SIG)
            for_ = sort_check(Or(a, b), SIG)
            fneg = sort_check(Not(a), SIG)
            ca = count(fa, M, {}, cv).value
            cb = count(fb, M, {}, cv).value
            cboth = count(fand, M, {}, cv).value
            ceither = count(for_, M, {}, cv).value
            assert ceither == ca + cb - cboth
            assert count(fneg, M, {}, cv).value == n ** len(cv) - ca

    def test_disjoint_variable_product(self):
        rng = random.Random(9)
        for _ in range(60):
            M = random_structure(rng, max_size=10)
            px = sort_check(Rel("P", (Var("x"),)), SIG)
            ey = sort_check(Rel("E", (Var("y"), Var("y"))), SIG)
            both = sort_check(And(Rel("P", (Var("x"),)),
                                  Rel("E", (Var("y"), Var("y")))), SIG)
            assert (count(both, M, {}, ["x", "y"]).value
                    == count(px, M, {}, ["x"]).value
                    * count(ey, M, {}, ["y"]).value)


class TestErrorsAndBudget:
    M = FiniteStructure(signature=SIG, sizes={"S": 4},
                        relations={"E": frozenset(), "P": frozenset({(0,)})},
                        functions={}, constants={})
    PHI = sort_check(Rel("E", (Var("x"), Var("y"))), SIG)

    def test_unassigned_variable_rejected(self):
        with pytest.raises(AssignmentError):
            count(self.PHI, self.M, {}, ["x"])

    def test_extra_counted_variable_rejected(self):
        with pytest.raises(AssignmentError):
            count(self.PHI, self.M, {}, ["x", "y", "w"])

    def test_overlap_rejected(self):
        with pytest.raises(AssignmentError):
            count(self.PHI, self.M, {"x": 0}, ["x", "y"])

    def test_unchecked_formula_rejected(self):
        with pytest.raises(AssignmentError):
            count(Rel("E", (Var("x"), Var("y"))), self.M, {}, ["x", "y"])

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            count(self.PHI, self.M, {}, ["x", "y"], budget=8)

    def test_budget_charges_quantifier_visits(self):
        # 4 assignments of x, each with up to 4 visits of z, each visit
        # with up to 4 of w: 4 * (1 + 4 * (1 + 4)) = 84 steps
        phi = sort_check(Exists("z", "S", And(
            Rel("E", (Var("x"), Var("z"))),
            Exists("w", "S", Rel("E", (Var("z"), Var("w")))))), SIG)
        assert count(phi, self.M, {}, ["x"], budget=84).value == 0
        with pytest.raises(BudgetExceeded):
            count(phi, self.M, {}, ["x"], budget=83)
        with pytest.raises(BudgetExceeded):
            count(phi, self.M, {"x": 0}, [], budget=20)


class TestCountFamily:
    def test_points_match_direct_counts(self):
        fam = get_family("earlyexample")
        seq = count_family("E(x, y)", fam, [2, 3, 4])
        assert [n for n, _ in seq.points] == [2, 3, 4]
        for n, c in seq.points:
            at = FamilyAt(fam, n)
            (phi, params), = at.conjunctions([("E(x, y)", None)])
            assert c.value == at.count(phi, params).value
