"""The symbolic abelian catalog: direct generation of the nonemptiness
patterns, one solvability pattern per guard evaluation point, and the
catalog itself, each against a slow reference kept here."""

import random
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from pfdim import abelian
from pfdim.abelian import (AbelianError, LinearTerm, StandardAtom,
                           brute_count, evaluate_poly, select_case,
                           symbolic_count)


def filtered_patterns(t):
    """Reference: filter all 2^(2^t) families of subsets of {0..t-1} for
    downward closure, in bitmask order over the size-ordered subsets."""
    subsets = [frozenset(s) for size in range(t + 1)
               for s in combinations(range(t), size)]
    patterns = []
    for bits in range(1 << len(subsets)):
        fam = frozenset(s for i, s in enumerate(subsets) if bits >> i & 1)
        if all(t2 in fam for s in fam for t2 in subsets if t2 <= s):
            patterns.append(fam)
    return patterns


def reference_catalog(atoms, p, d):
    """Reference: the one-variable catalog (polynomial and guard text),
    one exponent computation per (regime, pattern, subset)."""
    pos, neg = abelian._split_atoms(atoms, p)
    D = 2 * d + 2
    regimes = [(f"n={n0}", n0) for n0 in range(1, D + 1)] + [(f"n>{D}", None)]
    patterns = filtered_patterns(len(neg))
    out = []
    for regime_desc, n0 in regimes:
        for pattern in patterns:
            coeffs = {}
            for sub in pattern:
                system = list(pos) + [neg[i] for i in sub]
                if n0 is None:
                    i, j = abelian._generic_exponent(system, p, 0)
                else:
                    i, j = abelian._concrete_exponent(system, p, n0, 0, d)
                coeffs[(i, j)] = coeffs.get((i, j), 0) + (-1) ** len(sub)
            desc = (f"{regime_desc}; solvable negation-subsets: "
                    + ("{" + ", ".join(sorted(
                        "{" + ",".join(str(i + 1) for i in sorted(s)) + "}"
                        for s in pattern)) + "}" if pattern else "none"))
            out.append({**abelian.make_poly(1, d, coeffs).to_json_dict(),
                        "guard": desc})
    return out


def random_atoms(rng, p, negations, s=1):
    atoms = []
    for i in range(negations + rng.randint(1, 2)):
        term = LinearTerm((rng.choice([1, 2, 3, 4, p, p * p]),),
                          tuple(rng.randint(-3, 3) for _ in range(s)))
        if rng.random() < 0.5:
            atoms.append(StandardAtom("eq", term, negated=i < negations))
        else:
            atoms.append(StandardAtom("div", term, rng.randint(1, 2),
                                      negated=i < negations))
    rng.shuffle(atoms)
    return atoms


@pytest.mark.parametrize("t", range(5))
def test_patterns_equal_the_filter(t):
    assert abelian._downward_closed_patterns(t) == filtered_patterns(t)


@pytest.mark.parametrize("seed,negations", [(1, 0), (2, 1), (3, 2), (4, 3),
                                            (5, 4), (6, 4)])
def test_catalog_equals_reference(seed, negations):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    atoms = random_atoms(rng, p, negations)
    d = abelian.derived_bound(atoms, p)
    got = [c.to_json_dict() for c in symbolic_count(atoms, 1, p, d)]
    assert got == reference_catalog(atoms, p, d)


def product_reference(per_var, d):
    """Reference: the product catalog from one-variable catalogs in
    ``to_json_dict`` form, multiplying the polynomials term by term."""
    out = []
    for combo in product(*per_var):
        coeffs = {(0, 0): 1}
        for case in combo:
            step = {}
            for (i, j), c in coeffs.items():
                for term in case["coeffs"]:
                    ij = (i + term["i"], j + term["j"])
                    step[ij] = step.get(ij, 0) + c * term["c"]
            coeffs = step
        guard = " AND ".join(f"[x{i + 1}: {case['guard']}]"
                             for i, case in enumerate(combo))
        out.append({**abelian.make_poly(len(combo), d, coeffs).to_json_dict(),
                    "guard": guard})
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]),
       st.integers(0, 4), st.integers(0, 2))
def test_catalog_equals_reference_randomized(seed, p, negations, extra):
    rng = random.Random(seed)
    atoms = random_atoms(rng, p, negations)
    d = abelian.derived_bound(atoms, p) + extra
    got = [c.to_json_dict() for c in symbolic_count(atoms, 1, p, d)]
    assert got == reference_catalog(atoms, p, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]),
       st.integers(0, 4), st.integers(0, 2))
def test_product_catalog_equals_reference(seed, p, negations, extra):
    """Two counted variables, each with its own atoms: the catalog is the
    product of the one-variable reference catalogs, case by case."""
    rng = random.Random(seed)
    first = rng.randint(0, negations)
    per_var_atoms = [random_atoms(rng, p, first),
                     random_atoms(rng, p, negations - first)]

    def on(a, xs):
        return replace(a, term=LinearTerm(xs, a.term.y_coeffs))

    atoms = ([on(a, (a.term.x_coeffs[0], 0)) for a in per_var_atoms[0]]
             + [on(a, (0, a.term.x_coeffs[0])) for a in per_var_atoms[1]])
    d = abelian.derived_bound(atoms, p) + extra
    got = [c.to_json_dict() for c in symbolic_count(atoms, 2, p, d)]
    want = product_reference(
        [reference_catalog(group, p, d) for group in per_var_atoms], d)
    assert len(got) == len(want)
    for got_case, want_case in zip(got, want):
        assert got_case == want_case


class TestSharedSolvability:
    def counting_pattern(self, monkeypatch):
        calls = []
        inner = abelian._solvability_pattern

        def wrapped(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(abelian, "_solvability_pattern", wrapped)
        return calls

    def test_once_per_point(self, monkeypatch):
        calls = self.counting_pattern(monkeypatch)
        rng = random.Random(7)
        atoms = random_atoms(rng, 2, 4)
        cases = symbolic_count(atoms, 1, 2)
        assert len(cases) > 168
        for n in (1, 2, 9):
            select_case(cases, [(1,)], 2, n, 1)
            select_case(cases, [(1,)], 2, n, 1)
            select_case(cases, [(2,)], 2, n, 1)
        # one pattern per distinct (n, m, params)
        assert len(calls) == 6

    def test_once_per_variable(self, monkeypatch):
        calls = self.counting_pattern(monkeypatch)
        x1 = StandardAtom("eq", LinearTerm((2, 0), (1,)), negated=True)
        x2 = StandardAtom("div", LinearTerm((0, 1), (1,)), 1, negated=True)
        select_case(symbolic_count([x1, x2], 2, 2), [(3,)], 2, 3, 1)
        assert len(calls) == 2

    def test_exactly_one_guard_still_checked(self):
        atoms = [StandardAtom("eq", LinearTerm((2,), (1,)), negated=True)]
        cases = symbolic_count(atoms, 1, 2)
        with pytest.raises(AbelianError, match="2 guards fired"):
            select_case(cases + cases, [(1,)], 2, 3, 1)
        with pytest.raises(AbelianError, match="0 guards fired"):
            select_case([], [(1,)], 2, 3, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.integers(0, 3))
    def test_one_catalog_many_points(self, seed, p, negations):
        """Guards of one catalog, asked at several (n, m, params) in a
        row, each select the case whose value is the brute-force count."""
        rng = random.Random(seed)
        atoms = random_atoms(rng, p, negations)
        cases = symbolic_count(atoms, 1, p)
        for _ in range(4):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            if p ** (n * m) > 243:
                m = 1
            params = [tuple(rng.randrange(p ** n) for _ in range(m))]
            case, value = select_case(cases, params, p, n, m)
            assert value == evaluate_poly(case.poly, p, m, n)
            assert value == brute_count(atoms, params, p, n, m)
