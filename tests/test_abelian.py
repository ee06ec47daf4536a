"""Exact and symbolic counting in homocyclic abelian groups."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from pfdim.abelian import (AbelianError, ExponentPolynomial, LinearTerm,
                           StandardAtom, brute_count, derived_bound,
                           evaluate_poly, exact_count, make_poly,
                           parse_standard_conjunction, select_case,
                           symbolic_count)
from pfdim.counting import count
from pfdim.families import make_homocyclic
from pfdim.gf import vec_encode
from pfdim.parser import parse_formula


def atom_eq(xc, yc, negated=False):
    return StandardAtom("eq", LinearTerm(tuple(xc), tuple(yc)), negated=negated)


def atom_div(base, level, xc, yc, negated=False):
    return StandardAtom("div", LinearTerm(tuple(xc), tuple(yc)),
                        level=level, negated=negated, base=base)


def random_atoms(rng, r=1, max_atoms=3, p=2):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        xc = tuple(rng.randint(-4, 4) for _ in range(r))
        yc = (rng.randint(-4, 4),)
        neg = rng.random() < 0.35
        if rng.random() < 0.5:
            atoms.append(atom_eq(xc, yc, neg))
        else:
            base = p if rng.random() < 0.8 else (3 if p == 2 else 2)
            atoms.append(atom_div(base, rng.randint(1, 2), xc, yc, neg))
    return atoms


class TestExactCount:
    def test_single_congruence(self):
        # 2x + y = 0 in Z/4: one solution per parameter value
        atoms = [atom_eq((2,), (1,))]
        assert exact_count(atoms, [(1,)], 2, 2, 1).value == 0
        assert exact_count(atoms, [(2,)], 2, 2, 1).value == 2

    def test_divisibility(self):
        # 2 | x in Z/8 has 4 solutions
        atoms = [atom_div(2, 1, (1,), (0,))]
        assert exact_count(atoms, [(0,)], 2, 3, 1).value == 4

    def test_coprime_base_is_trivial(self):
        atoms = [atom_div(3, 1, (1,), (0,))]
        assert exact_count(atoms, [(0,)], 2, 2, 1).value == 4

    def test_matches_brute_force_grid(self):
        rng = random.Random(23)
        for _ in range(150):
            p = rng.choice([2, 3])
            n = rng.choice([1, 2])
            m = rng.choice([1, 2])
            atoms = random_atoms(rng, p=p)
            params = [tuple(rng.randrange(p ** n) for _ in range(m))]
            assert (exact_count(atoms, params, p, n, m).value
                    == brute_count(atoms, params, p, n, m).value)


class TestPolynomials:
    def test_index_range_enforced(self):
        with pytest.raises(AbelianError):
            make_poly(1, 1, {(2, 0): 1})
        with pytest.raises(AbelianError):
            make_poly(1, 1, {(0, 2): 1})

    def test_evaluation(self):
        # X^(n-1) - X^(n-2) at p=2, m=1
        P = make_poly(1, 2, {(1, -1): 1, (1, -2): -1})
        assert evaluate_poly(P, 2, 1, 3).value == 4 - 2

    def test_negative_exponent_rejected_when_it_matters(self):
        P = make_poly(1, 2, {(0, -1): 1})
        with pytest.raises(AbelianError):
            evaluate_poly(P, 2, 1, 0)

    def test_json_shape(self):
        P = make_poly(1, 1, {(1, 0): 1, (0, 1): -1})
        d = P.to_json_dict()
        assert d["k"] == 1 and d["d"] == 1
        assert {(c["i"], c["j"], c["c"]) for c in d["coeffs"]} == {
            (1, 0, 1), (0, 1, -1)}


class TestSymbolic:
    def test_guard_uniqueness_and_exactness(self):
        rng = random.Random(31)
        for _ in range(200):
            p = rng.choice([2, 3])
            n = rng.choice([1, 2, 3])
            m = rng.choice([1, 2])
            atoms = random_atoms(rng, p=p)
            params = [tuple(rng.randrange(p ** n) for _ in range(m))]
            try:
                cases = symbolic_count(atoms, 1, p)
            except AbelianError:
                continue
            firing = [c for c in cases if c.fires(n, m, params)]
            assert len(firing) == 1
            got = evaluate_poly(firing[0].poly, p, m, n).value
            assert got == brute_count(atoms, params, p, n, m).value

    def test_decoupled_two_variables(self):
        rng = random.Random(37)
        for _ in range(100):
            p = rng.choice([2, 3])
            n = rng.choice([1, 2])
            m = 1
            atoms = []
            for var in range(2):
                xc = [0, 0]
                xc[var] = rng.choice([1, 2, 3, -1])
                atoms.append(atom_eq(tuple(xc), (rng.randint(-2, 2),))
                             if rng.random() < 0.5 else
                             atom_div(p, rng.randint(1, 2), tuple(xc),
                                      (rng.randint(-2, 2),)))
            params = [(rng.randrange(p ** n),)]
            case, got = select_case(symbolic_count(atoms, 2, p), params,
                                    p, n, m)
            mod = p ** n
            want = 0
            for x1, x2 in itertools.product(range(mod), repeat=2):
                ok = True
                for a in atoms:
                    t = (a.term.x_coeffs[0] * x1 + a.term.x_coeffs[1] * x2
                         + a.term.y_coeffs[0] * params[0][0]) % mod
                    if a.kind == "eq":
                        hold = t == 0
                    elif a.base != p:
                        hold = True
                    else:
                        hold = t % (p ** min(a.level, n)) == 0
                    if a.negated:
                        hold = not hold
                    if not hold:
                        ok = False
                        break
                if ok:
                    want += 1
            assert got.value == want

    def test_coupled_variables_rejected(self):
        atoms = [atom_eq((1, 1), (0,))]
        with pytest.raises(AbelianError):
            symbolic_count(atoms, 2, 2)

    def test_derived_bound_covers_levels_and_valuations(self):
        atoms = [atom_div(2, 2, (4,), (0,)), atom_eq((2,), (1,))]
        d = derived_bound(atoms, 2)
        assert d >= 2


class TestConjunctionParser:
    def test_parse_roundtrip_semantics(self):
        atoms = parse_standard_conjunction(
            "2*x1 + 1*y1 = 0 & !div(2^1, 1*x1)", r=1, s=1)
        assert len(atoms) == 2
        assert atoms[0].kind == "eq" and not atoms[0].negated
        assert atoms[1].kind == "div" and atoms[1].negated
        assert atoms[1].level == 1 and atoms[1].base == 2

    def test_bad_input(self):
        with pytest.raises(AbelianError):
            parse_standard_conjunction("x1 + 3 = 0", r=1, s=0)
        with pytest.raises(AbelianError):
            parse_standard_conjunction("2*x9 = 0", r=1, s=0)


class TestPrimeCheck:
    @pytest.mark.parametrize("p", [47053, 1600880117])
    def test_composites_rejected(self, p):
        with pytest.raises(AbelianError, match="not prime"):
            exact_count([atom_eq([1], [])], [], p, 1, 1)
        with pytest.raises(AbelianError, match="not prime"):
            symbolic_count([atom_eq([1], [])], 1, p)

    @pytest.mark.parametrize("p", [2, 3, 7, 211])
    def test_small_primes_accepted(self, p):
        assert exact_count([atom_eq([1], [])], [], p, 2, 1).value == 1

    def test_beyond_the_limit_rejected(self):
        with pytest.raises(AbelianError, match="decided only below"):
            exact_count([atom_eq([1], [])], [], 10 ** 25, 1, 1)


# ---------------------------------------------------------------------------
# The exact count against the enumeration engine on make_homocyclic(p, n, m).
# Each atom is written as formula text with its literal base, so the engine
# side never goes through the base normalization that exact_count and
# brute_count share.

SHAPES = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2),
          (3, 1, 1), (3, 2, 1), (3, 1, 2)]
GROUPS = {shape: make_homocyclic(*shape) for shape in SHAPES}


def times(k, u):
    """k*u as repeated add/neg."""
    if k == 0:
        return "zero"
    text = u
    for _ in range(abs(k) - 1):
        text = f"add({text}, {u})"
    return text if k > 0 else f"neg({text})"


def term_text(term):
    parts = [times(a, "x") for a in term.x_coeffs if a]
    parts += [times(b, f"y{j + 1}") for j, b in enumerate(term.y_coeffs) if b]
    text = parts[0] if parts else "zero"
    for part in parts[1:]:
        text = f"add({text}, {part})"
    return text


def atom_text(atom):
    if atom.kind == "eq":
        text = f"{term_text(atom.term)} = zero"
    else:
        k = atom.base ** atom.level
        text = f"exists z:G. {times(k, 'z')} = {term_text(atom.term)}"
    return f"!({text})" if atom.negated else f"({text})"


@st.composite
def conjunctions(draw):
    p, n, m = draw(st.sampled_from(SHAPES))
    s = draw(st.integers(1, 2))
    coeff = st.integers(-4, 4)
    # a unit coefficient of x keeps a negated atom from being unsatisfiable
    x_coeff = st.one_of(st.sampled_from([1, -1]), coeff)
    # b^l at most 9, with b = p, p^2, a coprime prime or 2p
    bases = st.sampled_from([(p, 1), (p, 2), (p * p, 1), (5 - p, 1),
                             (2 * p, 1)])
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        term = LinearTerm((draw(x_coeff),),
                          tuple(draw(coeff) for _ in range(s)))
        negated = draw(st.booleans())
        if draw(st.booleans()):
            atoms.append(StandardAtom("eq", term, negated=negated))
        else:
            base, level = draw(bases)
            atoms.append(StandardAtom("div", term, level, negated, base))
    # zero parameters leave x = 0 in the set of every positive atom, which
    # keeps about half of the sets from being empty
    if draw(st.booleans()):
        return p, n, m, atoms, [(0,) * m] * s
    coord = st.integers(0, p ** n - 1)
    return p, n, m, atoms, [draw(st.tuples(*[coord] * m)) for _ in range(s)]


def engine_count(p, n, m, atoms, params):
    M = GROUPS[p, n, m]
    text = " & ".join(atom_text(a) for a in atoms)
    # x = x keeps x free when every atom has x-coefficient 0; the engine
    # takes values only for the parameters the text names
    phi = parse_formula(f"{text} & x = x", M.signature)
    fixed = {f"y{j + 1}": vec_encode(y, p ** n)
             for j, y in enumerate(params) if f"y{j + 1}" in text}
    want = count(phi, M, fixed, ["x"]).value
    event("empty" if want == 0 else "nonempty")
    return want


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(conjunctions())
def test_exact_count_matches_the_engine(case):
    p, n, m, atoms, params = case
    assert exact_count(atoms, params, p, n, m).value == engine_count(*case)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(conjunctions())
def test_brute_count_matches_the_engine(case):
    p, n, m, atoms, params = case
    assert brute_count(atoms, params, p, n, m).value == engine_count(*case)
