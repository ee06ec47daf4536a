"""Finite-field arithmetic, rank, and affine solving."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pfdim.gf import (PRIME_LIMIT, SUPPORTED_Q, is_prime, make_field, rank,
                      solve_affine, vec_add, vec_decode, vec_encode, vec_scale)


@pytest.mark.parametrize("q", SUPPORTED_Q)
class TestFieldAxioms:
    def test_field_laws(self, q):
        F = make_field(q)
        for a, b in itertools.product(F.elements(), repeat=2):
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
            assert F.add[a][F.neg[a]] == 0
            if a != 0:
                assert F.mul[a][F.inv[a]] == 1
        for a, b, c in itertools.product(F.elements(), repeat=3):
            assert (F.mul[a][F.add[b][c]]
                    == F.add[F.mul[a][b]][F.mul[a][c]])

    def test_encode_decode_roundtrip(self, q):
        for v in range(q ** 2):
            coords = vec_decode(v, q, 2)
            assert vec_encode(coords, q) == v


class TestRank:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_rank_counts_span(self, q):
        # rank r in dimension d means the span holds q^r vectors
        F = make_field(q)
        rng = random.Random(41)
        dim = 3
        for _ in range(50):
            rows = [tuple(rng.randrange(q) for _ in range(dim))
                    for _ in range(rng.randint(0, 4))]
            r = rank(F, rows)
            span = {(0,) * dim}
            grew = True
            while grew:
                grew = False
                for v in list(span):
                    for row in rows:
                        for c in range(q):
                            w = vec_add(F, v, vec_scale(F, c, row))
                            if w not in span:
                                span.add(w)
                                grew = True
            assert len(span) == q ** r

    def test_rank_bounds(self):
        F = make_field(5)
        assert rank(F, []) == 0
        assert rank(F, [(0, 0, 0)]) == 0
        assert rank(F, [(1, 0, 0), (2, 0, 0)]) == 1
        assert rank(F, [(1, 0), (0, 1), (1, 1)]) == 2


def apply_matrix(F, A, x):
    out = []
    for row in A:
        acc = 0
        for aij, xj in zip(row, x):
            acc = F.add[acc][F.mul[aij][xj]]
        out.append(acc)
    return tuple(out)


class TestSolveAffine:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_solutions_form_exact_set(self, q):
        F = make_field(q)
        rng = random.Random(17)
        for _ in range(80):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
            A = [tuple(rng.randrange(q) for _ in range(ncols))
                 for _ in range(nrows)]
            b = tuple(rng.randrange(q) for _ in range(nrows))
            expected = {x for x in itertools.product(range(q), repeat=ncols)
                        if apply_matrix(F, A, x) == b}
            sol = solve_affine(F, A, b)
            if not expected:
                assert sol is None
                continue
            particular, basis = sol
            got = set()
            for coeffs in itertools.product(range(q), repeat=len(basis)):
                v = tuple(particular)
                for c, vec in zip(coeffs, basis):
                    v = vec_add(F, v, vec_scale(F, c, vec))
                got.add(v)
            assert got == expected


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(-3, 5000) if is_prime(n)] == \
            [n for n in range(-3, 5000) if trial(n)]

    @pytest.mark.parametrize("n", [47053, 1600880117, 561, 3215031751,
                                   3825123056546413051,
                                   318665857834031151167461])
    def test_composites_and_strong_pseudoprimes(self, n):
        # 211*223, 40009*40013, a Carmichael number, and the least strong
        # pseudoprimes to the first 4, 9 and 12 prime bases
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2, 3, 41, 43, 2 ** 31 - 1, 10 ** 12 + 39,
                                   2 ** 61 - 1])
    def test_primes(self, n):
        assert is_prime(n)

    def test_beyond_the_limit_is_rejected(self):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(PRIME_LIMIT)


@st.composite
def systems(draw, min_rows):
    """A field from SUPPORTED_Q, a 0..4-row (at least ``min_rows``) by 1..4
    column matrix over it, and a right-hand side."""
    q = draw(st.sampled_from(SUPPORTED_Q))
    nrows, ncols = draw(st.integers(min_rows, 4)), draw(st.integers(1, 4))
    entry = st.integers(0, q - 1)
    rows = draw(st.lists(st.tuples(*[entry] * ncols),
                         min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return make_field(q), ncols, rows, tuple(rhs)


def combinations_of(F, start, vectors):
    """Every start + sum c_i v_i, by enumerating the coefficients."""
    out = set()
    for coeffs in itertools.product(F.elements(), repeat=len(vectors)):
        v = tuple(start)
        for c, vec in zip(coeffs, vectors):
            v = vec_add(F, v, vec_scale(F, c, vec))
        out.add(v)
    return out


class TestEliminationDifferential:
    """rank and solve_affine against brute-force enumeration, over every
    supported field and tall, wide and square systems."""

    @settings(max_examples=300, deadline=None)
    @given(systems(min_rows=0))
    def test_rank_is_log_of_span(self, system):
        F, ncols, rows, _ = system
        span = combinations_of(F, (0,) * ncols, rows)
        assert len(span) == F.q ** rank(F, rows)

    @settings(max_examples=300, deadline=None)
    @given(systems(min_rows=1))
    def test_solve_affine_is_the_solution_set(self, system):
        F, ncols, rows, rhs = system
        expected = {x for x in itertools.product(F.elements(), repeat=ncols)
                    if apply_matrix(F, rows, x) == rhs}
        sol = solve_affine(F, rows, rhs)
        if not expected:
            assert sol is None
            return
        particular, basis = sol
        assert len(basis) == ncols - rank(F, rows)
        assert combinations_of(F, particular, basis) == expected
