"""Vector-space counting: independence atoms, cosets, polynomials."""

import itertools
from fractions import Fraction

import pytest

from pfdim import vspace
from pfdim.families import make_vector_space
from pfdim.gf import vec_add, vec_scale
from pfdim.vspace import (MAX_VECTORS, Coset, VFPolynomial, VSpaceError,
                          ZERO, ambient_of, count_coset_difference,
                          count_theta_case, vector_space_ambient)


def all_vectors(amb):
    return [amb.decode(v) for v in range(amb.F.q ** amb.dim)]


def span_set(amb, rows):
    F = amb.F
    out = {(0,) * amb.dim}
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = (0,) * amb.dim
        for c, row in zip(coeffs, rows):
            v = vec_add(F, v, vec_scale(F, c, row))
        out.add(v)
    return out


class TestVFPolynomial:
    def test_ring_ops(self):
        a = VFPolynomial.monomial(1, 0)
        b = VFPolynomial.monomial(0, 1, 2)
        c = a * b + VFPolynomial.constant(3)
        assert c.evaluate(8, 2) == 8 * 4 + 3
        assert a - a == ZERO

    def test_json_shape(self):
        p = VFPolynomial.monomial(1, 0) - VFPolynomial.monomial(0, 1)
        d = p.to_json_dict()
        entries = {(t["vPow"], t["fPow"], t["coeff"]["num"]) for t in d["terms"]}
        assert entries == {(1, 0, 1), (0, 1, -1)}


class TestThetaCounts:
    @pytest.mark.parametrize("q,dim", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_brute_force(self, q, dim):
        space = make_vector_space(q, dim)
        amb = ambient_of(space)
        nvec = q ** dim
        from pfdim.gf import rank
        for w_ids in itertools.chain([()], itertools.product(range(nvec), repeat=1),
                                     itertools.product(range(nvec), repeat=2)):
            for wp_ids in itertools.chain([()],
                                          itertools.product(range(nvec), repeat=1)):
                case = count_theta_case(space, list(w_ids), list(wp_ids))
                # brute force: u ranges over V, test joint independence of
                # (u+w1, ..., u+wm, w1', ..., wm'')
                total = 0
                for u in range(nvec):
                    uvec = amb.decode(u)
                    rows = ([vec_add(amb.F, uvec, amb.decode(i))
                             for i in w_ids]
                            + [amb.decode(i) for i in wp_ids])
                    if rank(amb.F, rows) == len(rows):
                        total += 1
                assert case.count.value == total
                assert case.poly.evaluate_count(nvec, q).value == total
                assert (case.first_count.value + case.second_count.value
                        == case.count.value)

    def test_known_examples(self):
        # F_2^3: theta1(u + w, ) against a single nonzero w
        space = make_vector_space(2, 3)
        case = count_theta_case(space, [1], [])
        assert case.count.value == 7
        assert case.first_count.value == 6
        assert case.second_count.value == 1


class TestCosetDifference:
    @pytest.mark.parametrize("q,dim", [(2, 2), (2, 3), (3, 2)])
    def test_matches_enumeration(self, q, dim):
        import random
        rng = random.Random(53)
        space = make_vector_space(q, dim)
        amb = ambient_of(space)
        for _ in range(60):
            def rand_coset():
                point = tuple(rng.randrange(q) for _ in range(dim))
                rows = tuple(tuple(rng.randrange(q) for _ in range(dim))
                             for _ in range(rng.randint(0, 2)))
                return Coset(point, rows)

            include = [rand_coset() for _ in range(rng.randint(1, 2))]
            exclude = [rand_coset() for _ in range(rng.randint(0, 2))]
            got = count_coset_difference(space, include, exclude)

            def members(c):
                return {vec_add(amb.F, c.point, v)
                        for v in span_set(amb, list(c.rows))}

            base = set.intersection(*[members(c) for c in include])
            for c in exclude:
                base -= members(c)
            assert got.count.value == len(base)
            assert got.poly.evaluate_count(q ** dim, q).value == len(base)

    def test_plane_complement_example(self):
        space = make_vector_space(2, 3)
        amb = ambient_of(space)
        full = Coset((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        plane = Coset((0, 0, 0), ((1, 0, 0), (0, 1, 0)))
        got = count_coset_difference(space, [full], [plane])
        assert got.count.value == 8 - 4
        # V - F^2 as a polynomial
        assert got.poly.evaluate(8, 2) == 4

    def test_disjoint_points_are_not_extended(self, monkeypatch):
        # 20 distinct points of F_5^2 meet the whole space once each and
        # each other pair once, emptily; no meet of three is taken
        intersect, calls = vspace._intersect, []

        def counted(*args):
            calls.append(args)
            if len(calls) > 20 + 190:
                raise AssertionError("an empty meet was extended")
            return intersect(*args)

        monkeypatch.setattr(vspace, "_intersect", counted)
        points = [Coset((i % 5, i // 5), ()) for i in range(20)]
        got = count_coset_difference(vector_space_ambient(5, 2), [], points)
        assert got.count.value == 25 - 20
        assert got.poly == VFPolynomial.from_dict({(1, 0): 1, (0, 0): -20})


class TestAmbientChecks:
    """The checks on (q, dim) live in ``vspace``, so the closed forms and
    ``make_vector_space`` refuse alike."""

    @pytest.mark.parametrize("q,dim,message", [
        (6, 2, "q=6 is not a supported prime power"),
        (2, 7, "dim must be in 1..6"), (2, 0, "dim must be in 1..6"),
        (9, 6, "vector sort exceeds size budget"),
    ])
    def test_refused(self, q, dim, message):
        for build in (vector_space_ambient, make_vector_space):
            with pytest.raises(VSpaceError) as info:
                build(q, dim)
            assert str(info.value) == message

    def test_the_bound_on_the_vector_sort(self):
        assert 9 ** 5 <= MAX_VECTORS < 9 ** 6
        assert vector_space_ambient(9, 5).size == 9 ** 5
