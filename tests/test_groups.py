"""Group words, word images, and triple-product covering."""

import gc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from pfdim import groups
from pfdim.groups import (Group, WIdent, WInv, WMul, WVar, builtin_group,
                          eval_word, parse_word, triple_product_covers,
                          word_arity, word_image)
from pfdim.logic import PfdimError


class TestGroupTables:
    @pytest.mark.parametrize("name,order", [
        ("C1", 1), ("C6", 6), ("S3", 6), ("A4", 12), ("S4", 24),
        ("A5", 60), ("PSL(2,7)", 168),
    ])
    def test_order(self, name, order):
        G = builtin_group(name)
        assert G.n == order

    @pytest.mark.parametrize("name", ["S3", "A4", "C6"])
    def test_group_axioms(self, name):
        G = builtin_group(name)
        e = 0
        for a in range(G.n):
            assert G.mul[a][e] == a and G.mul[e][a] == a
            assert G.mul[a][G.inv[a]] == e
        for a in range(G.n):
            for b in range(G.n):
                for c in range(G.n):
                    assert (G.mul[G.mul[a][b]][c]
                            == G.mul[a][G.mul[b][c]])

    def test_unknown_group(self):
        with pytest.raises(PfdimError):
            builtin_group("M11")


class TestWords:
    def test_parse_and_arity(self):
        assert word_arity(parse_word("x*y^-1")) == 2
        assert word_arity(parse_word("[x,y]")) == 2
        assert word_arity(parse_word("x*x")) == 1

    def test_bad_word(self):
        with pytest.raises(PfdimError):
            parse_word("x**y")
        with pytest.raises(PfdimError):
            parse_word("[x,y")

    def test_eval_commutator(self):
        G = builtin_group("S3")
        w = parse_word("[x,y]")
        for a in range(G.n):
            for b in range(G.n):
                lhs = eval_word(w, G, (a, b))
                manual = G.mul[G.mul[G.mul[a][b]][G.inv[a]]][G.inv[b]]
                assert lhs == manual

    def test_no_cyclic_garbage(self):
        # the recursive descent once ran on nested closures that called
        # one another, a reference cycle left behind by every parse
        parse_word("x")
        gc.collect()
        gc.disable()
        try:
            word = parse_word("[x,y]^-1 * (z*w^-1)^-1 * [[x,z],y]")
            with pytest.raises(PfdimError):
                parse_word("[x,y")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert word_arity(word) == 4

    def test_squares_in_a5(self):
        G = builtin_group("A5")
        squares = word_image(parse_word("x*x"), G)
        assert len(squares) == 45
        covers, missing = triple_product_covers(squares, squares, squares, G)
        assert covers and missing == []

    def test_commutators_in_s3(self):
        G = builtin_group("S3")
        comm = word_image(parse_word("[x,y]"), G)
        # the image is the alternating subgroup: closed, order 3, has identity
        assert len(comm) == 3
        assert 0 in comm
        for a in comm:
            assert G.inv[a] in comm
            for b in comm:
                assert G.mul[a][b] in comm

    def test_cover_reports_missing(self):
        G = builtin_group("C6")
        cubes = word_image(parse_word("x*x*x"), G)  # {0, 3}
        covers, missing = triple_product_covers(cubes, cubes, cubes, G)
        assert not covers
        assert set(missing) == set(range(G.n)) - {G.mul[a][G.mul[b][c]]
                                                  for a in cubes
                                                  for b in cubes
                                                  for c in cubes}

    def test_image_matches_enumeration(self):
        G = builtin_group("A4")
        w = parse_word("x*y*x^-1")
        img = word_image(w, G)
        manual = {eval_word(w, G, (a, b))
                  for a in range(G.n) for b in range(G.n)}
        assert set(img) == manual


def commutator(a, b):
    return WMul(WMul(a, b), WMul(WInv(a), WInv(b)))


WORDS = st.recursive(
    st.one_of(st.builds(WVar, st.integers(1, 3)), st.just(WIdent())),
    lambda inner: st.one_of(st.builds(WInv, inner),
                            st.builds(WMul, inner, inner),
                            st.builds(commutator, inner, inner)),
    max_leaves=6)


@st.composite
def magmas(draw):
    """A table with identity 0, the inverse of 0 being 0, and any other
    products and inverses: it need not be associative, so the image shows
    the order of every product."""
    n = draw(st.integers(2, 6))
    cell = st.integers(0, n - 1)
    mul = [[a if b == 0 else b if a == 0 else draw(cell) for b in range(n)]
           for a in range(n)]
    inv = (0,) + tuple(draw(cell) for _ in range(n - 1))
    return Group(f"M{n}", n, tuple(map(tuple, mul)), inv)


# a magma in which (x*y^-1)*x has the image {0, 1, 3}, and all of M4 with
# the factors of either product swapped
M4 = Group("M4", 4, ((0, 1, 2, 3), (1, 3, 0, 1), (2, 3, 1, 2), (3, 0, 1, 0)),
           (0, 0, 0, 1))

TABLES = st.one_of(
    st.sampled_from(["S3", "A4", "S4", "C12"]).map(builtin_group), magmas())


class TestWordImageByRows:
    """``word_image`` evaluates a row of G at a time; ``eval_word``, one
    tuple at a time, is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(WORDS, TABLES)
    @example(parse_word("y*y"), builtin_group("S4"))
    @example(parse_word("z*x"), builtin_group("A4"))
    @example(parse_word("[z,x^-1]*y"), builtin_group("S3"))
    @example(parse_word("(x*y^-1)*x"), M4)
    def test_matches_tuple_enumeration(self, w, G):
        d = word_arity(w)
        want = {eval_word(w, G, a) for a in product(range(G.n), repeat=d)}
        assert word_image(w, G) == want

    def test_surjective_word_stops_after_the_first_row(self, monkeypatch):
        rows = []

        def counted(*args, **kwargs):
            for row in product(*args, **kwargs):
                rows.append(row)
                yield row

        monkeypatch.setattr(groups, "product", counted)
        G = builtin_group("S4")
        assert word_image(parse_word("x*y*z"), G) == frozenset(range(G.n))
        assert rows == [(0, 0)]
