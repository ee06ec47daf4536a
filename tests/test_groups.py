"""Group words, word images, and triple-product covering."""

import pytest

from pfdim.groups import (builtin_group, eval_word, parse_word,
                          triple_product_covers, word_arity, word_image)
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
