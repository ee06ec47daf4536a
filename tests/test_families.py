"""Structure families: generation, summaries, counting on the small
model."""

import itertools
import math

import pytest

from pfdim.counting import count
from pfdim.families import (FamilyAt, FamilyError, _block_count,
                            count_family, family_signature,
                            family_summary, generate, get_family,
                            list_families, make_homocyclic,
                            make_vector_space)
from pfdim.logic import free_variables, sort_check
from pfdim.parser import parse_formula


FAMILY_IDS = ["earlyexample", "stablenonattainability", "findelta",
              "rank2classes", "convsupersimple"]


class TestCatalog:
    def test_listing(self):
        listed = list_families()
        for fid in FAMILY_IDS:
            assert fid in listed

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            get_family("nosuchfamily")

    def test_every_listed_family_and_no_other_is_known(self):
        assert sorted(list_families()) == sorted(FAMILY_IDS)
        for fid in FAMILY_IDS:
            assert get_family(fid).family_id == fid

    def test_equivalence_families_share_one_signature(self):
        sigs = [family_signature(get_family(fid), index)
                for fid in FAMILY_IDS if fid != "convsupersimple"
                for index in (3, 64)]
        assert all(sig is sigs[0] for sig in sigs)
        conv = family_signature(get_family("convsupersimple"), 3)
        assert sorted(conv.relations) == ["P1", "P2", "P3"]


class TestSummaries:
    def test_earlyexample_class_sizes(self):
        s = family_summary(get_family("earlyexample"), 4)
        assert sorted(s.class_sizes) == [1, 4, 9, 16]

    def test_stablenonattainability_class_sizes(self):
        s = family_summary(get_family("stablenonattainability"), 3)
        assert sorted(s.class_sizes) == sorted(3 ** i for i in range(1, 4))

    def test_findelta_class_sizes(self):
        s = family_summary(get_family("findelta"), 3)
        # 3 copies each of 3^1, 3^2, 3^3
        assert sorted(s.class_sizes) == sorted([3, 3, 3, 9, 9, 9, 27, 27, 27])

    def test_rank2classes_class_sizes(self):
        s = family_summary(get_family("rank2classes"), 4)
        assert sorted(s.class_sizes) == [4, 4, 4, 4, 16]

    def test_convsupersimple_pred_sizes(self):
        s = family_summary(get_family("convsupersimple"), 4)
        assert s.total == 4 ** 4
        assert list(s.pred_sizes) == [4 ** 3, 4 ** 2, 4 ** 1, 4 ** 0]


EQUIV_IDS = [fid for fid in FAMILY_IDS if fid != "convsupersimple"]


class TestSummaryLayout:
    """Classes are laid out one after another in ``class_sizes`` order; the
    prefix sums behind ``total`` and ``element`` must say the same."""

    @pytest.mark.parametrize("fid, index", [
        *((fid, n) for fid in EQUIV_IDS for n in range(1, 9)),
        ("findelta", 64)])
    def test_starts_are_plain_sums(self, fid, index):
        s = family_summary(get_family(fid), index)
        sizes = s.class_sizes
        assert s.total == sum(sizes)
        for ci, size in enumerate(sizes):
            start = sum(sizes[:ci])
            for off in {0, size // 2, size - 1}:
                assert s.element(ci, off).global_id == start + off

    @pytest.mark.parametrize("ci", [-1, 4])
    def test_class_index_out_of_range(self, ci):
        s = family_summary(get_family("earlyexample"), 4)
        with pytest.raises(FamilyError, match="class index out of range"):
            s.element(ci)

    @pytest.mark.parametrize("n", [*range(1, 13), 64])
    def test_findelta_sizes(self, n):
        s = family_summary(get_family("findelta"), n)
        assert s.runs == tuple((n ** i, n) for i in range(1, n + 1))
        assert s.class_sizes == tuple(
            n ** i for i in range(1, n + 1) for _ in range(n))


class TestGenerateMatchesSummary:
    @pytest.mark.parametrize("fid", ["earlyexample", "stablenonattainability",
                                     "findelta", "rank2classes"])
    def test_equivalence_classes(self, fid):
        idx = 3
        M = generate(fid, idx)
        E = M.relations["E"]
        n = M.sizes[next(iter(M.sizes))]
        classes = {}
        for a in range(n):
            root = min(b for b in range(n) if (a, b) in E)
            classes.setdefault(root, set()).add(a)
        sizes = sorted(len(c) for c in classes.values())
        assert sizes == sorted(family_summary(get_family(fid), idx).class_sizes)

    def test_convsupersimple_nesting(self):
        M = generate("convsupersimple", 3)
        p1 = {t[0] for t in M.relations["P1"]}
        p2 = {t[0] for t in M.relations["P2"]}
        p3 = {t[0] for t in M.relations["P3"]}
        assert p3 <= p2 <= p1
        assert (len(p1), len(p2), len(p3)) == (9, 3, 1)


class TestAggregateCounting:
    @pytest.mark.parametrize("fid,formula,selector", [
        ("earlyexample", "E(x, y)", "largest-class"),
        ("earlyexample", "E(x, y)", "class-2"),
        ("stablenonattainability", "E(x, y)", "class-rank-1"),
        ("stablenonattainability", "!(E(x, y))", "class-rank-2"),
        ("findelta", "E(x, y)", "class-level-1"),
        ("rank2classes", "E(x, y)", "big-class"),
        ("rank2classes", "E(x, y) & !E(x, x) | E(x, y)", "small-class"),
        ("convsupersimple", "P1(x) & !(P2(x))", None),
        ("convsupersimple", "P2(x)", None),
    ])
    def test_agrees_with_engine_at_small_indices(self, fid, formula, selector):
        fam = get_family(fid)
        for idx in (3, 4):
            at = FamilyAt(fam, idx)
            phi = parse_formula(formula, at.signature)
            params = at.selector(selector) if selector else {}
            M = generate(fid, idx)
            fixed = {k: v.global_id for k, v in params.items()}
            counted = [n for n, _ in free_variables(phi) if n not in fixed]
            agg = _block_count(at.summary, phi, params)
            assert not isinstance(agg, str)
            assert agg.value == count(phi, M, fixed, counted).value

    def test_aggregate_reaches_unmaterializable_index(self):
        fam = get_family("stablenonattainability")
        # index 64 has 64^1 + ... + 64^64 elements, still counted exactly
        seq = count_family("E(x, y)", fam, [64], selector="class-rank-1")
        assert seq.points[0][1].value == 64 ** 63

    def test_engine_fallback_for_quantified_formula(self):
        fam = get_family("earlyexample")
        seq = count_family("exists z:S. (E(x, z) & E(z, y))", fam, [3])
        c = seq.points[0][1]
        M = generate("earlyexample", 3)
        sig = family_signature(fam, 3)
        phi = parse_formula("exists z:S. (E(x, z) & E(z, y))", sig)
        assert c.value == count(phi, M, {}, ["x", "y"]).value

    def test_selector_errors(self):
        fam = get_family("earlyexample")
        with pytest.raises(FamilyError):
            FamilyAt(fam, 3).selector("class-99")
        with pytest.raises(FamilyError):
            FamilyAt(fam, 3).selector("nonsense")


class TestSpectrum:
    def test_findelta_distinct_logcounts(self):
        fam = get_family("findelta")
        logs = FamilyAt(fam, 4).spectrum("E(x, y)")
        assert logs == sorted(logs)
        assert len(logs) == 4
        expected = sorted(math.log(4 ** i) for i in range(1, 5))
        assert logs == pytest.approx(expected)


class TestAlgebraicStructures:
    def test_homocyclic_is_group(self):
        M = make_homocyclic(3, 1, 2)
        n = M.sizes["G"]
        assert n == 9
        add, neg = M.functions["add"], M.functions["neg"]
        zero = M.constants["zero"]
        for a in range(n):
            assert add[(a, zero)] == a
            assert add[(a, neg[(a,)])] == zero
            for b in range(n):
                assert add[(a, b)] == add[(b, a)]

    def test_homocyclic_order_cap(self):
        with pytest.raises(FamilyError):
            make_homocyclic(2, 11, 1)

    def test_vector_space_sorts(self):
        M = make_vector_space(2, 3)
        assert M.sizes["K"] == 2
        assert M.sizes["V"] == 8


class TestHomocyclicPrimeCheck:
    @pytest.mark.parametrize("p", [1, 4, 47053, 1600880117])
    def test_composites_rejected(self, p):
        with pytest.raises(FamilyError, match="not prime"):
            make_homocyclic(p, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 31])
    def test_small_primes_accepted(self, p):
        assert make_homocyclic(p, 1, 1).sizes["G"] == p

    def test_beyond_the_limit_rejected(self):
        with pytest.raises(FamilyError, match="decided only below"):
            make_homocyclic(10 ** 25, 1, 1)


class TestHomocyclicIdLayout:
    @pytest.mark.parametrize("p, n, m", [(2, 2, 3), (3, 1, 2), (3, 2, 2),
                                         (5, 1, 3), (2, 3, 2), (7, 1, 1)])
    def test_tables_are_coordinatewise_mod_p_to_the_n(self, p, n, m):
        # id = sum c_i (p^n)^i: the first coordinate is least significant
        M = make_homocyclic(p, n, m)
        mod = p ** n

        def ident(coords):
            return sum(c * mod ** i for i, c in enumerate(coords))

        tuples = list(itertools.product(range(mod), repeat=m))
        assert sorted(map(ident, tuples)) == list(range(M.sizes["G"]))
        add, neg = M.functions["add"], M.functions["neg"]
        for a in tuples:
            assert neg[(ident(a),)] == ident([(-x) % mod for x in a])
            for b in tuples:
                assert add[(ident(a), ident(b))] == ident(
                    [(x + y) % mod for x, y in zip(a, b)])
