"""Growth-rate comparison, chain detection, and spectrum clustering."""

import csv
import json
import math

import pytest

from pfdim.counting import Count, CardinalitySequence
from pfdim.dimension import (DimensionError, chain_detect, cluster_count,
                             delta_compare, export_csv, fmv_spectrum)
from pfdim.families import get_family


def seq(values, formula="phi"):
    return CardinalitySequence("testfam", formula, None,
                               tuple((i + 1, Count(v))
                                     for i, v in enumerate(values)))


class TestDeltaCompare:
    def test_greater_when_ratio_grows(self):
        X = seq([2 ** k for k in range(2, 10)])
        Y = seq([2] * 8)
        assert delta_compare(X, Y).classification == "greater"

    def test_less_is_symmetric(self):
        X = seq([2] * 8)
        Y = seq([2 ** k for k in range(2, 10)])
        assert delta_compare(X, Y).classification == "less"

    def test_equal_for_bounded_ratio(self):
        X = seq([10, 20, 40, 80, 160, 320])
        Y = seq([5, 10, 20, 40, 80, 160])
        assert delta_compare(X, Y).classification == "equal"

    def test_undetermined_for_oscillation(self):
        X = seq([1, 1000, 1, 1000, 1, 1000, 1, 1000])
        Y = seq([1000, 1, 1000, 1, 1000, 1, 1000, 1])
        assert delta_compare(X, Y).classification == "undetermined"

    @pytest.mark.parametrize("n", range(4, 9))
    def test_burn_in_is_the_first_half(self, n):
        X = seq([2 ** k for k in range(n)])
        data = delta_compare(X, seq([1] * n)).to_json_dict()
        assert len(data["indices"]) == n
        assert data["burnIn"] == n // 2

    def test_zero_counts_give_infinite_ratio(self):
        X = seq([4, 8, 16, 32])
        Y = seq([0, 0, 0, 0])
        v = delta_compare(X, Y)
        assert v.classification == "greater"
        assert all(math.isinf(r) for r in v.log_ratios)

    def test_too_few_indices_is_undetermined(self):
        v = delta_compare(seq([1, 2]), seq([1, 2]))
        assert v.classification == "undetermined"

    def test_mismatched_indices(self):
        X = seq([1, 2, 3, 4])
        Y = CardinalitySequence("testfam", "psi", None,
                                tuple((i + 2, Count(1)) for i in range(4)))
        with pytest.raises(DimensionError):
            delta_compare(X, Y)

    def test_json_export_uses_strings_for_infinities(self):
        X = seq([4, 8, 16, 32])
        Y = seq([0, 0, 0, 0])
        d = delta_compare(X, Y).to_json_dict()
        assert d["logRatios"] == ["inf"] * 4


class TestClusterCount:
    def test_gap_splitting(self):
        assert cluster_count([0.0, 0.05, 1.0, 1.1, 5.0], 0.2) == 3
        assert cluster_count([0.0, 0.05, 0.1], 0.2) == 1
        assert cluster_count([], 0.2) == 0
        assert cluster_count([3.0], 0.2) == 1

    def test_gamma_controls_resolution(self):
        vals = [0.0, 0.5, 1.0]
        assert cluster_count(vals, 0.4) == 3
        assert cluster_count(vals, 0.6) == 1


class TestChainDetect:
    def test_disjoint_classes_drop_immediately(self):
        fam = get_family("stablenonattainability")
        report = chain_detect(fam, [("E(x, y)", "class-rank-1"),
                                    ("E(x, y)", "class-rank-2")],
                              [4, 8, 16, 32])
        # the conjunction over two distinct classes is empty
        assert list(report.log_counts[1]) == [float("-inf")] * 4

    def test_nested_predicates_give_full_drop(self):
        fam = get_family("convsupersimple")
        steps = [(f"P{i}(x)", None) for i in range(1, 5)]
        report = chain_detect(fam, steps, [8, 16, 32, 64])
        assert report.drop_length == 4
        assert all(v == "greater" for v in report.verdicts)

    def test_quantifier_outside_fragment(self):
        # a sentence is counted like any formula: 1 where it holds, so
        # log-count 0 at every index; a second counted variable is refused
        fam = get_family("convsupersimple")
        report = chain_detect(fam, [("exists z:S. P1(z)", None),
                                    ("exists z:S. P1(z) & !P2(z)", None)],
                              [8, 16, 32, 64])
        assert report.log_counts == ((0.0,) * 4, (0.0,) * 4)
        with pytest.raises(DimensionError, match="2 counted variables"):
            chain_detect(fam, [("exists z:S. P1(z) & x = y", None)],
                         [8, 16, 32, 64])


class TestSpectrum:
    def test_findelta_unbounded(self):
        fam = get_family("findelta")
        report = fmv_spectrum(fam, "E(x, y)", [4, 6, 8])
        assert list(report.cluster_counts) == [4, 6, 8]
        assert report.unbounded

    def test_constant_family_bounded(self):
        fam = get_family("rank2classes")
        report = fmv_spectrum(fam, "E(x, y)", [4, 6, 8])
        assert list(report.cluster_counts) == [2, 2, 2]
        assert not report.unbounded


class TestExports:
    def test_json_roundtrips_through_loads(self):
        fam = get_family("findelta")
        report = fmv_spectrum(fam, "E(x, y)", [4, 6, 8])
        data = report.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["clusterCounts"] == [4, 6, 8]

    def test_csv_rows(self, tmp_path):
        fam = get_family("findelta")
        report = fmv_spectrum(fam, "E(x, y)", [4, 6])
        path = tmp_path / "spec.csv"
        export_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 + 6  # header plus one row per log-count

    def test_csv_refuses_a_chain(self, tmp_path):
        report = chain_detect(get_family("findelta"),
                              [("E(x, x)", None)], [4, 6])
        path = tmp_path / "chain.csv"
        with pytest.raises(DimensionError, match="cannot export ChainReport"):
            export_csv(report, str(path))
        assert not path.exists()
