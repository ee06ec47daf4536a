"""One index contract for every count sequence along a family.

``count_family``, ``chain_detect``, ``fmv_spectrum`` and ``mu_D_sequence``
all loop over indices through ``families.family_sequence``: they count at
the sorted distinct indices whatever order and repeats they are given,
build one ``FamilyAt`` per index, and an error names the index it came
from and keeps its type.  The ``FamilyAt``s of one call share one memo, so
a steps list is parsed once while the signature is the same object, and a
formula is compiled once per shape of the small model.
"""

import json
import random

import pytest

from pfdim import families
from pfdim.cli import main
from pfdim.dimension import DimensionError, chain_detect, fmv_spectrum
from pfdim.families import (FamilyAt, FamilyError, count_family,
                            family_sequence, get_family)
from pfdim.measure import MeasureError, mu_D_sequence
from pfdim.parser import ParseDiagnostic

QUANTIFIED = "(exists z:S. E(x, z) & !(z = x))"   # quantifier rank 1
INDICES = [2, 3, 4, 8]


def consumers(family):
    """Each consumer as a function of its index list, with one quantified
    formula among its inputs."""
    return {
        "count_family": lambda ix: count_family(QUANTIFIED, family, ix),
        "count_family selector": lambda ix: count_family(
            "E(x, y)", family, ix, selector="class-2"),
        "chain_detect": lambda ix: chain_detect(
            family, [(QUANTIFIED, None), ("E(x, y)", "largest-class")], ix),
        "fmv_spectrum": lambda ix: fmv_spectrum(
            family, "exists z:S. E(x, z) & E(z, y)", ix),
        "mu_D_sequence": lambda ix: mu_D_sequence(
            family, QUANTIFIED, "E(x, y)", ix, x_selector="largest-class"),
    }


@pytest.mark.parametrize("seed", range(2))
def test_shuffled_repeated_indices_give_the_sorted_result(seed):
    rng = random.Random(seed)
    mixed = INDICES + rng.sample(INDICES, 2)
    rng.shuffle(mixed)
    for name, run in consumers(get_family("earlyexample")).items():
        assert run(mixed) == run(INDICES), name


def test_one_family_at_per_index(monkeypatch):
    built = []
    init = FamilyAt.__init__

    def counting_init(self, family, index):
        built.append(index)
        init(self, family, index)

    monkeypatch.setattr(FamilyAt, "__init__", counting_init)
    for name, run in consumers(get_family("earlyexample")).items():
        built.clear()
        run([3, 2, 3, 2])
        assert built == [2, 3], name


def test_errors_name_their_index_and_keep_their_type():
    family = get_family("earlyexample")
    with pytest.raises(DimensionError, match=r"^index 2: chain formula: "
                                             r"2 counted variables"):
        chain_detect(family, [("E(x, y)", None)], [3, 2])
    with pytest.raises(MeasureError, match=r"^index 4: D is empty"):
        mu_D_sequence(family, "E(x, y) & !(x = y)", "E(x, x)", [8, 4],
                      d_selector="class-1")
    with pytest.raises(FamilyError, match=r"^index 4: class 5 absent"):
        count_family("E(x, y)", family, [6, 5, 4], selector="class-5")
    stable = get_family("stablenonattainability")
    with pytest.raises(FamilyError, match=r"^index 8: 2 counted variables"):
        family_sequence(stable, [8], lambda at: at.spectrum(
            "exists z:S. E(x, z) & E(z, w)"))
    with pytest.raises(FamilyError, match=r"^index 8: 2 counted variables"):
        fmv_spectrum(stable, "exists z:S. E(x, z) & E(z, w)", [8])
    with pytest.raises(FamilyError, match=r"^index 4: .*budget exceeded"):
        count_family("exists z:S. E(x, z) & E(z, y)", stable, [8, 4],
                     budget=1)


def test_selector_parameters_cannot_collide_with_formula_variables():
    # the second step's free y1 is counted, not the first step's selector
    at = FamilyAt(get_family("earlyexample"), 3)
    (_, params), (phi, both) = at.conjunctions(
        [("E(x, y)", "class-1"), ("E(x, y1)", None)])
    assert at.counted(phi, both) == ["x", "y1"]
    assert params == both


# ---------------------------------------------------------------------------
# One request, one memo: a steps list is parsed once while its identifiers
# resolve alike under each index's signature, and a formula is compiled once
# per shape of the small model


@pytest.fixture
def calls(monkeypatch):
    """How often ``families`` parses and compiles."""
    made = {"parse_formula": 0, "compile_formula": 0}
    for name in made:
        def counting(*args, _name=name, _real=getattr(families, name)):
            made[_name] += 1
            return _real(*args)
        monkeypatch.setattr(families, name, counting)
    return made


def test_a_chain_parses_each_step_once(calls):
    chain_detect(get_family("earlyexample"),
                 [("E(x, x)", None), ("E(x, y)", "largest-class"),
                  ("!(x = y)", "class-1")], [2, 3, 4, 5, 6])
    assert calls["parse_formula"] == 3


def test_a_spectrum_compiles_once(calls):
    # one shape at every index: y, one more element of its class, and
    # one element for all the other classes
    fmv_spectrum(get_family("findelta"), "E(x, y) & !(x = y)",
                 [8, 16, 32, 64])
    assert calls == {"parse_formula": 1, "compile_formula": 1}


def test_a_request_walks_each_formula_once(monkeypatch):
    # the counted variables come from the free variables FamilyAt keeps
    walked = []
    real = families.free_variables
    monkeypatch.setattr(families, "free_variables",
                        lambda phi: walked.append(phi) or real(phi))
    family = get_family("earlyexample")
    chain_detect(family, [("E(x, x)", None), ("E(x, y)", "largest-class"),
                          ("!(x = y)", "class-1")], [2, 3, 4, 5, 6])
    assert len(walked) == 3          # one per prefix conjunction
    walked.clear()
    mu_D_sequence(family, "E(x, x)", "E(x, y)", [2, 4, 8],
                  x_selector="largest-class")
    assert len(walked) == 2
    walked.clear()
    fmv_spectrum(family, "E(x, y) & !(x = y)", [2, 4, 8])
    assert len(walked) == 1


def test_a_new_signature_is_parsed_again(calls):
    # a signature per index, but P1 and S read alike in all three, so the
    # parse from index 2 stands at 3 and 4
    family = get_family("convsupersimple")
    chain_detect(family, [("P1(x)", None)], [2, 3, 4])
    assert calls["parse_formula"] == 1
    # P8 is not a relation at index 4, so no parse from index 8 can stand
    with pytest.raises(ParseDiagnostic, match=r"^index 4: 1:1: unknown"):
        chain_detect(family, [("P8(x)", None)], [8, 4])


CONVSUPERSIMPLE_STEPS = [("P1(x) | x = x", None), ("P1(x)", None),
                         ("exists z:S. P2(z) & !(z = x)", None),
                         ("forall z:S. P2(z) -> P1(x) & P2(x)", None)]


def test_a_convsupersimple_chain_parses_each_step_once(calls):
    # a new signature at every index, but each name in the steps reads
    # alike in all of them
    family = get_family("convsupersimple")
    indices = list(range(2, 9))
    report = chain_detect(family, CONVSUPERSIMPLE_STEPS, indices)
    assert calls["parse_formula"] == len(CONVSUPERSIMPLE_STEPS)
    fresh = []
    for n in indices:
        at = FamilyAt(family, n)
        fresh.append([at.count(phi, params).log_value
                      for phi, params in at.conjunctions(
                          CONVSUPERSIMPLE_STEPS)])
    assert report.log_counts == tuple(zip(*fresh))


def test_a_name_that_becomes_a_relation_is_parsed_again(capsys):
    # P3 is a bound variable at index 2 and a relation at index 3, where
    # the fresh parse fails as it always did
    code = main(["chain", "--family", "convsupersimple", "--indices", "2,3",
                 "--step", "exists P3:S. P1(x) & !(x = P3)"])
    assert code == 1
    assert capsys.readouterr().err == (
        "parse error: index 3: 1:28: relation P3 used as a term\n")


def test_one_memo_per_request():
    family = get_family("earlyexample")
    (_, first), (_, second) = family_sequence(family, [2, 3],
                                              lambda at: at.memo)
    (_, other), = family_sequence(family, [2], lambda at: at.memo)
    assert first is second and other is not first
    assert FamilyAt(family, 2).memo is not FamilyAt(family, 2).memo


DIM_COMPARE = ["dim-compare", "--family", "stablenonattainability",
               "--formula-x", "E(x, y)", "--selector-x", "class-rank-1",
               "--formula-y", "E(x, y) & !(x = y)",
               "--selector-y", "class-rank-2"]


def test_dim_compare_builds_each_index_once(monkeypatch, capsys):
    # X and Y are one request: each index's summary is built once
    built = []
    summary = families.family_summary

    def counting(family, index):
        built.append(index)
        return summary(family, index)

    monkeypatch.setattr(families, "family_summary", counting)
    assert main(DIM_COMPARE + ["--indices", "16,8,32,8,64"]) == 0
    assert built == [8, 16, 32, 64]
    assert json.loads(capsys.readouterr().out)["classification"] == "greater"


def test_dim_compare_reports_the_error_of_x_first(capsys):
    # X is counted over every index before Y, so X's error at index 6 (P5
    # is a relation from there on) is reported, not Y's at index 2 (no P9)
    code = main(["dim-compare", "--family", "convsupersimple",
                 "--formula-x", "exists P5:S. P1(x) & !(x = P5)",
                 "--formula-y", "P9(x)", "--indices", "2,6"])
    assert code == 1
    assert capsys.readouterr().err == (
        "parse error: index 6: 1:28: relation P5 used as a term\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_chain_cli_sorts_indices_for_any_number_of_steps(capsys):
    code, out = run_cli(capsys, "chain", "--family", "earlyexample",
                        "--indices", "16,8,12,10", "--step", "E(x,x)",
                        "--step", "E(x,y)@class-1")
    assert code == 0
    assert json.loads(out)["indices"] == [8, 10, 12, 16]


def test_spectrum_cli_sorts_and_deduplicates(capsys):
    code, out = run_cli(capsys, "spectrum", "--family", "findelta",
                        "--formula", "E(x, y)", "--indices", "8,8,3")
    assert code == 0
    data = json.loads(out)
    assert data["indices"] == [3, 8]
    assert data["clusterCounts"] == [3, 8]
    assert data["unbounded"] is True
