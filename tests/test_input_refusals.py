"""Bad input exits 1 with a message: it is never reported as a failed
cross-check (exit 2), never miscounted, and never left to exhaust memory
or time."""

import json
import time

import pytest

from pfdim import families
from pfdim.abelian import (SYMBOLIC_CASE_CAP, AbelianError,
                           parse_standard_conjunction, symbolic_count)
from pfdim.cli import main
from pfdim.families import (FamilyError, MAX_SUMMARY_BITS, family_summary,
                            get_family, list_families)
from pfdim.groups import CYCLIC_ORDER_LIMIT
from pfdim.parser import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def space(tmp_path):
    def write(weights, events):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"weights": weights, "events": events}))
        return str(path)
    return write


class TestMeasureKcap:
    @pytest.mark.parametrize("k", ["0", "9"])
    def test_k_out_of_range_exits_one(self, capsys, space, k):
        path = space(["1/2", "1/2"], [[0], [1], [0, 1]])
        code, out, err = run(capsys, "measure-kcap", "--space", path, "--k", k)
        assert (code, out) == (1, "")
        assert "k must be in 1..5" in err

    def test_too_many_events_exits_one(self, capsys, space):
        path = space(["1/2", "1/2"], [[0]] * 25)
        code, out, err = run(capsys, "measure-kcap", "--space", path,
                             "--k", "2")
        assert (code, out) == (1, "")
        assert "at most 24 events" in err

    @pytest.mark.parametrize("command,arg", [("measure-kcap", ["--k", "2"]),
                                             ("pairwise-check",
                                              ["--eps", "1/2"])])
    def test_event_outside_the_space_exits_one(self, capsys, space, command,
                                               arg):
        path = space(["1/2", "1/2"], [[0], [7]])
        code, out, err = run(capsys, command, "--space", path, *arg)
        assert (code, out) == (1, "")
        assert "outside the space" in err

    def test_zero_denominator_weight_exits_one(self, capsys, space):
        path = space(["1/0", "1/2"], [[0]])
        code, out, err = run(capsys, "measure-kcap", "--space", path,
                             "--k", "1")
        assert (code, out) == (1, "")
        assert "malformed measure-space JSON" in err

    # each of these would read as [{0}, {0}, {1}, {1}], which has a witness
    # for both commands, if an atom could be anything int() accepts
    @pytest.mark.parametrize("events", [
        [[0.0], [0], [1], [1.9]], [[0], [0], [1], [True]], "0011",
        [[0], "0", [1], [1]], [[0], [0], ["1"], [1]]],
        ids=["float", "bool", "string-events", "string-event", "string-atom"])
    @pytest.mark.parametrize("command,arg", [("measure-kcap", ["--k", "2"]),
                                             ("pairwise-check",
                                              ["--eps", "1/2"])])
    def test_atom_that_is_not_an_integer_exits_one(self, capsys, space,
                                                   command, arg, events):
        path = space(["1/2", "1/2"], events)
        code, out, err = run(capsys, command, "--space", path, *arg)
        assert (code, out) == (1, "")
        assert "malformed measure-space JSON" in err

    # "1" would read as one atom of weight 1, and true or 1.0 as weight 1;
    # four events on that atom have a witness for both commands
    @pytest.mark.parametrize("weights", ["1", [True], [1.0], {"1": 1}],
                             ids=["string", "bool", "float", "object"])
    @pytest.mark.parametrize("command,arg", [("measure-kcap", ["--k", "2"]),
                                             ("pairwise-check",
                                              ["--eps", "1/2"])])
    def test_weight_that_is_not_a_rational_exits_one(self, capsys, space,
                                                     command, arg, weights):
        path = space(weights, [[0]] * 4)
        code, out, err = run(capsys, command, "--space", path, *arg)
        assert (code, out) == (1, "")
        assert "malformed measure-space JSON" in err

    @pytest.mark.parametrize("weights", [[1], ["1"], ["1/1", 0], ["0.5", "1/2"]])
    def test_integer_and_rational_string_weights_are_read(self, capsys, space,
                                                          weights):
        path = space(weights, [[0], [0]])
        code, out, err = run(capsys, "measure-kcap", "--space", path,
                             "--k", "2")
        assert code == 0, err
        assert json.loads(out)["indices"] == [0, 1]


class TestAbelianR:
    ARGS = ("abelian-count", "--p", "3", "--n", "1", "--m", "1", "--r", "2",
            "--formula", "1*x1 = 0")

    def test_exact_route_refuses_two_counted_variables(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert (code, out) == (1, "")
        assert "r = 1" in err

    def test_symbolic_route_counts_both_variables(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--symbolic")
        assert code == 0
        assert json.loads(out)["count"] == "3"


class TestSymbolicCatalogSize:
    """A catalog holds (2d + 3) regimes times each counted variable's
    nonemptiness patterns (168 for 4 negated atoms), multiplied over the
    variables; past ``SYMBOLIC_CASE_CAP`` cases it is refused before it is
    built."""

    ARGS = ("abelian-count", "--p", "2", "--n", "2", "--m", "1", "--symbolic")
    FOUR = ("!2*x1 = 0 & !div(2^1, 1*x1) & !div(2^2, 3*x1) & !1*x1 = 0 "
            "& div(2^2, 2*x1)")

    def test_under_the_cap_is_built(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--formula", self.FOUR,
                             "--d", "2")
        assert code == 0, err
        assert len(json.loads(out)["cases"]) == 7 * 168

    @pytest.mark.parametrize("argv,cases", [
        # one variable, no negation: 2 patterns times 2d + 3 regimes
        (("--formula", "1*x1 = 0", "--d", "24999"), 2 * 50001),
        (("--formula", "1*x1 = 0", "--d", "100000"), 2 * 200003),
        (("--formula", FOUR, "--d", "100000"), 168 * 200003),
        # two variables with 4 negations each: (5 * 168)^2 at d = 1
        (("--r", "2", "--d", "1", "--formula",
          "!1*x1 = 0 & !div(2^1, 1*x1) & !div(2^1, 3*x1) & !3*x1 = 0 & "
          "!1*x2 = 0 & !div(2^1, 1*x2) & !div(2^1, 3*x2) & !3*x2 = 0"),
         (5 * 168) ** 2),
    ])
    def test_over_the_cap_is_refused_at_once(self, capsys, argv, cases):
        assert cases > SYMBOLIC_CASE_CAP
        start = time.monotonic()
        code, out, err = run(capsys, *self.ARGS, *argv)
        assert (code, out) == (1, "")
        assert f"would hold {cases} cases" in err
        assert time.monotonic() - start < 2

    def test_refused_by_symbolic_count(self):
        atoms = parse_standard_conjunction("1*x1 = 0", 1, 0)
        with pytest.raises(AbelianError, match="100002 cases"):
            symbolic_count(atoms, 1, 2, 24999)


class TestThresholds:
    DIM = ("dim-compare", "--family", "earlyexample", "--formula-x", "E(x,x)",
           "--formula-y", "E(x,y)", "--selector-y", "class-1",
           "--indices", "4,8", "--tau")
    CHAIN = ("chain", "--family", "earlyexample", "--step", "E(x,x)",
             "--indices", "4,8", "--tau")
    SPECTRUM = ("spectrum", "--family", "findelta", "--formula", "E(x,y)",
                "--indices", "4,8", "--gamma")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("argv", [DIM, CHAIN, SPECTRUM])
    def test_non_finite_or_negative_exits_one(self, capsys, argv, value):
        # --flag=value, so that argparse reads "-inf" as a value
        code, out, err = run(capsys, *argv[:-1], f"{argv[-1]}={value}")
        assert (code, out) == (1, "")
        assert "finite nonnegative" in err

    @pytest.mark.parametrize("argv", [DIM, CHAIN, SPECTRUM])
    def test_zero_and_finite_values_still_run(self, capsys, argv):
        for value in ("0", "2.5"):
            code, out, _ = run(capsys, *argv, value)
            assert code == 0
            json.loads(out)


class TestHugeIndex:
    @pytest.mark.parametrize("argv", [
        ("family", "--name", "findelta", "--index", "100000",
         "--formula", "E(x,x)"),
        ("family", "--name", "stablenonattainability", "--index", "20000",
         "--formula", "E(x,x)"),
        ("spectrum", "--family", "findelta", "--formula", "E(x,y)",
         "--indices", "10000000000000000000000"),
        ("family", "--name", "convsupersimple", "--index", "10" * 12),
    ])
    def test_refused_at_once(self, capsys, monkeypatch, argv):
        # the summary is refused before any of its runs is built
        def refuse(*args, **kwargs):
            raise AssertionError("the summary's runs were built")

        monkeypatch.setattr(families, "accumulate", refuse)
        for fid in families._EQUIV_FAMILIES:
            monkeypatch.setitem(families._EQUIV_FAMILIES, fid, refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "the summary would take" in err

    def test_every_index_up_to_64_is_summarized(self):
        for fid in list_families():
            family = get_family(fid)
            for index in range(1, 65):
                family_summary(family, index)

    def test_limit_is_a_family_error(self):
        with pytest.raises(FamilyError, match=str(MAX_SUMMARY_BITS)):
            family_summary(get_family("findelta"), 10 ** 5)


class TestFindeltaSummaryOfRuns:
    # findelta's summary is n runs (n classes of each size n^i), so the
    # size guard counts n sizes of up to n^n, not n^2
    def test_index_200_counts(self, capsys):
        code, out, _ = run(capsys, "family", "--name", "findelta", "--index",
                           "200", "--formula", "E(x, x)")
        assert code == 0
        total = sum(200 * 200 ** i for i in range(1, 201))
        assert json.loads(out)["count"] == str(total)

    def test_index_10_to_the_5_is_still_refused(self):
        with pytest.raises(FamilyError, match="the summary would take"):
            family_summary(get_family("findelta"), 10 ** 5)


class TestCyclicGroupOrder:
    @pytest.mark.parametrize("group", ["C0", "C1025", "C" + "9" * 30, "C²"])
    def test_refused(self, capsys, group):
        start = time.monotonic()
        code, out, err = run(capsys, "word-image", "--group", group,
                             "--word", "x*y", "--triple")
        assert (code, out) == (1, "")
        assert group in err
        assert time.monotonic() - start < 2

    @pytest.mark.parametrize("k", [1, 12, CYCLIC_ORDER_LIMIT])
    def test_accepted_up_to_the_limit(self, capsys, k):
        code, out, _ = run(capsys, "word-image", "--group", f"C{k}",
                           "--word", "x*y", "--triple")
        assert code == 0
        assert json.loads(out)["imageSize"] == k


class TestUnknownSymbol:
    def test_chain_names_the_index_and_the_symbol(self, capsys):
        code, out, err = run(capsys, "chain", "--family", "convsupersimple",
                             "--indices", "4,8", "--step", "P8(x)")
        assert (code, out) == (1, "")
        assert "index 4: 1:1: unknown relation or function P8" in err

    @pytest.mark.parametrize("formula, where", [
        ("Q(x)", "1:1"), ("E(x, Q(y))", "1:6"), ("x = Q(y)", "1:5")])
    def test_reported_at_the_name(self, capsys, formula, where):
        code, out, err = run(capsys, "family", "--name", "findelta",
                             "--index", "4", "--formula", formula)
        assert (code, out) == (1, "")
        assert f"{where}: unknown relation or function Q" in err


class TestConstantWithArguments:
    def test_count_reports_the_constant(self, capsys, tmp_path):
        path = tmp_path / "pointed.json"
        path.write_text(json.dumps({
            "sorts": [{"name": "S", "size": 3}],
            "constants": [{"name": "c", "sort": "S", "value": 0}]}))
        code, out, err = run(capsys, "count", "--structure", str(path),
                             "--formula", "c(x) = x", "--count-vars", "x")
        assert (code, out) == (1, "")
        assert "1:1: constant c takes no arguments" in err


class TestRelationNamedLikeAToken:
    """A structure file may name a relation "" or "=": the name is never
    read in place of the end of the text or of a symbol."""

    @pytest.mark.parametrize("name", ["", "=", ")", "&"])
    @pytest.mark.parametrize("formula,message", [
        ("", "1:1: expected atom, found 'end of input'"),
        ("x = y &", "1:8: expected atom, found 'end of input'"),
        ("=(x)", "1:1: expected atom, found '='"),
        ("x = x & )(x)", "1:9: expected atom, found ')'"),
    ])
    def test_parse_error(self, capsys, tmp_path, name, formula, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "sorts": [{"name": "S", "size": 2}],
            "relations": [{"name": name, "sorts": ["S"], "tuples": [[0]]}]}))
        code, out, err = run(capsys, "count", "--structure", str(path),
                             "--formula", formula, "--count-vars", "x")
        assert (code, out) == (1, "")
        assert err == f"parse error: {message} (expected relation, term)\n"


class TestRepeatedFix:
    """A variable fixed twice is refused, not counted at its last value."""

    @pytest.mark.parametrize("fix", [["--fix", "y=1", "--fix", "y=2"],
                                     ["--fix", "y=1,y=3"],
                                     ["--fix", "y=1", "--fix", "y=1"]])
    def test_refused(self, capsys, tmp_path, fix):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "sorts": [{"name": "S", "size": 4}],
            "relations": [{"name": "E", "sorts": ["S", "S"],
                           "tuples": [[0, 1], [0, 2]]}]}))
        code, out, err = run(capsys, "count", "--structure", str(path),
                             "--formula", "E(x,y)", "--count-vars", "x",
                             *fix)
        assert (code, out) == (1, "")
        assert "variables fixed more than once: ['y']" in err


class TestStructureFile:
    """A size, a tuple entry, a table entry or a constant value that is not
    a JSON integer is refused, not truncated or read digit by digit; so is
    a name that is not a JSON string, or sorts that are not a list of
    them."""

    E = {"name": "E", "sorts": ["S", "S"], "tuples": [[0, 1]]}

    @pytest.mark.parametrize("data", [
        {"sorts": [{"name": "S", "size": 2.9}],
         "relations": [{"name": "E", "sorts": ["S", "S"],
                        "tuples": [[0, 1.7], [True, "0"]]}]},
        {"sorts": [{"name": "S", "size": 2.5}], "relations": [E]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, tuples=[[0, 1.0]])]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, tuples=[[True, 0]])]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, tuples=[["0", 1]])]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, tuples=["01"])]},
        {"sorts": [{"name": "S", "size": 2}], "relations": [E],
         "functions": [{"name": "f", "argSorts": ["S"], "resultSort": "S",
                        "table": [[0, 1.0], [1, 0]]}]},
        {"sorts": [{"name": "S", "size": 2}], "relations": [E],
         "constants": [{"name": "c", "sort": "S", "value": True}]},
    ], ids=["mixed", "size", "float-entry", "bool-entry", "string-entry",
            "string-tuple", "table-entry", "constant-value"])
    def test_entry_that_is_not_an_integer_exits_one(self, capsys, tmp_path,
                                                    data):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "count", "--structure", str(path),
                             "--formula", "E(x, y)", "--count-vars", "x,y")
        assert (code, out) == (1, "")
        assert "malformed structure file" in err

    # a list name is unhashable, "SS" would read as ["S", "S"], and 5 or a
    # list sort would be kept as a name the parser can never write
    @pytest.mark.parametrize("data", [
        {"sorts": [{"name": ["S"], "size": 2}]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, sorts="SS")]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, name=5)]},
        {"sorts": [{"name": "S", "size": 2}],
         "relations": [dict(E, sorts=[["S"], "S"])]},
        {"sorts": [{"name": "S", "size": 2}],
         "functions": [{"name": "f", "argSorts": "S", "resultSort": "S",
                        "table": [[0, 1], [1, 0]]}]},
        {"sorts": [{"name": "S", "size": 2}],
         "functions": [{"name": "f", "argSorts": ["S"], "resultSort": ["S"],
                        "table": [[0, 1], [1, 0]]}]},
        {"sorts": [{"name": "S", "size": 2}],
         "constants": [{"name": None, "sort": "S", "value": 0}]},
        {"sorts": [{"name": "S", "size": 2}],
         "constants": [{"name": "c", "sort": 0, "value": 0}]},
    ], ids=["sort-name", "string-sorts", "relation-name", "list-sort",
            "string-arg-sorts", "result-sort", "constant-name",
            "constant-sort"])
    def test_name_that_is_not_a_string_exits_one(self, capsys, tmp_path,
                                                 data):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "count", "--structure", str(path),
                             "--formula", "x = x", "--count-vars", "x")
        assert (code, out) == (1, "")
        assert "malformed structure file" in err


class TestFamilyOptions:
    """``family`` without ``--formula`` prints the structure, so the options
    of a count are refused there, and a count is never written to --out."""

    @pytest.mark.parametrize("extra,message", [
        (["--selector", "nonsense"], "--selector and --budget need --formula"),
        (["--budget", "5"], "--selector and --budget need --formula"),
        (["--formula", ""], "parse error"),
    ])
    def test_ignored_option_exits_one(self, capsys, extra, message):
        code, out, err = run(capsys, "family", "--name", "earlyexample",
                             "--index", "2", *extra)
        assert (code, out) == (1, "")
        assert message in err

    def test_count_refuses_out(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "family", "--name", "earlyexample",
                             "--index", "2", "--formula", "E(x, x)",
                             "--out", str(path))
        assert (code, out) == (1, "")
        assert "--out writes the structure" in err
        assert not path.exists()

    def test_structure_and_count_still_run(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        assert run(capsys, "family", "--name", "earlyexample", "--index", "2",
                   "--out", str(path))[:2] == (0, "")
        assert json.loads(path.read_text())["sorts"][0]["size"] == 5
        code, out, _ = run(capsys, "family", "--name", "earlyexample",
                           "--index", "2", "--formula", "E(x, x)",
                           "--out", "-")
        assert (code, json.loads(out)["count"]) == (0, "5")


class TestEmptyIndexList:
    @pytest.mark.parametrize("indices", [",", "", " , "])
    @pytest.mark.parametrize("argv", [
        ["dim-compare", "--family", "earlyexample", "--formula-x", "E(x, x)",
         "--formula-y", "E(x, x)"],
        ["chain", "--family", "earlyexample", "--step", "E(x, x)"],
        ["spectrum", "--family", "earlyexample", "--formula", "E(x, y)"],
    ])
    def test_refused(self, capsys, argv, indices):
        code, out, err = run(capsys, *argv, "--indices", indices)
        assert (code, out) == (1, "")
        assert "names no index" in err

    def test_vs_count_keeps_an_empty_vector_list(self, capsys):
        code, out, _ = run(capsys, "vs-count", "--q", "2", "--dim", "2",
                           "--w", ",", "--wprime", "")
        assert (code, json.loads(out)["count"]) == (0, "4")


@pytest.mark.parametrize("index,rank", [(3, 4), (3, 5), (2, 8)])
def test_class_rank_above_the_index_is_absent(capsys, index, rank):
    code, out, err = run(capsys, "family", "--name", "stablenonattainability",
                         "--index", str(index), "--formula", "E(x, y)",
                         "--selector", f"class-rank-{rank}")
    assert (code, out) == (1, "")
    assert f"class rank {rank} absent at index {index}" in err


class TestNestingBound:
    """A formula may nest ``MAX_NESTING`` deep: parentheses, ``!``,
    binders, each connective of a chain, function applications and the
    conjunction of chain steps all count.  One level more is a parse error
    at the construct that crosses the bound, never a RecursionError."""

    N = MAX_NESTING

    @pytest.fixture
    def files(self, tmp_path):
        # one element, so nested binders stay within the budget
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            "sorts": [{"name": "S", "size": 1}],
            "relations": [{"name": "E", "sorts": ["S", "S"],
                           "tuples": [[0, 0]]}]}))
        cycle = tmp_path / "cycle.json"
        cycle.write_text(json.dumps({
            "sorts": [{"name": "S", "size": 3}],
            "relations": [{"name": "E", "sorts": ["S", "S"],
                           "tuples": [[0, 1], [1, 2]]}],
            "functions": [{"name": "f", "argSorts": ["S"], "resultSort": "S",
                           "table": [[0, 1], [1, 2], [2, 0]]}]}))
        return {"one": str(one), "cycle": str(cycle)}

    FAMILY = ["family", "--name", "findelta", "--index", "8",
              "--selector", "class-level-1", "--formula"]

    @staticmethod
    def chain(op, n):
        return f" {op} ".join(["E(x, y)"] * (n + 1))

    SHAPES = {
        "parentheses": lambda n: "(" * n + "E(x, y)" + ")" * n,
        "negations": lambda n: "!" * n + "E(x, y)",
        "conjunction": lambda n: TestNestingBound.chain("&", n),
        "disjunction": lambda n: TestNestingBound.chain("|", n),
        "implication": lambda n: TestNestingBound.chain("->", n),
        "mixed": lambda n: ("(" * (n // 4) + "!" * (n // 4)
                            + TestNestingBound.chain("&", n - n // 2)
                            + ")" * (n // 4)),
    }

    def argv(self, shape, n, files):
        if shape == "binders":
            return ["count", "--structure", files["one"], "--count-vars",
                    "x,y", "--formula", "exists z:S. " * n + "E(x, y)"]
        if shape == "functions":
            return ["count", "--structure", files["cycle"], "--count-vars",
                    "x,y", "--formula", "f(" * n + "x" + ")" * n + " = y"]
        if shape == "chain steps":
            return (["chain", "--family", "findelta", "--indices", "8,9,10,11"]
                    + ["--step", "E(x, y)@class-level-1"] * (n + 1))
        return self.FAMILY + [self.SHAPES[shape](n)]

    ALL = sorted(SHAPES) + ["binders", "functions", "chain steps"]

    @pytest.mark.parametrize("shape", ALL)
    def test_at_the_bound_counts(self, capsys, files, shape):
        code, out, err = run(capsys, *self.argv(shape, self.N, files))
        assert (code, err) == (0, "")
        assert json.loads(out)

    @pytest.mark.parametrize("shape", ALL)
    def test_past_the_bound_is_a_parse_error(self, capsys, files, shape):
        code, out, err = run(capsys, *self.argv(shape, self.N + 1, files))
        assert (code, out) == (1, "")
        assert err.startswith("parse error: ")
        assert f"formula nested deeper than {self.N} levels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shape, where", [
        ("parentheses", f"1:{MAX_NESTING + 1}"),
        ("negations", f"1:{MAX_NESTING + 1}"),
        ("conjunction", f"1:{10 * MAX_NESTING + 9}"),
        ("chain steps", "index 8: 1:1")])
    def test_reported_where_the_bound_is_crossed(self, capsys, files, shape,
                                                 where):
        code, _, err = run(capsys, *self.argv(shape, self.N + 1, files))
        assert code == 1
        assert err == (f"parse error: {where}: formula nested deeper than "
                       f"{self.N} levels\n")

    @pytest.mark.parametrize("argv", [
        FAMILY + ["(" * 250 + "E(x, y)" + ")" * 250],
        FAMILY + ["!" * 1000 + "E(x, y)"],
        FAMILY + [" & ".join(["E(x, y)"] * 1000)],
        ["chain", "--family", "findelta", "--indices", "8,9,10,11"]
        + ["--step", "E(x, y)@class-level-1"] * 1000,
        ["spectrum", "--family", "findelta", "--indices", "8", "--formula",
         "exists z:S. " * 400 + "E(x, y)"],
    ], ids=["250-parentheses", "1000-negations", "1000-atoms", "1000-steps",
            "400-binders"])
    def test_far_past_the_bound(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("parse error: ")

    def test_count_of_a_2000_atom_disjunction(self, capsys, files):
        code, out, err = run(capsys, "count", "--structure", files["one"],
                             "--count-vars", "x,y", "--formula",
                             " | ".join(["E(x, y)"] * 2000))
        assert (code, out) == (1, "")
        assert err.startswith("parse error: ")
