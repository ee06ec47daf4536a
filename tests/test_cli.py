"""Command-line interface: JSON output, exit codes, golden results."""

import contextlib
import enum
import gc
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pfdim.cli import _emit, main
from pfdim.families import get_family
from pfdim.measure import mu_D_sequence

QUANTIFIED = "exists z:S. E(x, z) & E(z, y)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "sorts": [{"name": "S", "size": 5}],
        "relations": [{"name": "E", "sorts": ["S", "S"],
                       "tuples": [[i, (i + 1) % 5] for i in range(5)]}],
    }))
    return str(path)


class TestCount:
    def test_exact_count(self, capsys, structure_file):
        code, out, _ = run(capsys, "count", "--structure", structure_file,
                           "--formula", "E(x, y)", "--count-vars", "x,y")
        assert code == 0
        assert json.loads(out)["count"] == "5"

    def test_fixed_parameter(self, capsys, structure_file):
        code, out, _ = run(capsys, "count", "--structure", structure_file,
                           "--formula", "E(x, y)", "--count-vars", "x",
                           "--fix", "y=1")
        assert code == 0
        assert json.loads(out)["count"] == "1"

    def test_parse_error_exits_one(self, capsys, structure_file):
        code, _, err = run(capsys, "count", "--structure", structure_file,
                           "--formula", "E(x", "--count-vars", "x")
        assert code == 1
        assert err.strip()

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "count", "--structure", "/nonexistent",
                           "--formula", "E(x, y)", "--count-vars", "x,y")
        assert code == 1
        assert err.strip()


class TestFamily:
    def test_count_with_selector(self, capsys):
        code, out, _ = run(capsys, "family", "--name", "stablenonattainability",
                           "--index", "8", "--formula", "E(x, y)",
                           "--selector", "class-rank-1")
        assert code == 0
        assert json.loads(out)["count"] == str(8 ** 7)

    def test_unknown_family_exits_one(self, capsys):
        code, _, err = run(capsys, "family", "--name", "bogus", "--index", "3",
                           "--formula", "E(x, y)")
        assert code == 1
        assert err.strip()


class TestDimension:
    def test_dim_compare_greater(self, capsys):
        code, out, _ = run(capsys, "dim-compare", "--family",
                           "stablenonattainability",
                           "--formula-x", "E(x, y)", "--selector-x",
                           "class-rank-1",
                           "--formula-y", "E(x, y)", "--selector-y",
                           "class-rank-2",
                           "--indices", "8,16,32,64")
        assert code == 0
        assert json.loads(out)["classification"] == "greater"

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "--family", "convsupersimple",
                           "--step", "P1(x)", "--step", "P2(x)",
                           "--step", "P3(x)", "--step", "P4(x)",
                           "--indices", "8,16,32,64")
        assert code == 0
        assert json.loads(out)["dropLength"] == 4

    def test_spectrum_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "spectrum.csv"
        code, out, _ = run(capsys, "spectrum", "--family", "findelta",
                           "--formula", "E(x, y)", "--indices", "4,6,8",
                           "--csv", str(csv_path))
        assert code == 0
        data = json.loads(out)
        assert data["unbounded"] is True
        assert csv_path.exists()


class TestOracles:
    def test_abelian_count(self, capsys):
        code, out, _ = run(capsys, "abelian-count", "--p", "2", "--n", "2",
                           "--m", "1", "--r", "1", "--s", "1",
                           "--formula", "2*x1 + 1*y1 = 0", "--param", "2")
        assert code == 0
        assert json.loads(out)["count"] == "2"

    def test_abelian_symbolic(self, capsys):
        code, out, _ = run(capsys, "abelian-count", "--p", "2", "--n", "1",
                           "--m", "1", "--r", "1", "--s", "0",
                           "--formula", "1*x1 = 0", "--symbolic")
        assert code == 0
        assert json.loads(out)["cases"]

    @pytest.mark.parametrize("n,m", [("0", "1"), ("1", "0"), ("-1", "2")])
    def test_abelian_symbolic_refuses_empty_group(self, capsys, n, m):
        # bad input is refused before the guard check, whose failure would
        # mean a defect in the catalog
        code, out, err = run(capsys, "abelian-count", "--p", "2", "--n", n,
                             "--m", m, "--r", "1", "--s", "0",
                             "--formula", "1*x1 = 0", "--symbolic")
        assert code == 1
        assert out == ""
        assert err.strip() == "error: need n >= 1 and m >= 1"

    def test_vs_count(self, capsys):
        code, out, _ = run(capsys, "vs-count", "--q", "2", "--dim", "3",
                           "--w", "1", "--wprime", "")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == "7"
        assert data["firstDisjunct"]["count"] == "6"

    def test_word_image(self, capsys):
        code, out, _ = run(capsys, "word-image", "--group", "A5",
                           "--word", "x*x", "--triple")
        assert code == 0
        data = json.loads(out)
        assert data["imageSize"] == 45
        assert data["tripleProductCovers"] is True


class TestMeasureCommands:
    def test_kcap_witness(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "weights": ["1/4", "1/4", "1/4", "1/4"],
            "events": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [1, 3]],
        }))
        code, out, _ = run(capsys, "measure-kcap", "--space", str(path),
                           "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert len(data["indices"]) == 2

    def test_pairwise_check(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "weights": ["1/3", "1/3", "1/3"],
            "events": [[i % 3] for i in range(9)],
        }))
        code, out, _ = run(capsys, "pairwise-check", "--space", str(path),
                           "--eps", "1/3")
        assert code == 0
        assert len(json.loads(out)["pair"]) == 2

    def test_hypothesis_failure_exits_one(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "weights": ["1/2", "1/2"],
            "events": [[0]],
        }))
        code, _, err = run(capsys, "pairwise-check", "--space", str(path),
                           "--eps", "1/2")
        assert code == 1
        assert err.strip()


class TestArgHandling:
    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1


class TestUnseenEquality:
    def test_count_matches_brute_force(self, capsys, structure_file):
        from pfdim.counting import evaluate
        from pfdim.logic import load_structure
        from pfdim.parser import parse_formula

        text = "x = y | E(x, y)"
        code, out, err = run(capsys, "count", "--structure", structure_file,
                             "--formula", text, "--count-vars", "x,y")
        assert code == 0, err
        M = load_structure(structure_file)
        phi = parse_formula(text, M.signature)
        expected = sum(evaluate(phi, M, {"x": a, "y": b})
                       for a in range(5) for b in range(5))
        assert json.loads(out)["count"] == str(expected) == "10"


class TestRemovedOptions:
    SUBCOMMANDS = ("count", "family", "dim-compare", "chain", "spectrum",
                   "abelian-count", "vs-count", "measure-kcap",
                   "pairwise-check", "word-image")

    def test_help_lists_no_removed_option(self, capsys):
        assert main(["--help"]) == 0
        assert "--seed" not in capsys.readouterr().out
        for cmd in self.SUBCOMMANDS:
            assert main([cmd, "--help"]) == 0
            text = capsys.readouterr().out
            assert "--workers" not in text
            if cmd in ("chain", "spectrum"):
                assert "--budget" not in text

    def test_removed_options_exit_one(self, capsys, structure_file):
        assert main(["--seed", "1", "count", "--structure", structure_file,
                     "--formula", "E(x, y)", "--count-vars", "x,y"]) == 1
        assert main(["count", "--structure", structure_file, "--formula",
                     "E(x, y)", "--count-vars", "x,y", "--workers", "2"]) == 1


class TestDimCompareIndices:
    def test_unsorted_duplicate_indices_match_sorted(self, capsys):
        args = ["dim-compare", "--family", "stablenonattainability",
                "--formula-x", "E(x, y)", "--selector-x", "class-rank-1",
                "--formula-y", "E(x, y)", "--selector-y", "class-rank-2"]
        code, sorted_out, _ = run(capsys, *args, "--indices", "8,16,32,64")
        assert code == 0
        code, shuffled_out, _ = run(capsys, *args,
                                    "--indices", "32,8,64,16,8")
        assert code == 0
        assert shuffled_out == sorted_out


class TestFixedValidation:
    def test_fixed_value_outside_sort_exits_one(self, capsys, structure_file):
        code, out, err = run(capsys, "count", "--structure", structure_file,
                             "--formula", "E(x, y)", "--count-vars", "x",
                             "--fix", "y=99")
        assert code == 1
        assert out == ""
        assert "y=99" in err and "outside sort S" in err

    def test_fixed_variable_not_free_exits_one(self, capsys, structure_file):
        code, out, err = run(capsys, "count", "--structure", structure_file,
                             "--formula", "E(x, y)", "--count-vars", "x,y",
                             "--fix", "z=1")
        assert code == 1
        assert out == ""
        assert "not free in the formula: ['z']" in err

    def test_duplicate_counted_variable_exits_one(self, capsys,
                                                  structure_file):
        code, out, err = run(capsys, "count", "--structure", structure_file,
                             "--formula", "E(x, y)", "--count-vars", "x,x,y")
        assert code == 1
        assert out == ""
        assert "counted more than once: ['x']" in err

    def test_selector_parameter_absent_from_formula(self, capsys):
        # the selector's y is not free in the formula, so it is dropped
        # and x alone is counted
        from pfdim.counting import count
        from pfdim.families import generate, get_family, family_signature
        from pfdim.parser import parse_formula

        text = "exists z:S. (E(x, z) & !(z = x))"
        code, out, err = run(capsys, "family", "--name",
                             "stablenonattainability", "--index", "3",
                             "--formula", text, "--selector", "class-rank-1")
        assert code == 0, err
        sig = family_signature(get_family("stablenonattainability"), 3)
        M = generate("stablenonattainability", 3)
        expected = count(parse_formula(text, sig), M, {}, ["x"]).value
        assert json.loads(out)["count"] == str(expected)


class TestWordImageBudget:
    def test_zero_budget_exits_one(self, capsys):
        code, out, err = run(capsys, "word-image", "--group", "S3",
                             "--word", "x*x", "--budget", "0")
        assert code == 1
        assert out == ""
        assert "exceeds budget" in err

    def test_default_budget_still_applies(self, capsys):
        code, out, _ = run(capsys, "word-image", "--group", "S3",
                           "--word", "x*x")
        assert code == 0
        assert json.loads(out)["imageSize"] == 3


class TestParserReuse:
    def test_build_parser_returns_a_fresh_parser(self):
        from pfdim.cli import build_parser
        assert build_parser() is not build_parser()

    def test_no_state_carries_over_between_calls(self, capsys,
                                                 structure_file):
        # --fix appends to a list: a reused parser must start it afresh
        code, out, _ = run(capsys, "count", "--structure", structure_file,
                           "--formula", "E(x, y)", "--count-vars", "x",
                           "--fix", "y=1")
        assert (code, json.loads(out)["count"]) == (0, "1")
        code, _, err = run(capsys, "count", "--structure", structure_file,
                           "--formula", "E(x, y)", "--count-vars", "x")
        assert code == 1
        assert "unassigned free variables: ['y']" in err


def through_top_parser(argv):
    """What ``argparse`` makes of ``argv`` through a fresh top parser:
    the namespace or exit code, and what it wrote."""
    from pfdim.cli import build_parser
    return parsed(build_parser().parse_args, argv)


def parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """A known subcommand's arguments go straight to its own parser; the
    namespace, usage text and exit code are those of the top parser."""

    @pytest.mark.parametrize("argv", [
        [], ["nosuch"], ["family"], ["--help"], ["family", "--help"],
        ["family", "--nam", "findelta", "--ind", "8", "--formula", "E(x, x)"],
        ["family", "--name", "findelta", "--index", "8", "stray", "--bogus"],
        ["family", "--index", "eight"], ["fam"], ["--", "family"],
        ["chain", "--family", "earlyexample", "--indices", "2,3",
         "--step", "E(x, y)@class-1", "--step", "x = x"],
        ["word-image", "--group", "S3", "--word", "x*y", "--triple"]])
    def test_same_as_the_top_parser(self, argv):
        from pfdim.cli import _parse_args
        assert parsed(_parse_args, argv) == through_top_parser(argv)

    @pytest.mark.parametrize("argv,code", [
        ([], 1), (["nosuch"], 1), (["family"], 1), (["--help"], 0),
        (["family", "--help"], 0)])
    def test_exit_codes(self, capsys, argv, code):
        assert main(argv) == code
        out, err = capsys.readouterr()
        _, top_out, top_err = through_top_parser(argv)
        assert (out, err) == (top_out, top_err)

    def test_an_abbreviated_option(self, capsys):
        code, out, _ = run(capsys, "family", "--nam", "findelta", "--ind",
                           "8", "--form", "E(x, y)", "--sel", "class-level-1")
        assert code == 0
        assert json.loads(out)["count"] == "8"


class TestParserBuild:
    """A known subcommand builds only its own parser; the top parser is
    built for the fallback alone."""

    def test_a_known_command_builds_only_its_parser(self, capsys):
        from pfdim import cli
        cli._top_parser.cache_clear()
        cli._command_parser.cache_clear()
        code, out, _ = run(capsys, "word-image", "--group", "S3", "--word",
                           "x*x")
        assert code == 0 and json.loads(out)["imageSize"] == 3
        assert cli._top_parser.cache_info().currsize == 0
        assert cli._command_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("argv", [
        [], ["nosuch"], ["--help"], ["family", "--name", "findelta",
                                     "--index", "8", "stray"]])
    def test_the_fallback_builds_the_top_parser(self, capsys, argv):
        from pfdim import cli
        cli._top_parser.cache_clear()
        main(argv)
        capsys.readouterr()
        assert cli._top_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("name", [
        "count", "family", "dim-compare", "chain", "spectrum",
        "abelian-count", "vs-count", "measure-kcap", "pairwise-check",
        "word-image"])
    def test_same_help_as_the_top_parsers_subparser(self, name):
        from pfdim.cli import _command_parser, build_parser
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command").choices[name]
        alone = _command_parser(name)
        assert alone.prog == sub.prog == f"pfdim {name}"
        assert alone.format_help() == sub.format_help()


# ---------------------------------------------------------------------------
# _emit writes exactly what json.dump(..., indent=2) writes


def emitted(payload):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(payload)
    return out.getvalue()


# quotes, backslashes, control and non-ASCII characters
AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028\U0001f600'
TEXT = st.one_of(st.text(max_size=12),
                 st.text(st.sampled_from(AWKWARD), max_size=8))
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(),
    st.integers(-10 ** 60, 10 ** 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0,
                     1e-320, 1e300]))
KEYS = st.one_of(TEXT, st.integers(-10 ** 20, 10 ** 20),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=24)


class TestEmit:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_same_bytes_as_json(self, payload):
        assert emitted(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]], [{}]],
        {"a": ({},)}, {1: [], None: {}, True: "t", 2.5: ()}])
    def test_empty_containers(self, payload):
        assert emitted(payload) == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shared_objects(self, data):
        """One list, tuple or dict object met several times, at one
        indent and at several, inside another shared object, and empty:
        a tuple met again is written from the text of its first writing."""
        inner = data.draw(st.one_of(
            st.lists(VALUES, max_size=3), st.lists(VALUES, max_size=3).map(
                tuple), st.dictionaries(KEYS, VALUES, max_size=3)))
        outer = data.draw(st.sampled_from(
            [(inner, inner), [inner, (inner,)], {"a": inner, "b": [inner]}]))
        payload = data.draw(st.recursive(
            st.one_of(st.sampled_from([inner, outer]), SCALARS),
            lambda part: st.one_of(
                st.lists(part, max_size=4),
                st.lists(part, max_size=4).map(tuple),
                st.dictionaries(KEYS, part, max_size=4)),
            max_leaves=12))
        assert emitted(payload) == json.dumps(payload, indent=2) + "\n"

    def test_a_shared_tuple_is_encoded_once_per_indent(self, monkeypatch):
        from pfdim import cli
        rows = ({"i": 0, "j": 1, "c": -1}, {"i": 1, "j": 0, "c": 2})
        payload = {"cases": [{"coeffs": rows} for _ in range(50)],
                   "shallower": [rows, rows]}
        encoded = []
        encode = cli._encode

        def counted(value, *args):
            encoded.append(value)
            return encode(value, *args)

        monkeypatch.setattr(cli, "_encode", counted)
        assert emitted(payload) == json.dumps(payload, indent=2) + "\n"
        # each row dict once at each of the two indents rows is met at
        assert sum(isinstance(v, dict) and "i" in v for v in encoded) == 4

    def test_subclasses_of_json_types(self):
        class Level(enum.IntEnum):
            LOW = 1

        class Name(str):
            pass

        payload = {Name("k"): [Level.LOW, Name("v\n")], Level.LOW: 2.5}
        assert emitted(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {"a": [1, {2}]}, {"a": object()}, [b"bytes"], {(1, 2): 3},
        {"a": {"b": 1j}}])
    def test_unserializable_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            emitted(payload)

    def test_no_cyclic_garbage(self):
        # json's pure-Python indent encoder left closures and an encoder
        # object in reference cycles on every call
        payload = {"cases": [{"k": 1, "d": 2, "guard": "n=1; none",
                              "coeffs": [{"i": 0, "j": -1, "c": -2}]}],
                   "floats": (0.5, float("inf"), float("nan")),
                   "flags": [None, True, False], "empty": [{}, [], ()]}
        catalog = ["abelian-count", "--p", "2", "--n", "2", "--m", "1",
                   "--s", "0", "--d", "2", "--symbolic"]
        one = catalog + ["--r", "1", "--formula",
                         "!2*x1 = 0 & !div(2^1, 1*x1) & div(2^2, 2*x1)"]
        two = catalog + ["--r", "2", "--formula",
                         "!2*x1 = 0 & !div(2^1, 1*x2)"]
        # the family commands: a request's memo holds no FamilyAt, which
        # holds the memo
        family = [
            ["dim-compare", "--family", "findelta", "--formula-x", "E(x, y)",
             "--selector-x", "class-level-1", "--formula-y", QUANTIFIED,
             "--selector-y", "class-level-2", "--indices", "4,8"],
            ["chain", "--family", "earlyexample", "--indices", "3,5",
             "--step", "E(x, x)", "--step", "E(x, y)@class-2"],
            ["spectrum", "--family", "findelta", "--formula", QUANTIFIED,
             "--indices", "4,8"],
            ["family", "--name", "convsupersimple", "--index", "6",
             "--formula", "P2(x) & !P4(x)"]]

        def mu_d():
            return mu_D_sequence(get_family("rank2classes"), "E(x, x)",
                                 "E(x, y)", [4, 8], x_selector="big-class")
        with contextlib.redirect_stdout(io.StringIO()):
            # builds the cached argument parsers, which have cycles
            for argv in [one, *family]:
                main(argv)
        mu_d()
        gc.collect()
        gc.disable()
        try:
            emitted(payload)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(one) == 0
                assert main(two) == 0
                for argv in family:
                    assert main(argv) == 0
            mu_d()
            assert gc.collect() == 0
        finally:
            gc.enable()
