"""Fuzz of ``pfdim.cli.main`` over argv for every subcommand.

Each example is a command line of mostly well-formed pieces (family
names, formulas, index lists, numbers, input files) mixed with junk.
Sizes stay small (indices at most 16, group words of arity at most 2,
a low ``PFDIM_BUDGET``) so the whole fuzz runs in seconds.  Whatever the
input, ``main`` returns an exit code and never raises, and exit 2 (a
failed cross-check) comes only from the three checks that own it:
``abelian-count``'s oracle/brute-force mismatch and the two intersection
theorems of ``measure-kcap`` and ``pairwise-check``.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pfdim.cli import main

CROSS_CHECKS = {
    "abelian-count": "oracle/brute-force mismatch",
    "measure-kcap": "contradicts the intersection theorem",
    "pairwise-check": "contradicts the pairwise threshold theorem",
}

JUNK = st.sampled_from(["", "-1", "0", "nan", "inf", "1e400", "x", ",",
                        "10000000000000000000000", "-", "@", "1/0"])
SMALL = st.integers(-2, 16).map(str)
FAMILIES = st.sampled_from(["earlyexample", "stablenonattainability",
                            "findelta", "rank2classes", "convsupersimple",
                            "nosuchfamily"])
SELECTORS = st.sampled_from(["class-1", "class-3", "largest-class",
                             "class-rank-1", "class-rank-2", "class-level-1",
                             "big-class", "small-class", "nosuch", ""])
ATOMS = st.sampled_from(["E(x, y)", "E(y, x)", "x = y", "E(x, x)", "P1(x)",
                         "P2(x)", "E(x, z)", "P9(y)", "Q(x)", "E(x"])


def _formula(inner):
    return st.one_of(
        inner.map(lambda a: f"!({a})"),
        st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        inner.map(lambda a: f"exists z:S. {a}"),
        inner.map(lambda a: f"forall z:S. {a}"))


FORMULAS = st.one_of(st.recursive(ATOMS, _formula, max_leaves=4), JUNK)
INDICES = st.one_of(
    st.lists(st.integers(-1, 16), min_size=0, max_size=6).map(
        lambda xs: ",".join(map(str, xs))),
    JUNK)
NUMBER = st.one_of(st.floats(-10, 10).map(str), JUNK, SMALL)


def either(good, bad):
    """Mostly a well-formed value, sometimes a bad one."""
    return st.sampled_from(3 * list(good) + list(bad))


def opt(flag, values):
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def cmd(name, *pieces):
    return st.tuples(*pieces).map(
        lambda parts: [name] + [x for part in parts for x in part])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "cycle": {"sorts": [{"name": "S", "size": 5}],
                  "relations": [{"name": "E", "sorts": ["S", "S"],
                                 "tuples": [[i, (i + 1) % 5]
                                            for i in range(5)]}]},
        "space": {"weights": ["1/4"] * 4,
                  "events": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [1, 3]]},
        "many": {"weights": ["1/2", "1/2"], "events": [[0]] * 25},
        "outside": {"weights": ["1/2", "1/2"], "events": [[0], [7]]},
        "badweight": {"weights": ["1/0"], "events": []},
        "coset": {"include": [{"point": [0, 0]}], "exclude": []},
        "notjson": None,
    }
    paths = {}
    for stem, payload in contents.items():
        path = root / f"{stem}.json"
        path.write_text("{" if payload is None else json.dumps(payload))
        paths[stem] = str(path)
    paths["missing"] = str(root / "missing.json")
    return paths


def argvs(files):
    path = st.sampled_from(sorted(files.values()))

    def file(stem):
        return st.one_of(st.just(files[stem]), path)

    fam = FAMILIES.map(lambda v: ["--family", v])
    step = st.tuples(FORMULAS, SELECTORS).map(
        lambda t: t[0] if not t[1] else f"{t[0]}@{t[1]}")
    return st.one_of(
        cmd("count", file("cycle").map(lambda v: ["--structure", v]),
            FORMULAS.map(lambda f: ["--formula", f]),
            st.sampled_from(["x", "x,y", "y", "x,x", ""]).map(
                lambda v: ["--count-vars", v]),
            opt("--fix", st.sampled_from(["y=1", "y=9", "z=0", "y", "y=x"])),
            opt("--budget", SMALL)),
        cmd("family", FAMILIES.map(lambda v: ["--name", v]),
            st.one_of(SMALL, JUNK).map(lambda v: ["--index", v]),
            opt("--formula", FORMULAS), opt("--selector", SELECTORS),
            opt("--budget", SMALL)),
        cmd("dim-compare", fam, FORMULAS.map(lambda f: ["--formula-x", f]),
            opt("--selector-x", SELECTORS),
            FORMULAS.map(lambda f: ["--formula-y", f]),
            opt("--selector-y", SELECTORS),
            INDICES.map(lambda v: ["--indices", v]), opt("--tau", NUMBER),
            opt("--budget", SMALL)),
        cmd("chain", fam,
            st.lists(step, min_size=1, max_size=3).map(
                lambda ss: [x for s in ss for x in ("--step", s)]),
            INDICES.map(lambda v: ["--indices", v]), opt("--tau", NUMBER)),
        cmd("spectrum", fam, FORMULAS.map(lambda f: ["--formula", f]),
            INDICES.map(lambda v: ["--indices", v]), opt("--gamma", NUMBER)),
        cmd("abelian-count",
            either(["2", "3", "5"], ["4", "0", "1"]).map(
                lambda v: ["--p", v]),
            either(["1", "2"], ["0"]).map(lambda v: ["--n", v]),
            either(["1", "2"], ["0"]).map(lambda v: ["--m", v]),
            either([[], ["--r", "1"]], [["--r", "2"], ["--r", "0"]]),
            either([["--s", "1"]], [[], ["--s", "2"]]),
            either(["1*x1 + 1*y1 = 0", "2*x1 - 1*y1 = 0 & !1*x1 = 0",
                    "div(2^1, 1*x1 + 1*y1)", "!div(3^1, 1*x1 + 2*y1)"],
                   ["1*x2 = 0", "x1 + 3 = 0", "", "div(2^0, 1*x1)"]).map(
                lambda f: ["--formula", f]),
            either([["--param", "1"], ["--param", "2"]],
                   [[], ["--param", "0,1"], ["--param", "x"]]),
            st.sampled_from([[], ["--symbolic"]]),
            opt("--d", st.sampled_from(["0", "1", "2"]))),
        cmd("vs-count", st.sampled_from(["2", "3", "4", "6"]).map(
                lambda v: ["--q", v]),
            st.sampled_from(["0", "1", "2", "3", "7"]).map(
                lambda v: ["--dim", v]),
            opt("--w", st.sampled_from(["1", "1,2", "0", "99", "x"])),
            opt("--wprime", st.sampled_from(["2", "3,1", "-1"])),
            opt("--coset-spec", path)),
        cmd("measure-kcap", file("space").map(lambda v: ["--space", v]),
            st.one_of(SMALL, JUNK).map(lambda v: ["--k", v])),
        cmd("pairwise-check", file("space").map(lambda v: ["--space", v]),
            st.sampled_from(["1/4", "1/2", "1/3", "0", "2", "x", "1/0"]).map(
                lambda v: ["--eps", v])),
        cmd("word-image",
            st.sampled_from(["C1", "C6", "S3", "A4", "C", "Z"]).map(
                lambda v: ["--group", v]),
            st.sampled_from(["x*y", "[x,y]", "x*x", "x^-1*y", "(x", "x*q",
                             ""]).map(lambda v: ["--word", v]),
            st.sampled_from([[], ["--triple"]]),
            opt("--budget", SMALL)),
        st.lists(st.one_of(JUNK, FORMULAS), max_size=3),
    )


def test_main_never_raises_and_keeps_exit_two_for_cross_checks(files):
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            expected = CROSS_CHECKS.get(argv[0])
            assert expected and expected in out.getvalue(), \
                (argv, out.getvalue(), err.getvalue())

    with mock.patch.dict(os.environ, {"PFDIM_BUDGET": "200000"}):
        check()
