"""`pfdim vs-count`: closed forms from (q, dim) alone, checked against the
materialized structure, and the input errors that exit 1."""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pfdim import families, vspace
from pfdim.cli import main
from pfdim.families import make_vector_space
from pfdim.vspace import vector_space_ambient
from pfdim.vspace import ambient_of

# every (q, dim) with q^dim <= 27, small enough to materialize and enumerate
SMALL = [(q, dim) for q in (2, 3, 4, 5, 7, 8, 9) for dim in range(1, 6)
         if q ** dim <= 27]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_json(*argv):
    """Run the CLI in-process and parse its output (no capsys: Hypothesis
    reruns the test body under one function-scoped fixture)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return json.loads(out.getvalue())


@functools.cache
def space(q, dim):
    return make_vector_space(q, dim)


def theta_brute(M, dim, w, wp):
    """|{u : theta_n(u+w_1, ..., u+w_m, w'_1, ..., w'_m')}| read off the
    materialized vadd table and theta relations."""
    n = len(w) + len(wp)
    if n == 0:
        return M.sizes["V"]  # the empty family is independent
    if n > dim:
        return 0  # more than dim vectors are never independent
    name = f"theta{n}"
    table = M.relations.get(name)
    holds = (table.__contains__ if table is not None
             else M.virtual_relations[name])
    vadd = M.functions["vadd"]
    return sum(1 for u in range(M.sizes["V"])
               if holds(tuple(vadd[(u, x)] for x in w) + tuple(wp)))


def coset_members(M, q, c):
    """point + span(rows), enumerated with the vadd and smul tables."""
    vadd, smul = M.functions["vadd"], M.functions["smul"]
    members = {encode(c["point"], q)}
    for row in c["rows"]:
        r = encode(row, q)
        members = {vadd[(v, smul[(k, r)])] for v in members for k in range(q)}
    return members


def encode(vec, q):
    return sum(x * q ** i for i, x in enumerate(vec))


def theta_payload(case):
    return {"count": str(case.count.value), "guard": case.guard,
            "poly": case.poly.to_json_dict(),
            "firstDisjunct": {"count": str(case.first_count.value),
                              "poly": case.first_poly.to_json_dict()},
            "secondDisjunct": {"count": str(case.second_count.value),
                               "poly": case.second_poly.to_json_dict()}}


@st.composite
def theta_jobs(draw):
    q, dim = draw(st.sampled_from(SMALL))
    ids = st.integers(0, q ** dim - 1)
    w = draw(st.lists(ids, max_size=3))
    wp = draw(st.lists(ids, max_size=2))
    return q, dim, w, wp


@st.composite
def coset_jobs(draw):
    q, dim = draw(st.sampled_from(SMALL))
    vec = st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)

    def coset():
        return {"point": draw(vec), "rows": draw(st.lists(vec, max_size=2))}

    include = [coset() for _ in range(draw(st.integers(1, 2)))]
    exclude = [coset() for _ in range(draw(st.integers(0, 3)))]
    return q, dim, {"include": include, "exclude": exclude}


class TestAgainstMaterialized:
    @settings(max_examples=150, deadline=None)
    @given(theta_jobs())
    def test_theta(self, job):
        q, dim, w, wp = job
        got = cli_json("vs-count", "--q", str(q), "--dim", str(dim),
                       "--w", ",".join(map(str, w)),
                       "--wprime", ",".join(map(str, wp)))
        M = space(q, dim)
        assert got == theta_payload(vspace.count_theta_case(M, w, wp))
        assert int(got["count"]) == theta_brute(M, dim, w, wp)

    @settings(max_examples=150, deadline=None)
    @given(coset_jobs())
    def test_cosets(self, tmp_path_factory, job):
        q, dim, spec = job
        path = tmp_path_factory.mktemp("cosets") / "spec.json"
        path.write_text(json.dumps(spec))
        got = cli_json("vs-count", "--q", str(q), "--dim", str(dim),
                       "--coset-spec", str(path))
        M = space(q, dim)

        def coset(d):
            return vspace.Coset(tuple(d["point"]),
                                tuple(tuple(r) for r in d["rows"]))

        closed = vspace.count_coset_difference(
            M, [coset(d) for d in spec["include"]],
            [coset(d) for d in spec["exclude"]])
        assert got == {"count": str(closed.count.value),
                       "poly": closed.poly.to_json_dict()}
        inside = set.intersection(*[coset_members(M, q, d)
                                    for d in spec["include"]])
        for d in spec["exclude"]:
            inside -= coset_members(M, q, d)
        assert int(got["count"]) == len(inside)


class TestAmbient:
    @pytest.mark.parametrize("q,dim", [(2, 1), (2, 3), (3, 2), (4, 2), (9, 1)])
    def test_same_as_the_structure(self, q, dim):
        amb = vector_space_ambient(q, dim)
        assert amb == ambient_of(space(q, dim))
        assert ambient_of(amb) is amb

    def test_vs_count_builds_no_structure(self, capsys, monkeypatch):
        def refuse(q, dim):
            raise AssertionError("vs-count materialized the structure")

        monkeypatch.setattr(families, "make_vector_space", refuse)
        code, out, _ = run(capsys, "vs-count", "--q", "5", "--dim", "5",
                           "--w", "1,7", "--wprime", "30")
        assert code == 0
        assert json.loads(out)["count"] == str(5 ** 5 - 5 ** 3 + 5 ** 3 - 5 ** 2)


class TestInputErrors:
    @pytest.mark.parametrize("argv,message", [
        (["--q", "6", "--dim", "2"], "error: q=6 is not a supported prime power"),
        (["--q", "2", "--dim", "7"], "error: dim must be in 1..6"),
        (["--q", "2", "--dim", "0"], "error: dim must be in 1..6"),
        (["--q", "9", "--dim", "6"], "error: vector sort exceeds size budget"),
    ])
    def test_bad_ambient(self, capsys, argv, message):
        code, out, err = run(capsys, "vs-count", *argv, "--w", "1")
        assert code == 1
        assert out == ""
        assert err.strip() == message

    @pytest.mark.parametrize("flag,ids,bad", [
        ("--w", "99", 99), ("--w", "-1", -1), ("--w", "1,4", 4),
        ("--wprime", "4", 4), ("--wprime", "-3", -3),
    ])
    def test_vector_id_out_of_range(self, capsys, flag, ids, bad):
        code, out, err = run(capsys, "vs-count", "--q", "2", "--dim", "2",
                             flag, ids)
        assert code == 1
        assert out == ""
        assert err.strip() == f"error: vector id {bad} outside the vector sort"

    @pytest.mark.parametrize("spec,fragment", [
        ({"include": [{"point": [0, 2]}]}, "not an integer in 0..1"),
        ({"include": [{"point": [0, 0]}],
          "exclude": [{"point": [0, 0], "rows": [[1, 5]]}]},
         "not an integer in 0..1"),
        ({"include": [{"point": [0, -1]}]}, "not an integer in 0..1"),
        ({"include": [{"point": [0, 0, 0]}]}, "has length 3, expected dim=2"),
        ({"include": [{"point": [0, 0], "rows": [[1]]}]},
         "has length 1, expected dim=2"),
        ({"include": [{"point": [0, "a"]}]}, "not an integer in 0..1"),
        ({"include": [{"rows": [[1, 0]]}]}, "need a 'point' list"),
        ({"include": [{"point": 3}]}, "need a 'point' list"),
        ([], "coset spec must be a JSON object"),
        ({"include": None}, "'include' must be a list of cosets"),
        ({"include": 5}, "'include' must be a list of cosets"),
        ({"exclude": {"point": [0, 0]}}, "'exclude' must be a list of cosets"),
        ({"include": [{"point": [0, True]}]}, "not an integer in 0..1"),
        ({"include": [{"point": [0, 0], "rows": [[1, False]]}]},
         "not an integer in 0..1"),
        ({"include": [{"point": [0, 0], "rows": [1]}]}, "need a 'point' list"),
    ])
    def test_bad_coset_spec(self, capsys, tmp_path, spec, fragment):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "vs-count", "--q", "2", "--dim", "2",
                             "--coset-spec", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize("copies,code", [(16, 0), (17, 1)])
    def test_bound_on_the_meets(self, capsys, tmp_path, copies, code):
        # k equal excluded lines meet in 2^k ways; vspace.MAX_MEETS is 2^16
        line = {"point": [0, 0], "rows": [[1, 0]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"exclude": [line] * copies}))
        got, out, err = run(capsys, "vs-count", "--q", "2", "--dim", "2",
                            "--coset-spec", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["count"] == "2"
        else:
            assert out == ""
            assert err.strip() == ("error: the excluded cosets meet in more "
                                   "than 65536 nonempty intersections")

    @pytest.mark.parametrize("theta", [["--w", "1"], ["--wprime", "2"],
                                       ["--w", "1", "--wprime", "2"],
                                       ["--wprime", ""]])
    def test_coset_spec_with_theta_ids(self, capsys, tmp_path, theta):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"include": [{"point": [0, 0]}]}))
        code, out, err = run(capsys, "vs-count", "--q", "2", "--dim", "2",
                             *theta, "--coset-spec", str(path))
        assert code == 1
        assert out == ""
        assert "--coset-spec" in err and "--w/--wprime" in err
