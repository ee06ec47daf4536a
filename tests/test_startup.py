"""What ``import pfdim`` and each command load, and the package namespace.

``import pfdim`` loads no submodule: each public name resolves on first use
(PEP 562), and a command imports the modules that only it needs itself.
Each load check runs in a fresh interpreter, since this one has already
imported every module."""

import json
import os
import subprocess
import sys

import pytest

import pfdim
from pfdim.families import generate

# the package's public names by the submodule that defines them
NAMES = {
    "logic": "App And Const Eq Exists FiniteStructure Forall Formula Implies "
             "Not Or PfdimError Rel SchemaError Signature SignatureError "
             "SortError StructureError Var free_variables load_structure "
             "make_signature rename_free sort_check structure_from_json_dict",
    "parser": "ParseDiagnostic parse_formula render_formula",
    "counting": "AssignmentError BudgetExceeded CardinalitySequence Count "
                "count evaluate get_budget",
    "families": "ElemRef FamilyAt FamilyError FamilyHandle count_family "
                "family_signature family_summary generate get_family "
                "list_families make_homocyclic make_vector_space",
    "abelian": "AbelianError ExponentPolynomial GuardedPoly LinearTerm "
               "StandardAtom brute_count derived_bound evaluate_poly "
               "exact_count parse_standard_conjunction select_case "
               "symbolic_count",
    "vspace": "Coset CosetCount ThetaCase VFPolynomial VSpaceError "
              "count_coset_difference count_theta_case",
    "dimension": "ChainReport DeltaVerdict DimensionError SpectrumReport "
                 "chain_detect cluster_count delta_compare export_csv "
                 "fmv_spectrum",
    "measure": "FiniteMeasureSpace HypothesisError MeasureError Witness "
               "find_k_intersection k_intersection_bound mu mu_D_sequence "
               "pairwise_threshold pairwise_threshold_check space_from_json "
               "truncated_inclusion_exclusion_ok uniform_space",
    "groups": "Group builtin_group eval_word parse_word "
              "triple_product_covers word_arity word_image",
}
ALL = [(module, name) for module, names in NAMES.items()
       for name in names.split()]
SUBMODULES = sorted(NAMES) + ["gf"]

# run in a fresh interpreter: import pfdim, run the statements in argv[1],
# print the pfdim submodules loaded before and after, and the exit code
PROBE = """
import contextlib, io, json, sys
import pfdim
def loaded():
    return sorted(m[6:] for m in sys.modules if m.startswith("pfdim."))
before = loaded()
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps({"before": before, "after": loaded(), "code": code}))
"""


def probe(statements: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(pfdim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE, statements],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def command(argv) -> set:
    """The pfdim submodules that ``cli.main(argv)`` loads; it must exit 0,
    so a refusal cannot pass for a lean start."""
    result = probe(f"from pfdim import cli\ncode = cli.main({list(argv)!r})")
    assert result["before"] == []
    assert result["code"] == 0
    return set(result["after"])


ORACLES = {"abelian", "groups", "vspace", "gf", "measure"}
FORMULA_STACK = {"logic", "parser", "counting", "families", "dimension"}


@pytest.fixture
def e3(tmp_path):
    path = tmp_path / "e3.json"
    path.write_text(generate("earlyexample", 3).to_json())
    return str(path)


class TestWhatEachCommandLoads:
    def test_bare_import_loads_no_submodule(self):
        result = probe("")
        assert result["before"] == result["after"] == []

    @pytest.mark.parametrize("argv", [
        ["family", "--name", "findelta", "--index", "8", "--formula",
         "E(x, y)", "--selector", "class-level-1"],
        ["dim-compare", "--family", "earlyexample", "--formula-x", "E(x,x)",
         "--formula-y", "E(x,y)", "--selector-y", "class-1",
         "--indices", "4,8"],
        ["chain", "--family", "earlyexample", "--step", "E(x,x)",
         "--indices", "4,8"],
        ["spectrum", "--family", "findelta", "--formula", "E(x,y)",
         "--indices", "4,8"],
    ], ids=lambda argv: argv[0])
    def test_family_commands_load_no_oracle(self, argv):
        assert not command(argv) & ORACLES

    def test_count_loads_no_oracle(self, e3):
        loaded = command(["count", "--structure", e3, "--formula",
                          "exists z:S. E(x, z) & E(z, y)",
                          "--count-vars", "x,y"])
        assert "counting" in loaded
        assert not loaded & ORACLES

    def test_mu_D_sequence_loads_no_closed_form(self):
        result = probe(
            "from pfdim import families, measure\n"
            "measure.mu_D_sequence(families.get_family('findelta'), "
            "'E(x, y) | x = y', 'E(x, y)', [4, 8], "
            "d_selector='class-level-1', x_selector='class-level-2')")
        assert result["before"] == []
        loaded = set(result["after"])
        assert "families" in loaded
        assert "measure" in loaded
        assert not loaded & {"abelian", "groups", "vspace", "gf"}

    def test_measure_kcap_loads_no_closed_form(self, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"weights": ["1/2", "1/2"],
                                     "events": [[0], [0, 1], [0]]}))
        loaded = command(["measure-kcap", "--space", str(space), "--k", "2"])
        assert "measure" in loaded
        assert not loaded & {"abelian", "groups", "vspace", "gf"}

    def test_abelian_count(self):
        loaded = command(["abelian-count", "--p", "2", "--n", "2", "--m", "1",
                          "--formula", "1*x1 = 0"])
        assert "abelian" in loaded
        assert not loaded & {"groups", "vspace", "measure"}

    def test_vs_count(self):
        loaded = command(["vs-count", "--q", "2", "--dim", "2", "--w", "1"])
        assert "vspace" in loaded
        assert not loaded & {"abelian", "groups", "measure"}

    def test_word_image(self):
        loaded = command(["word-image", "--group", "S3", "--word", "[x,y]"])
        assert "groups" in loaded
        assert not loaded & {"abelian", "vspace", "gf", "measure"}

    @pytest.mark.parametrize("argv,module", [
        (["abelian-count", "--p", "2", "--n", "2", "--m", "1",
          "--formula", "1*x1 = 0"], "abelian"),
        (["vs-count", "--q", "2", "--dim", "2", "--w", "1"], "vspace"),
        (["word-image", "--group", "PSL(2,7)", "--word", "[x,y]",
          "--triple"], "groups"),
        (["measure-kcap", "--space", "{space}", "--k", "2"], "measure"),
        (["pairwise-check", "--space", "{space}", "--eps", "1/2"], "measure"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_closed_form_commands_load_no_formula_stack(self, tmp_path,
                                                        argv, module):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"weights": ["1/2", "1/2"],
                                     "events": [[0], [0, 1], [0], [0]]}))
        loaded = command([a.format(space=space) for a in argv])
        assert module in loaded
        assert not loaded & FORMULA_STACK


class TestNamespace:
    def test_95_names(self):
        assert len(ALL) == 95
        assert sorted(pfdim.__all__) == sorted(name for _, name in ALL)

    @pytest.mark.parametrize("module,name", ALL)
    def test_name_is_its_modules_object(self, module, name):
        assert getattr(pfdim, name) is getattr(getattr(pfdim, module), name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from pfdim import *", namespace)
        for module, name in ALL:
            assert namespace[name] is getattr(getattr(pfdim, module), name)

    def test_dir_lists_every_name_and_submodule(self):
        listed = set(dir(pfdim))
        assert {name for _, name in ALL} <= listed
        assert set(SUBMODULES) <= listed

    def test_submodules_resolve_after_a_bare_import(self):
        statements = "\n".join(
            [f"assert pfdim.{m}.__name__ == 'pfdim.{m}'" for m in SUBMODULES]
            + ["assert pfdim.families.FamilyAt.__module__ == 'pfdim.families'",
               "assert pfdim.gf.make_field(4).q == 4"])
        assert set(probe(statements)["after"]) == set(SUBMODULES)

    def test_the_shared_types_load_no_submodule(self):
        result = probe("assert pfdim.Count(8).value == 8\n"
                       "assert issubclass(pfdim.PfdimError, Exception)")
        assert result["after"] == []

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'pfdim' has no attribute "
                                                 "'nosuch'"):
            pfdim.nosuch

    def test_version(self):
        assert pfdim.__version__ == "0.1.0"
