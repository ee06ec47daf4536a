"""Exact counting of definable sets in families of finite structures, with
growth-rate (dimension) comparison tools, closed-form counting oracles for
homocyclic abelian groups and finite vector spaces, measure-theoretic
intersection bounds, and word-map images in finite groups.

Names resolve on first use (PEP 562): ``import pfdim`` loads no submodule,
and ``pfdim.count``, ``from pfdim import count`` or ``pfdim.counting`` loads
only the module that defines it and the modules that one imports."""

import sys

__version__ = "0.1.0"

# every submodule, with the public names it defines
_EXPORTS = {
    "logic": ("App", "And", "Const", "Eq", "Exists", "FiniteStructure",
              "Forall", "Formula", "Implies", "Not", "Or", "PfdimError",
              "Rel", "SchemaError", "Signature", "SignatureError",
              "SortError", "StructureError", "Var", "free_variables",
              "load_structure", "make_signature", "rename_free",
              "sort_check", "structure_from_json_dict"),
    "parser": ("ParseDiagnostic", "parse_formula", "render_formula"),
    "counting": ("AssignmentError", "BudgetExceeded", "CardinalitySequence",
                 "Count", "count", "evaluate", "get_budget"),
    "families": ("ElemRef", "FamilyAt", "FamilyError", "FamilyHandle",
                 "count_family", "family_signature", "family_summary",
                 "generate", "get_family", "list_families",
                 "make_homocyclic", "make_vector_space"),
    "abelian": ("AbelianError", "ExponentPolynomial", "GuardedPoly",
                "LinearTerm", "StandardAtom", "brute_count", "derived_bound",
                "evaluate_poly", "exact_count", "parse_standard_conjunction",
                "select_case", "symbolic_count"),
    "vspace": ("Coset", "CosetCount", "ThetaCase", "VFPolynomial",
               "VSpaceError", "count_coset_difference", "count_theta_case"),
    "dimension": ("ChainReport", "DeltaVerdict", "DimensionError",
                  "SpectrumReport", "chain_detect", "cluster_count",
                  "delta_compare", "export_csv", "fmv_spectrum"),
    "measure": ("FiniteMeasureSpace", "HypothesisError", "MeasureError",
                "Witness", "find_k_intersection", "k_intersection_bound",
                "mu", "mu_D_sequence", "pairwise_threshold",
                "pairwise_threshold_check", "space_from_json",
                "truncated_inclusion_exclusion_ok", "uniform_space"),
    "groups": ("Group", "builtin_group", "eval_word", "parse_word",
               "triple_product_covers", "word_arity", "word_image"),
    "gf": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, which -X importtime reports
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
