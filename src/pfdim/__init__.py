"""Exact counting of definable sets in families of finite structures, with
growth-rate (dimension) comparison tools, closed-form counting oracles for
homocyclic abelian groups and finite vector spaces, measure-theoretic
intersection bounds, and word-map images in finite groups.

Names resolve on first use (PEP 562): ``import pfdim`` loads no submodule,
and ``pfdim.count``, ``from pfdim import count`` or ``pfdim.counting`` loads
only the module that defines it and the modules that one imports.
``PfdimError`` and ``Count``, which the closed-form modules share with the
formula stack, are defined here, so those modules load without it."""

import math
import sys
from dataclasses import dataclass, field

__version__ = "0.1.0"


class PfdimError(Exception):
    """Base class for all library errors."""


@dataclass(frozen=True)
class Count:
    """An exact nonnegative integer with its natural log (-inf for zero)."""

    value: int
    log_value: float = field(default=None)  # type: ignore[assignment]

    def __init__(self, value: int, log_value: float = None):  # type: ignore
        # written out: the generated __init__ and __post_init__ are slower
        if value < 0:
            raise ValueError("counts are nonnegative")
        if log_value is None:
            # math.log takes big ints directly without float conversion
            log_value = -math.inf if value == 0 else math.log(value)
        fields = self.__dict__    # frozen: set here only
        fields["value"], fields["log_value"] = value, log_value


def _nonempty_meets(base, items, meet):
    """Inclusion-exclusion's one subset walk: ``(S, meet of base and S)``
    for each subset S of ``items`` (a tuple of indices) whose meet is not
    None, depth first from the empty subset, each meet taken in increasing
    index order.  A subset with an empty meet is not extended: adding an
    item only shrinks a meet."""
    stack = [((), base)]
    while stack:
        chosen, cur = stack.pop()
        yield chosen, cur
        for i in range(len(items) - 1, chosen[-1] if chosen else -1, -1):
            below = meet(cur, items[i])
            if below is not None:
                stack.append((chosen + (i,), below))


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
