"""Exact counting of definable sets in families of finite structures, with
growth-rate (dimension) comparison tools, closed-form counting oracles for
homocyclic abelian groups and finite vector spaces, measure-theoretic
intersection bounds, and word-map images in finite groups."""

from .logic import (App, And, Const, Eq, Exists, FiniteStructure, Forall,
                    Formula, Implies, Not, Or, PfdimError, Rel, SchemaError,
                    Signature, SignatureError, SortError, StructureError,
                    Var, free_variables, load_structure, make_signature,
                    rename_free, sort_check, structure_from_json_dict)
from .parser import ParseDiagnostic, parse_formula, render_formula
from .counting import (AssignmentError, BudgetExceeded, CardinalitySequence,
                       Count, count, evaluate, get_budget)
from .families import (ElemRef, FamilyAt, FamilyError, FamilyHandle,
                       count_family, family_signature, family_summary,
                       generate, get_family, list_families, make_homocyclic,
                       make_vector_space)
from .abelian import (AbelianError, ExponentPolynomial, GuardedPoly,
                      LinearTerm, StandardAtom, brute_count, derived_bound,
                      evaluate_poly, exact_count,
                      parse_standard_conjunction, select_case,
                      symbolic_count)
from .vspace import (Coset, CosetCount, ThetaCase, VFPolynomial, VSpaceError,
                     count_coset_difference, count_theta_case)
from .dimension import (ChainReport, DeltaVerdict, DimensionError,
                        SpectrumReport, chain_detect, cluster_count,
                        delta_compare, export_csv, fmv_spectrum)
from .measure import (FiniteMeasureSpace, HypothesisError, MeasureError,
                      Witness, find_k_intersection, k_intersection_bound,
                      mu, mu_D_sequence, pairwise_threshold,
                      pairwise_threshold_check, space_from_json,
                      truncated_inclusion_exclusion_ok, uniform_space)
from .groups import (Group, builtin_group, eval_word, parse_word,
                     triple_product_covers, word_arity, word_image)

__version__ = "0.1.0"
