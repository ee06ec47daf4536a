"""Differential tests: the family route (``_block_count``, counting by
types on a small model) against the enumeration engine (``counting.count``)
on the materialized structure.

Formulas are random first-order formulas over the atoms each family
supports, with up to two nested binders; ``x``, ``y`` and ``z`` are
counted, or bound to a selector's element or an arbitrary element, two of
them possibly in one class, and a parameter need not be free in the
formula.  The route must return the engine's count at every index small
enough to enumerate, and ``FamilyAt.count`` and the family counts built on
it (``chain_detect``, ``fmv_spectrum``, ``mu_D_sequence``) must too.  A
spectrum, which counts one class per distinct class size, must equal the
counts over every class.  Counting through one request's shared memo must
equal counting each index anew.
"""

import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from pfdim import families
from pfdim.counting import BudgetExceeded, count
from pfdim.dimension import DimensionError, chain_detect, fmv_spectrum
from pfdim.families import (ElemRef, FamilyAt, FamilyError, _block_count,
                            _facts, count_family, family_sequence,
                            family_signature, family_summary, generate,
                            get_family, list_families)
from pfdim.logic import free_variables
from pfdim.measure import MeasureError, mu_D_sequence
from pfdim.parser import parse_formula

FAMILY_IDS = sorted(list_families())
EQUIV_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "E(y, z)", "y = z")
QUANTIFIED = "(exists z:S. E(x, z) & !(z = x))"   # x's class has 2+ elements


@functools.lru_cache(maxsize=None)
def materialized(fid, index):
    return generate(fid, index)


def formulas(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            inner.map(lambda a: f"!({a})"),
            st.tuples(inner, st.sampled_from(("&", "|", "->")), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})")),
        max_leaves=8)


def working_selectors(family, index):
    out = []
    for name in list_families()[family.family_id]["selectors"]:
        try:
            out.append(FamilyAt(family, index).selector(name)["y"])
        except FamilyError:
            pass
    return out


@st.composite
def cases(draw):
    fid = draw(st.sampled_from(FAMILY_IDS))
    index = draw(st.integers(2, 4))
    family = get_family(fid)
    summary = family_summary(family, index)
    if fid == "convsupersimple":
        atoms = [f"P{k}({v})" for k in range(1, index + 1) for v in "xy"]
        atoms += ["x = y", "y = z", "x = x"]
    else:
        atoms = list(EQUIV_ATOMS)
    text = draw(formulas(atoms))
    binder = draw(st.sampled_from((None,) * 4 + ("exists", "forall")))
    if binder:
        text = f"{binder} w:S. ({text})"
    selectors = working_selectors(family, index)
    params = {}
    for v in ("y", "z"):
        how = draw(st.sampled_from(("counted", "selector", "selector",
                                    "element", "element")))
        if how == "selector" and selectors:
            params[v] = draw(st.sampled_from(selectors))
        elif how != "counted" and fid == "convsupersimple":
            # no selectors and no classes here: any element of the universe
            g = draw(st.integers(0, summary.total - 1))
            params[v] = ElemRef(0, g, g)
        elif how != "counted":
            ci = draw(st.integers(0, len(summary.class_sizes) - 1))
            off = draw(st.integers(0, summary.class_sizes[ci] - 1))
            params[v] = summary.element(ci, off)
    return fid, index, text, binder is not None, params


# steps one enumeration may take here (assignments times quantifier visits)
ENUMERATION_WORK = 200_000


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_block_route_matches_engine(case):
    # what the block quotient once declined (2 or 3 counted variables, a
    # binder, parameters on convsupersimple) is counted like the rest
    fid, index, text, has_binder, params = case
    family = get_family(fid)
    phi = parse_formula(text, family_signature(family, index))
    free = [n for n, _ in free_variables(phi)]
    fixed = {k: v.global_id for k, v in params.items() if k in free}
    counted = [n for n in free if n not in fixed]
    at = FamilyAt(family, index)
    agg = _block_count(at.summary, phi, params)
    try:
        expected = count(phi, materialized(fid, index), fixed, counted,
                         budget=10 * ENUMERATION_WORK)
    except BudgetExceeded:
        event("too large to enumerate")
        return
    event(f"{len(counted)} counted" + (", a binder" if has_binder else ""))
    assert agg.value == expected.value


@pytest.mark.parametrize("fid,selector", [("findelta", "class-level-2"),
                                          ("stablenonattainability",
                                           "class-rank-3")])
@pytest.mark.parametrize("text,plus", [("E(x, x) & !E(x, y)", 0),
                                       ("x = y | !E(x, y)", 1)])
def test_lumped_block_at_index_64(fid, selector, text, plus):
    # x ranges over every class but y's: the lumped block, plus y itself
    # when the formula admits x = y
    family = get_family(fid)
    summary = family_summary(family, 64)
    ref = FamilyAt(family, 64).selector(selector)["y"]
    expected = (sum(summary.class_sizes)
                - summary.class_sizes[ref.class_index] + plus)
    seq = count_family(text, family, [64], selector=selector)
    assert seq.points[0][1].value == expected


# ---------------------------------------------------------------------------
# Every first-order formula: up to two nested binders, up to two counted
# variables, parameters anywhere, at every index small enough to enumerate

# an index is drawn where the engine's steps (counted assignments times
# one plus the binder visits of one binder path per assignment) are at most
CASE_WORK = 2_000_000


@functools.lru_cache(maxsize=None)
def universe(fid, index):
    """The number of elements ``generate`` builds at ``index``, or None
    where it refuses (findelta and stablenonattainability from 5 on,
    convsupersimple from 7)."""
    try:
        return materialized(fid, index).sizes["S"]
    except FamilyError:
        return None


@st.composite
def first_order(draw, atom, names, binders, depth=3):
    """A formula over the variables ``names`` with at most ``binders``
    nested binders; ``atom(names)`` draws an atom."""
    kinds = ["atom"] + (["!", "&", "|", "->"] if depth else [])
    kinds += ["exists", "forall"] * 2 if binders else []
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(atom(names))
    if kind == "!":
        return f"!({draw(first_order(atom, names, binders, depth - 1))})"
    if kind in ("exists", "forall"):
        var = "u" if "u" not in names else "v"
        body = draw(first_order(atom, names + (var,), binders - 1, depth))
        return f"{kind} {var}:S. ({body})"
    left = draw(first_order(atom, names, binders, depth - 1))
    right = draw(first_order(atom, names, binders, depth - 1))
    return f"({left}) {kind} ({right})"


def atoms_of(fid, index):
    def atom(names):
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
        eq = pair.map(lambda t: f"{t[0]} = {t[1]}")
        if fid == "convsupersimple":
            return st.one_of(eq, st.tuples(
                st.integers(1, index), st.sampled_from(names)).map(
                    lambda t: f"P{t[0]}({t[1]})"))
        return st.one_of(eq, pair.map(lambda t: f"E({t[0]}, {t[1]})"))
    return atom


@st.composite
def elements(draw, fid, at, placed):
    """An element of the family at ``at.index``: a selector's, any one,
    or one in the class of an element already ``placed``."""
    summary = at.summary
    if fid == "convsupersimple":
        g = draw(st.integers(0, summary.total - 1))
        return ElemRef(0, g, g)
    how = draw(st.sampled_from(("selector", "any", "same class")))
    selectors = working_selectors(at.family, at.index)
    if how == "selector" and selectors:
        return draw(st.sampled_from(selectors))
    if how == "same class" and placed:
        ci = draw(st.sampled_from(placed)).class_index
    else:
        ci = draw(st.integers(0, len(summary.class_sizes) - 1))
    return summary.element(
        ci, draw(st.integers(0, summary.class_size(ci) - 1)))


@st.composite
def first_order_cases(draw):
    fid = draw(st.sampled_from(FAMILY_IDS))
    roles = draw(st.lists(st.sampled_from(("counted", "parameter")),
                          min_size=3, max_size=3))
    if "parameter" not in roles:
        roles[2] = "parameter"      # at most two counted variables
    binders = draw(st.integers(0, 2))
    counted = roles.count("counted")

    def work(n):
        return n ** counted * (1 + n * (binders > 0) + n * n * (binders > 1))
    indices = [i for i in range(1, 9)
               if universe(fid, i) and work(universe(fid, i)) <= CASE_WORK]
    index = draw(st.sampled_from(indices))
    text = draw(first_order(atoms_of(fid, index), ("x", "y", "z"), binders))
    at = FamilyAt(get_family(fid), index)
    params = {}
    for v, role in zip("xyz", roles):
        if role == "parameter":
            params[v] = draw(elements(fid, at, list(params.values())))
    return fid, index, text, params


# D = QUANTIFIED with X's selector still among the parameters, as in
# mu_D_sequence: y is not free in D, and must not hold back an element of
# its class (|D| = 4 at earlyexample n = 2, so mu = 1, not 4/3)
@example(("earlyexample", 2, QUANTIFIED, {"y": ElemRef(1, 0, 1)}))
@example(("earlyexample", 2, QUANTIFIED, {"y": ElemRef(1, 2, 3)}))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(first_order_cases())
def test_small_model_matches_engine(case):
    fid, index, text, params = case
    at = FamilyAt(get_family(fid), index)
    phi = parse_formula(text, at.signature)
    free = [n for n, _ in free_variables(phi)]
    fixed = {k: v.global_id for k, v in params.items() if k in free}
    counted = [n for n in free if n not in fixed]
    rank = max(_facts(phi, {})[2], default=0)
    event(f"{len(counted)} counted, quantifier rank {rank}")
    # sibling binders add their visits; no case is refused
    expected = count(phi, materialized(fid, index), fixed, counted,
                     budget=10 ** 12)
    got = _block_count(at.summary, phi, params)
    assert got == expected
    assert at.count(phi, params) == expected


# ---------------------------------------------------------------------------
# FamilyAt.count, the one place a family count is made


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_family_at_matches_engine(case):
    fid, index, text, has_binder, params = case
    at = FamilyAt(get_family(fid), index)
    phi = parse_formula(text, at.signature)
    M = materialized(fid, index)
    free = [n for n, _ in free_variables(phi)]
    fixed = {k: v.global_id for k, v in params.items() if k in free}
    counted = [n for n in free if n not in fixed]
    try:
        expected = count(phi, M, fixed, counted, budget=ENUMERATION_WORK)
    except BudgetExceeded:
        # the route charges type leaves, not assignments: it counts within
        # the budget the engine exceeds, and the engine agrees given ten
        # times more, where that is enough
        got = at.count(phi, params, budget=ENUMERATION_WORK)
        try:
            expected = count(phi, M, fixed, counted,
                             budget=10 * ENUMERATION_WORK)
        except BudgetExceeded:
            event("too large to enumerate")
            return
        event("enumerated under a larger budget")
        assert got == expected
        return
    event(f"{len(counted)} counted" + (", a binder" if has_binder else ""))
    assert at.count(phi, params, budget=ENUMERATION_WORK) == expected


def engine_count(fid, text, index, y=None):
    phi = parse_formula(text, family_signature(get_family(fid), index))
    return count(phi, materialized(fid, index),
                 {} if y is None else {"y": y}, ["x"])


@pytest.mark.parametrize("fid,selector", [("earlyexample", "largest-class"),
                                          ("rank2classes", "big-class")])
def test_consumers_count_quantified_formulas(fid, selector):
    family = get_family(fid)
    indices = [2, 3, 4]
    ys = [FamilyAt(family, n).selector(selector)["y"].global_id
          for n in indices]

    report = chain_detect(family, [(QUANTIFIED, None),
                                   ("E(x, y)", selector)], indices)
    assert report.log_counts == (
        tuple(engine_count(fid, QUANTIFIED, n).log_value for n in indices),
        tuple(engine_count(fid, f"{QUANTIFIED} & E(x, y)", n, y).log_value
              for n, y in zip(indices, ys)))

    spectrum = "exists z:S. E(x, z) & E(z, y)"
    report = fmv_spectrum(family, spectrum, indices)
    assert report.log_counts == tuple(
        tuple(sorted({engine_count(fid, spectrum, n, b).log_value
                      for b in range(materialized(fid, n).sizes["S"])}))
        for n in indices)

    ratios = mu_D_sequence(family, QUANTIFIED, "E(x, y)", indices,
                           x_selector=selector)
    assert ratios == [
        Fraction(engine_count(fid, f"E(x, y) & {QUANTIFIED}", n, y).value,
                 engine_count(fid, QUANTIFIED, n).value)
        for n, y in zip(indices, ys)]


def test_spectrum_without_y_is_one_count():
    family = get_family("findelta")
    assert FamilyAt(family, 64).spectrum("E(x, x)") == [
        count_family("E(x, x)", family, [64]).points[0][1].log_value]
    assert FamilyAt(get_family("earlyexample"), 4).spectrum(QUANTIFIED) == [
        engine_count("earlyexample", QUANTIFIED, 4).log_value]


# ---------------------------------------------------------------------------
# Spectra: one count per distinct class size

EQUIV_IDS = [fid for fid in FAMILY_IDS if fid != "convsupersimple"]
XY_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "E(y, y)", "y = x")


def every_class(at, text):
    """The spectrum's reference: one count for every class, not one per
    distinct class size."""
    phi = parse_formula(text, at.signature)
    return sorted({at.count(phi, {"y": at.summary.element(ci)}).log_value
                   for ci in range(len(at.summary.class_sizes))})


@pytest.mark.parametrize("fid", EQUIV_IDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=formulas(XY_ATOMS), index=st.integers(1, 6))
def test_spectrum_matches_every_class(fid, text, index):
    at = FamilyAt(get_family(fid), index)
    assert at.spectrum(text) == every_class(at, text)


QUANTIFIED_ATOMS = XY_ATOMS + ("E(x, z)", "E(z, y)", "z = x", "E(z, w)",
                               "w = y", "E(w, x)")


@st.composite
def spectrum_cases(draw):
    """An equivalence family at an index where every class may exceed r,
    and a formula in x and y of quantifier rank 0-2 (so r up to 3)."""
    fid = draw(st.sampled_from(EQUIV_IDS))
    index = draw(st.integers(1, 24 if fid == "findelta" else 40))
    rank = draw(st.integers(0, 2))
    atoms = (XY_ATOMS, QUANTIFIED_ATOMS[:9], QUANTIFIED_ATOMS)[rank]
    text = draw(formulas(atoms))
    for var in "wz"[2 - rank:]:
        text = f"{draw(st.sampled_from(('exists', 'forall')))} {var}:S. ({text})"
    if draw(st.booleans()):
        text = f"({draw(formulas(XY_ATOMS))}) & ({text})"
    return fid, index, text


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spectrum_cases())
@example(("earlyexample", 5, "exists z:S. (forall w:S. "
                             "(E(z, w) -> E(x, w) | w = y))"))
def test_spectrum_by_shape_matches_every_class(case):
    # classes whose M' has one shape share their truths, and each count is
    # those truths times the class's weights; at these indices every class
    # may exceed r, and earlyexample's classes of 1 and 4 fall below 1 + r
    fid, index, text = case
    at = FamilyAt(get_family(fid), index)
    assert at.spectrum(text) == every_class(at, text)


@pytest.mark.parametrize("fid", ["findelta", "stablenonattainability"])
def test_fallback_spectrum_matches_every_class(fid):
    # a quantified spectrum, once counted by materializing, now on the
    # small model: it equals the engine's count at every element
    text = "exists z:S. E(x, z) & E(z, y) & !(z = y)"
    at = FamilyAt(get_family(fid), 3)
    spectrum = at.spectrum(text)
    assert spectrum == every_class(at, text)
    assert spectrum == sorted({
        engine_count(fid, text, 3, b).log_value
        for b in range(materialized(fid, 3).sizes["S"])})


def test_findelta_spectrum_counts_once_per_class_size(monkeypatch):
    compiles = []
    evaluations = []
    compile_formula = families.compile_formula

    def compiling(*args):
        test, env, rest = compile_formula(*args)
        compiles.append(args)

        def evaluating(env):
            evaluations.append(tuple(env))
            return test(env)

        return evaluating, env, rest

    monkeypatch.setattr(families, "compile_formula", compiling)
    logs = FamilyAt(get_family("findelta"), 64).spectrum("E(x, y)")
    # every class exceeds 1 + r = 2, so all 64 sizes share one shape of
    # M': the formula is compiled once and evaluated at its three type
    # leaves (y, another element of y's class, an element of another
    # class), which every other size weighs again
    assert len(compiles) == 1
    assert len(evaluations) == 3
    assert len(logs) == 64


# ---------------------------------------------------------------------------
# One memo per request: counting along a family_sequence, with its parses
# and truths per shape of the small model shared across indices, equals
# counting each index anew

Y_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "E(y, y)")


def step_counts(steps):
    """Each prefix conjunction's count at one index, then the spectrum of
    the first step; an absent selector is its error."""
    def at_index(at):
        try:
            counts = [at.count(phi, params)
                      for phi, params in at.conjunctions(steps)]
        except FamilyError as exc:
            counts = [str(exc)]
        return counts, at.spectrum(steps[0][0])
    return at_index


@st.composite
def requests(draw):
    fid = draw(st.sampled_from(EQUIV_IDS))
    selectors = list_families()[fid]["selectors"]
    # y is a selector's element in each step that names y, so x is the
    # one counted variable
    steps = draw(st.lists(st.one_of(
        st.tuples(formulas(("E(x, x)", "x = x")), st.none()),
        st.tuples(formulas(Y_ATOMS), st.sampled_from(selectors))),
        min_size=1, max_size=3))
    indices = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    return fid, steps, indices


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests())
# at index 4 both selectors pick class 4, so the two parameters share one
# class there and not at 5 or 6: the shape of the small model differs
# across indices
@example(("earlyexample", [("E(x, y)", "class-4"),
                           ("!(x = y)", "largest-class")], [4, 5, 6]))
def test_shared_memo_matches_fresh_counts(case):
    fid, steps, indices = case
    family = get_family(fid)
    at_index = step_counts(steps)
    assert family_sequence(family, indices, at_index) == [
        (n, at_index(FamilyAt(family, n))) for n in sorted(set(indices))]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fid=st.sampled_from(EQUIV_IDS), index=st.integers(1, 5),
       text=formulas(("E(x, y)", "E(x, z)", "x = y", "y = z", "E(y, z)")),
       data=st.data())
def test_one_memo_matches_fresh_counts_for_any_parameters(fid, index, text,
                                                          data):
    # y and z anywhere, in either order: one memo counts them all
    family = get_family(fid)
    at = FamilyAt(family, index)
    phi = parse_formula(text, at.signature)
    summary = at.summary
    for _ in range(4):
        params = {}
        for v in ("y", "z"):
            ci = data.draw(st.integers(0, len(summary.class_sizes) - 1))
            off = data.draw(st.integers(0, summary.class_sizes[ci] - 1))
            params[v] = summary.element(ci, off)
        assert at.count(phi, params) == FamilyAt(family, index).count(
            phi, params)


# at n = 8, the counts the block quotient declined for each reason, too
# large to materialize (19,173,960 elements; 8^8 on convsupersimple)
CLOSED_FORM_AT_8 = {
    "2 counted variables": sum(8 ** (2 * i) for i in range(1, 9)),
    "a quantifier": sum(8 ** i for i in range(1, 9)),
    # y = 0 is in every P_i, so x ranges over P1 but y
    "parameters on a nested-predicate family": 8 ** 7 - 1,
}


@pytest.mark.parametrize("fid,text,params,reason", [
    ("stablenonattainability", "E(x, y)", {}, "2 counted variables"),
    ("stablenonattainability", "E(x, x) | exists z:S. E(z, x)", {},
     "a quantifier"),
    ("convsupersimple", "P1(x) & !(x = y)", {"y": ElemRef(0, 0, 0)},
     "parameters on a nested-predicate family"),
])
def test_decline_reason_in_error(fid, text, params, reason):
    # the old decline reasons are gone: each such count is exact
    at = FamilyAt(get_family(fid), 8)
    got = at.count(parse_formula(text, at.signature), params)
    assert got.value == CLOSED_FORM_AT_8[reason]


def test_consumers_keep_their_errors_when_neither_route_counts():
    # every consumer counts a quantified formula at n = 8, where each class
    # has 8 or more elements; the errors that remain keep their types
    family = get_family("stablenonattainability")
    every = sum(8 ** i for i in range(1, 9))
    report = chain_detect(family, [(QUANTIFIED, None)], [8])
    assert report.log_counts == ((math.log(every),),)
    assert mu_D_sequence(family, QUANTIFIED, "E(x, x)", [8]) == [1]
    assert FamilyAt(family, 8).spectrum(
        "exists z:S. E(x, z) & E(z, y)") == pytest.approx(
            [math.log(8 ** i) for i in range(1, 9)])
    with pytest.raises(DimensionError, match="2 counted variables"):
        chain_detect(family, [(f"{QUANTIFIED} & E(x, y)", None)], [8])
    with pytest.raises(MeasureError, match="D counts"):
        mu_D_sequence(family, "E(x, y)", QUANTIFIED, [8])
    with pytest.raises(FamilyError, match="2 counted variables"):
        FamilyAt(family, 8).spectrum("exists z:S. E(x, z) & E(z, w)")


def test_consumers_refuse_a_second_counted_variable():
    family = get_family("earlyexample")
    pair = "E(x, z) & E(z, y)"   # z is counted next to x
    with pytest.raises(DimensionError, match="2 counted variables"):
        chain_detect(family, [("E(x, y)", None)], [2])
    with pytest.raises(DimensionError, match="2 counted variables"):
        chain_detect(family, [(pair, "largest-class")], [2])
    with pytest.raises(FamilyError, match="2 counted variables"):
        FamilyAt(family, 2).spectrum(pair)
    with pytest.raises(MeasureError, match=r"D counts \['x', 'y'\]"):
        mu_D_sequence(family, "E(x, y)", "E(x, x)", [2])
    with pytest.raises(MeasureError, match=r"together \['x', 'y'\]"):
        mu_D_sequence(family, "E(x, x)", "E(x, y)", [2])
    with pytest.raises(MeasureError,
                       match=r"D counts \[\], X and D together \['x'\]"):
        mu_D_sequence(family, "E(y, y)", "E(x, y)", [2],
                      d_selector="class-1", x_selector="class-1")


def test_large_materializable_index_fails_fast():
    # 46,656 elements: enumerating a binder over them at every assignment
    # is about 2.2e9 steps; the small model has 4 elements (P1 and the
    # rest, each cut to 2), so 2 type leaves of 5 steps each
    family = get_family("convsupersimple")
    step = "exists z:S. P1(z) & !(z = x)"
    start = time.monotonic()
    report = chain_detect(family, [(step, None)], [6, 64])
    assert time.monotonic() - start < 2
    # every x has another element of P1 beside it
    assert report.log_counts == ((math.log(6 ** 6), math.log(64 ** 64)),)
    assert count_family(step, family, [6], budget=10).points[0][1].value \
        == 6 ** 6
    with pytest.raises(FamilyError, match="10 steps.*budget exceeded"):
        count_family(step, family, [6], budget=9)


def test_consumers_turn_an_exceeded_budget_into_their_errors(monkeypatch):
    # a quantified count takes at least 2 steps per type leaf
    monkeypatch.setenv("PFDIM_BUDGET", "1")
    family = get_family("earlyexample")
    with pytest.raises(DimensionError, match="budget exceeded"):
        chain_detect(family, [(QUANTIFIED, None)], [2])
    with pytest.raises(MeasureError, match="budget exceeded"):
        mu_D_sequence(family, QUANTIFIED, "E(x, x)", [2])
    with pytest.raises(FamilyError, match="budget exceeded"):
        FamilyAt(family, 2).spectrum("exists z:S. E(x, z) & E(z, y)")
