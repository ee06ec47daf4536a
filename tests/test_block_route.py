"""Differential tests: the block route (``_block_count``) against the
enumeration engine (``counting.count``) on the materialized structure.

Formulas are random quantifier-free combinations of the atoms each family
supports, sometimes under one top-level binder; ``y`` and ``z`` are either
counted or bound to a selector's element or to an arbitrary element.  The
block route must return the engine's count, and must decline (return
its reason) exactly when the formula has two counted variables or a binder,
or when a ``convsupersimple`` count is given parameters.  The route
chooser ``FamilyAt.count`` must return the engine's count either way, and
the family counts built on it (``chain_detect``, ``fmv_spectrum``,
``mu_D_sequence``) must too.  A spectrum, which counts one class per
distinct class size, must equal the counts over every class.  Counting
through one request's shared memo must equal counting each index anew.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from pfdim import families
from pfdim.counting import BudgetExceeded, Count, count
from pfdim.dimension import DimensionError, chain_detect, fmv_spectrum
from pfdim.families import (ElemRef, FamilyAt, FamilyError, _block_count,
                            count_family, family_sequence, family_signature,
                            family_summary, generate, get_family,
                            list_families)
from pfdim.logic import free_variables
from pfdim.measure import MeasureError, mu_D_sequence
from pfdim.parser import parse_formula

FAMILY_IDS = sorted(list_families())
EQUIV_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "E(y, z)", "y = z")


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
            # no selectors and no classes here; the route must decline
            g = draw(st.integers(0, summary.total - 1))
            params[v] = ElemRef(0, g, g)
        elif how != "counted":
            ci = draw(st.integers(0, len(summary.class_sizes) - 1))
            off = draw(st.integers(0, summary.class_sizes[ci] - 1))
            params[v] = summary.element(ci, off)
    return fid, index, text, binder is not None, params


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_block_route_matches_engine(case):
    fid, index, text, has_binder, params = case
    family = get_family(fid)
    phi = parse_formula(text, family_signature(family, index))
    free = [n for n, _ in free_variables(phi)]
    fixed = {k: v.global_id for k, v in params.items() if k in free}
    counted = [n for n in free if n not in fixed]
    declines = (len(counted) > 1 or has_binder
                or (fid == "convsupersimple" and bool(params)))
    at = FamilyAt(family, index)
    agg = _block_count(at.summary, at.signature, phi, params, counted)
    event("declined" if declines else f"{len(counted)} counted")
    if declines:
        assert isinstance(agg, str)
        return
    assert not isinstance(agg, str)
    expected = count(phi, materialized(fid, index), fixed, counted)
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
# The route chooser

# steps one enumeration may take here (assignments times quantifier visits)
ENUMERATION_WORK = 200_000


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
        # only a declined count enumerates, under the same budget
        with pytest.raises(FamilyError, match="budget exceeded"):
            at.count(phi, params, budget=ENUMERATION_WORK)
        event("too large to enumerate")
        return
    event("block route" if isinstance(
        _block_count(at.summary, at.signature, phi, params, counted), Count)
        else "enumerated")
    assert at.count(phi, params, budget=ENUMERATION_WORK) == expected


QUANTIFIED = "(exists z:S. E(x, z) & !(z = x))"   # x's class has 2+ elements


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


@pytest.mark.parametrize("fid", ["findelta", "stablenonattainability"])
def test_fallback_spectrum_matches_every_class(fid):
    text = "exists z:S. E(x, z) & E(z, y) & !(z = y)"
    at = FamilyAt(get_family(fid), 3)
    spectrum = at.spectrum(text)
    assert at._structure is not None   # the block route declined
    assert spectrum == every_class(at, text)


def test_findelta_spectrum_counts_once_per_class_size(monkeypatch):
    calls = []
    block_count = families._block_count

    def counting(*args):
        calls.append(args)
        return block_count(*args)

    monkeypatch.setattr(families, "_block_count", counting)
    logs = FamilyAt(get_family("findelta"), 64).spectrum("E(x, y)")
    assert len(calls) == 64          # not 64 * 64 classes
    assert len(logs) == 64


# ---------------------------------------------------------------------------
# One memo per request: counting along a family_sequence, with its parses
# and block truths shared across indices, equals counting each index anew

Y_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "E(y, y)")


def step_counts(steps):
    """Each prefix conjunction's count at one index, then the spectrum of
    the first step; an absent selector or a declined count is its error."""
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
    # one counted variable and the block route answers every count
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
# block there and not at 5 or 6: the block shape differs across indices
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


@pytest.mark.parametrize("fid,text,params,reason", [
    ("stablenonattainability", "E(x, y)", {}, "2 counted variables"),
    ("stablenonattainability", "E(x, x) | exists z:S. E(z, x)", {},
     "a quantifier"),
    ("convsupersimple", "P1(x) & !(x = y)", {"y": ElemRef(0, 0, 0)},
     "parameters on a nested-predicate family"),
])
def test_decline_reason_in_error(fid, text, params, reason):
    at = FamilyAt(get_family(fid), 8)
    with pytest.raises(FamilyError) as info:
        at.count(parse_formula(text, at.signature), params)
    assert "size budget exceeded" in str(info.value)
    assert f"the block route declines {reason}" in str(info.value)


def test_consumers_keep_their_errors_when_neither_route_counts():
    family = get_family("stablenonattainability")
    with pytest.raises(DimensionError, match="a quantifier"):
        chain_detect(family, [(QUANTIFIED, None)], [8])
    with pytest.raises(MeasureError, match="size budget exceeded"):
        mu_D_sequence(family, QUANTIFIED, "E(x, x)", [8])
    with pytest.raises(FamilyError, match="a quantifier"):
        FamilyAt(family, 8).spectrum("exists z:S. E(x, z) & E(z, y)")


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
    # 46,656 elements: a binder over them at every assignment is about
    # 2.2e9 steps, over the default budget, so nothing is enumerated
    family = get_family("convsupersimple")
    step = "exists z:S. P1(z) & !(z = x)"
    with pytest.raises(DimensionError, match="budget exceeded.*a quantifier"):
        chain_detect(family, [(step, None)], [6])
    with pytest.raises(FamilyError, match="budget exceeded.*a quantifier"):
        count_family(step, family, [6])


def test_consumers_turn_an_exceeded_budget_into_their_errors(monkeypatch):
    monkeypatch.setenv("PFDIM_BUDGET", "10")
    family = get_family("earlyexample")
    with pytest.raises(DimensionError, match="budget exceeded"):
        chain_detect(family, [(QUANTIFIED, None)], [2])
    with pytest.raises(MeasureError, match="budget exceeded"):
        mu_D_sequence(family, QUANTIFIED, "E(x, x)", [2])
    with pytest.raises(FamilyError, match="budget exceeded"):
        FamilyAt(family, 2).spectrum("exists z:S. E(x, z) & E(z, y)")
