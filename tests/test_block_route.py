"""Differential tests: the block route (``aggregate_count``) against the
enumeration engine (``counting.count``) on the materialized structure.

Formulas are random quantifier-free combinations of the atoms each family
supports, sometimes under one top-level binder; ``y`` and ``z`` are either
counted or bound to a selector's element or to an arbitrary element.  The
block route must return the engine's count, and must decline (return
``None``) exactly when the formula has two counted variables or a binder,
or when a ``convsupersimple`` count is given parameters.
"""

import functools

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from pfdim.counting import count
from pfdim.families import (ElemRef, FamilyError, aggregate_count,
                            family_count, family_selector, family_signature,
                            family_summary, generate, get_family,
                            list_families)
from pfdim.logic import free_variables
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
            out.append(family_selector(family, name, index)["y"])
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
    agg = aggregate_count(family, phi, index, params)
    event("declined" if declines else f"{len(counted)} counted")
    if declines:
        assert agg is None
        return
    assert agg is not None
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
    ref = family_selector(family, selector, 64)["y"]
    expected = (sum(summary.class_sizes)
                - summary.class_sizes[ref.class_index] + plus)
    assert family_count(family, text, 64, selector=selector).value == expected
