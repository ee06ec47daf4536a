"""Finite measure spaces and intersection bounds."""

import gc
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from pfdim import measure
from pfdim.families import get_family
from pfdim.measure import (FiniteMeasureSpace, HypothesisError, MeasureError,
                           Witness,
                           find_k_intersection, k_intersection_bound, mu,
                           mu_D_sequence, pairwise_threshold,
                           pairwise_threshold_check, space_from_json,
                           sufficient_events,
                           truncated_inclusion_exclusion_ok, uniform_space)


def random_space_and_events(rng, max_atoms=20, n_events=None):
    n = rng.randint(1, max_atoms)
    raw = [rng.randint(1, 10) for _ in range(n)]
    total = sum(raw)
    space = FiniteMeasureSpace(tuple(Fraction(w, total) for w in raw))
    k = n_events if n_events is not None else rng.randint(1, 8)
    events = [frozenset(a for a in range(n) if rng.random() < 0.5)
              for _ in range(k)]
    return space, events


class TestSpaceBasics:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(MeasureError):
            FiniteMeasureSpace((Fraction(1, 2), Fraction(1, 4)))

    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError):
            FiniteMeasureSpace((Fraction(3, 2), Fraction(-1, 2)))

    @pytest.mark.parametrize("weights,message", [
        ((Fraction(1, 2), Fraction(1, 4)), "weights sum to 3/4, not 1"),
        ((Fraction(1), Fraction(1)), "weights sum to 2, not 1"),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)),
         "weights sum to 5/6, not 1"),
        ((Fraction(3, 2), Fraction(-1, 2)), "weights must be nonnegative"),
        ((Fraction(-1, 2), Fraction(1, 4)), "weights must be nonnegative"),
        ((), "a measure space needs at least one atom")])
    def test_refusal_messages(self, weights, message):
        with pytest.raises(MeasureError) as exc:
            FiniteMeasureSpace(weights)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30)
           .filter(any), st.integers(1, 50))
    def test_integer_weights_over_the_least_common_denominator(self, raw,
                                                               split):
        total = sum(raw)
        # one weight in pieces, so the denominators differ
        weights = [Fraction(w, total) for w in raw[:-1]] + [
            Fraction(raw[-1], total * split)] * split
        space = FiniteMeasureSpace(tuple(weights))
        assert space.scale == math.lcm(*(w.denominator for w in weights))
        for w, i in zip(space.weights, space.integer_weights):
            assert type(i) is int and i == w * space.scale
        # derived from the weights: left out of equality and repr
        assert space == FiniteMeasureSpace(tuple(weights))
        assert repr(space) == f"FiniteMeasureSpace(weights={space.weights!r})"

    def test_mu_is_additive_on_disjoint_parts(self):
        space = uniform_space(6)
        assert mu(space, [0, 1]) + mu(space, [2, 3, 4]) == mu(
            space, [0, 1, 2, 3, 4])
        assert mu(space, range(6)) == 1

    def test_json_roundtrip(self):
        text = '{"weights": ["1/4", "1/4", "1/4", 0, "1/4"], "events": [[0, 1], [2]]}'
        space, events = space_from_json(text)
        assert space.weights == (Fraction(1, 4),) * 3 + (0, Fraction(1, 4))
        assert events == [frozenset({0, 1}), frozenset({2})]

    def test_malformed_json(self):
        with pytest.raises(MeasureError):
            space_from_json(json.dumps({"weights": ["x/y"]}))


class TestThresholds:
    @pytest.mark.parametrize("eps,n", [
        (Fraction(1, 2), 4), (Fraction(1, 3), 9), (Fraction(1, 4), 16)])
    def test_pairwise_threshold_values(self, eps, n):
        assert pairwise_threshold(eps) == n

    def test_threshold_requires_valid_eps(self):
        with pytest.raises(HypothesisError):
            pairwise_threshold(Fraction(0))
        with pytest.raises(HypothesisError):
            pairwise_threshold(Fraction(2, 3))

    def test_k_intersection_bound(self):
        eps = Fraction(1, 3)
        assert k_intersection_bound(eps, 1) == eps
        assert k_intersection_bound(eps, 2) == eps ** 3
        assert k_intersection_bound(eps, 3) == eps ** 9

    def test_sufficient_events_monotone(self):
        eps = Fraction(1, 3)
        assert sufficient_events(eps, 2) <= sufficient_events(eps, 3)


class TestIntersectionTheorems:
    def test_k_intersections_never_violate_bound(self):
        rng = random.Random(71)
        for _ in range(300):
            space, events = random_space_and_events(rng)
            measures = [mu(space, e) for e in events]
            if min(measures) == 0 or min(measures) > Fraction(1, 2):
                continue
            for k in (1, 2, 3, 4):
                try:
                    w = find_k_intersection(space, events, k)
                except HypothesisError:
                    continue
                if w is not None:
                    assert len(w.indices) == k
                    assert w.measure >= w.bound

    def test_no_cyclic_garbage(self):
        # the depth-first search was a recursive closure, a reference
        # cycle left behind by every search
        space = uniform_space(8)
        events = [frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5}),
                  frozenset({0, 2, 4, 6}), frozenset({1, 2, 3, 7}),
                  frozenset({2, 5, 6, 7})]
        find_k_intersection(space, events, 2)
        gc.collect()
        gc.disable()
        try:
            found = [find_k_intersection(space, events, k).indices
                     for k in (1, 2, 3)]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert found == [(0,), (0, 1), (0, 1, 2)]

    def test_pairwise_check_on_uniform_space(self):
        eps = Fraction(1, 3)
        n = pairwise_threshold(eps)
        space = uniform_space(3)
        events = [frozenset({i % 3}) for i in range(n)]
        w = pairwise_threshold_check(space, events, eps)
        assert len(w.indices) == 2
        assert w.measure >= eps ** 3

    def test_pairwise_check_rejects_small_event(self):
        space = uniform_space(4)
        events = [frozenset({0})] * 10
        with pytest.raises(HypothesisError):
            pairwise_threshold_check(space, events, Fraction(1, 2))

    def test_truncated_inclusion_exclusion(self):
        rng = random.Random(73)
        for _ in range(300):
            space, events = random_space_and_events(rng)
            assert truncated_inclusion_exclusion_ok(space, events)


class TestMuDSequence:
    def test_big_class_ratio_is_half(self):
        fam = get_family("rank2classes")
        ratios = mu_D_sequence(fam, "E(x, x)", "E(x, y)", [4, 6, 8],
                               x_selector="big-class")
        assert ratios == [Fraction(1, 2)] * 3

    def test_empty_d_raises(self):
        fam = get_family("convsupersimple")
        with pytest.raises(MeasureError):
            mu_D_sequence(fam, "P1(x) & !(P1(x))", "P1(x)", [4])


# ---------------------------------------------------------------------------
# the witness searches against a plain lexicographic scan over Fraction sums


def scan_k_intersection(space, events, k):
    measures = [mu(space, e) for e in events]
    if min(measures) == 0:
        raise HypothesisError("an event has measure 0")
    eps = min(min(measures), Fraction(1, 2))
    bound = k_intersection_bound(eps, k)
    if k == 1:
        best = max(range(len(events)), key=measures.__getitem__)
        return Witness((best,), measures[best], bound)
    for combo in combinations(range(len(events)), k):
        val = mu(space, frozenset.intersection(*[events[i] for i in combo]))
        if val >= bound:
            return Witness(combo, val, bound)
    if len(events) < measure.sufficient_events(eps, k):
        raise HypothesisError("too few events")
    raise MeasureError("no k-subset met the bound")


def scan_pairwise(space, events, eps):
    if len(events) < measure.pairwise_threshold(eps):
        raise HypothesisError("too few events")
    if any(mu(space, e) < eps for e in events):
        raise HypothesisError("an event has measure below eps")
    bound, best = eps ** 3, None
    for i, j in combinations(range(len(events)), 2):
        val = mu(space, events[i] & events[j])
        if val >= bound:
            return Witness((i, j), val, bound)
        if best is None or val > best.measure:
            best = Witness((i, j), val, bound)
    raise MeasureError(f"(best {best}) although the hypotheses hold")


def outcome(search, *args):
    """The witness, or the class of the error (and, for a violation, the
    best pair its message names)."""
    try:
        return search(*args)
    except HypothesisError:
        return HypothesisError
    except MeasureError as exc:
        return MeasureError, str(exc).partition("(best ")[2].partition(
            ") although")[0]


def label(result):
    return ("witness" if isinstance(result, Witness) else
            "hypothesis" if result is HypothesisError else "violation")


def rational_space(raw):
    return FiniteMeasureSpace(tuple(Fraction(w, sum(raw)) for w in raw))


@st.composite
def k_problems(draw):
    """(space, events, k): rational weights with some zero atoms and sparse
    or dense events; or the benchmark's shape, disjoint triples of which
    the last few (about k) also share atom 0."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        n_events = draw(st.integers(k, 24))
        n_atoms = 3 * n_events + 2
        atoms = draw(st.permutations(range(1, n_atoms)))
        shared = min(n_events, max(1, k + draw(st.integers(-1, 1))))
        events = [frozenset(atoms[3 * i:3 * i + 3]) | (
            {0} if i >= n_events - shared else set())
            for i in range(n_events)]
        raw = draw(st.lists(st.integers(1, 9), min_size=n_atoms,
                            max_size=n_atoms))
    else:
        n_atoms = draw(st.integers(1, 30))
        raw = draw(st.lists(st.integers(0, 9), min_size=n_atoms,
                            max_size=n_atoms))
        raw[-1] += 1  # some atom has positive weight
        density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        events = [frozenset(a for a in range(n_atoms)
                            if rng.random() < density)
                  for _ in range(draw(st.integers(k, 24)))]
    return rational_space(raw), events, k


@st.composite
def pairwise_problems(draw, max_events=None):
    """(space, events, eps): up to N(eps) + 1 events (or max_events), each
    a window of a cyclic order of the atoms holding a 1/eps_den share of
    them or one more, on uniform or random positive weights."""
    eps_den = draw(st.sampled_from([2, 3, 4]))
    n_atoms = eps_den * draw(st.integers(1, 6))
    raw = draw(st.one_of(st.just([1] * n_atoms), st.lists(
        st.integers(1, 9), min_size=n_atoms, max_size=n_atoms)))
    order = draw(st.permutations(range(n_atoms)))
    width = n_atoms // eps_den + draw(st.integers(0, 1))
    starts = draw(st.lists(st.integers(0, n_atoms - 1), min_size=2,
                           max_size=max_events or eps_den ** 2 + 1))
    events = [frozenset(order[(s + t) % n_atoms] for t in range(width))
              for s in starts]
    return rational_space(raw), events, Fraction(1, eps_den)


class TestWitnessSearchDifferential:
    @settings(max_examples=150, deadline=None)
    @given(k_problems(), st.booleans())
    def test_k_intersection_matches_the_plain_scan(self, problem, lenient):
        # lenient: no sufficient event count, so a miss is a violation
        with mock.patch.object(measure, "sufficient_events",
                               (lambda eps, k: 0) if lenient
                               else measure.sufficient_events):
            want = outcome(scan_k_intersection, *problem)
            got = outcome(find_k_intersection, *problem)
        event(f"k={problem[2]}: {label(want)}")
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(lambda lenient: st.tuples(
        pairwise_problems(max_events=3 if lenient else None),
        st.just(lenient))))
    def test_pairwise_check_matches_the_plain_scan(self, drawn):
        # lenient: any two events are enough, so a violation can happen
        problem, lenient = drawn
        with mock.patch.object(measure, "pairwise_threshold",
                               (lambda eps: 2) if lenient
                               else measure.pairwise_threshold):
            want = outcome(scan_pairwise, *problem)
            got = outcome(pairwise_threshold_check, *problem)
        event(label(want))
        assert got == want
