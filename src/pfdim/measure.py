"""Finite probability spaces with exact rational weights, the normalized
counting-measure surrogate, and checks of two intersection bounds:

* among any N(eps) = floor(1/eps^2 + 1/2) events of measure >= eps there is
  a pair with mu(A_i ∩ A_j) >= eps^3, and
* for 0 < eps <= 1/2 there are k events whose intersection has measure at
  least eps^(3^(k-1)).

Everything is exact (the bounds are tight enough at k = 3, 4 that floating
point could mask violations): the witness searches take events as atom
bitmasks and weights as integers over their common denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

from . import PfdimError

if TYPE_CHECKING:
    from .families import FamilyHandle

K_CAP = 5
N_CAP = 24


class MeasureError(PfdimError):
    pass


class HypothesisError(MeasureError):
    """The inputs violate the bound's hypotheses or the search's limits
    (not a theorem failure)."""


Event = FrozenSet[int]


@dataclass(frozen=True)
class FiniteMeasureSpace:
    weights: Tuple[Fraction, ...]
    # the weights as integers over their least common denominator
    scale: int = field(init=False, repr=False, compare=False)
    integer_weights: Tuple[int, ...] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if not self.weights:
            raise MeasureError("a measure space needs at least one atom")
        scale = math.lcm(*(w.denominator for w in self.weights))
        ints = tuple([w.numerator * (scale // w.denominator)
                      for w in self.weights])
        if min(ints) < 0:
            raise MeasureError("weights must be nonnegative")
        if sum(ints) != scale:
            raise MeasureError(
                f"weights sum to {Fraction(sum(ints), scale)}, not 1")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "integer_weights", ints)

    @property
    def atoms(self) -> int:
        return len(self.weights)


def uniform_space(n: int) -> FiniteMeasureSpace:
    return FiniteMeasureSpace(tuple([Fraction(1, n)] * n))


def mu(space: FiniteMeasureSpace, event: Sequence[int]) -> Fraction:
    """Exact measure of a set of atoms."""
    ids = set(event)
    if any(not 0 <= a < space.atoms for a in ids):
        raise MeasureError("event references an atom outside the space")
    return sum((space.weights[a] for a in ids), Fraction(0))


def space_from_json(text: str) -> Tuple[FiniteMeasureSpace, List[Event]]:
    data = json.loads(text)
    try:
        weights = data["weights"]
        # a weight is a JSON integer or a rational string: not true or 0.5
        if not isinstance(weights, list) or not all(
                type(w) is int or isinstance(w, str) for w in weights):
            raise TypeError("weights must be integers or rational strings")
        weights = tuple(Fraction(w) for w in weights)
        events = data.get("events", [])
        # an atom is a JSON integer: not true (a bool), 1.0 or "1"
        if not isinstance(events, list) or not all(
                isinstance(e, list) and all(type(a) is int for a in e)
                for e in events):
            raise TypeError("events must be lists of integer atoms")
        events = [frozenset(e) for e in events]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MeasureError(f"malformed measure-space JSON: {exc}") from exc
    space = FiniteMeasureSpace(weights)
    if any(not 0 <= a < space.atoms for e in events for a in e):
        raise MeasureError("an event references an atom outside the space")
    return space, events


# ---------------------------------------------------------------------------
# normalized counting measure along a family


def mu_D_sequence(family: FamilyHandle, d_formula: str, x_formula: str,
                  indices: Sequence[int],
                  d_selector: Optional[str] = None,
                  x_selector: Optional[str] = None) -> List[Fraction]:
    """Exact ratios |X ∩ D| / |D| at the sorted distinct indices, where D
    and X are definable sets of single elements (parameters fixed by the
    named selectors) in the same counted variable."""
    from . import families

    def ratio(at):
        (phi_d, _), (phi_xd, params) = at.conjunctions(
            [(d_formula, d_selector), (x_formula, x_selector)])
        d_vars = at.counted(phi_d, params)
        xd_vars = at.counted(phi_xd, params)
        if len(xd_vars) > 1 or xd_vars != d_vars:
            raise MeasureError(
                f"D and X must count at most one variable, the same one: "
                f"D counts {d_vars}, X and D together {xd_vars}")
        try:
            cd = at.count(phi_d, params)
            cxd = at.count(phi_xd, params)
        except families.FamilyError as exc:
            raise MeasureError(str(exc)) from exc
        if cd.value == 0:
            raise MeasureError("D is empty")
        return Fraction(cxd.value, cd.value)

    return [r for _, r in families.family_sequence(family, indices, ratio)]


# ---------------------------------------------------------------------------
# intersection bounds


def k_intersection_bound(eps: Fraction, k: int) -> Fraction:
    return eps ** (3 ** (k - 1))


@dataclass(frozen=True)
class Witness:
    indices: Tuple[int, ...]
    measure: Fraction
    bound: Fraction


def _integer_events(space: FiniteMeasureSpace, events: Sequence[Event]):
    """(masks, weigh, scale): the events as atom bitmasks, and exactly
    mu(A) == Fraction(weigh(mask of A), scale)."""
    if any(not 0 <= a < space.atoms for e in events for a in e):
        raise MeasureError("event references an atom outside the space")
    weights, scale = space.integer_weights, space.scale

    def weigh(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            mask ^= low
        return total

    return [sum(1 << a for a in e) for e in events], weigh, scale


def find_k_intersection(space: FiniteMeasureSpace, events: Sequence[Event],
                        k: int) -> Witness:
    """The lexicographically first k-subset of events whose intersection
    has measure at least eps^(3^(k-1)), eps = min event measure (capped at
    1/2); at k = 1, the first event of largest measure.  Depth first in
    lexicographic order, cutting a prefix whose intersection is already
    below the bound (more events only shrink it).  When the hypotheses hold
    a witness always exists, so a miss after the exhaustive search raises."""
    if not 1 <= k <= K_CAP:
        raise HypothesisError(f"k must be in 1..{K_CAP}")
    if len(events) > N_CAP:
        raise HypothesisError(f"at most {N_CAP} events supported")
    if len(events) < k:
        raise HypothesisError("fewer events than k")
    masks, weigh, scale = _integer_events(space, events)
    measures = [weigh(m) for m in masks]
    if min(measures) == 0:
        raise HypothesisError("an event has measure 0")
    # the bound only needs a lower bound <= 1/2
    eps = min(Fraction(min(measures), scale), Fraction(1, 2))
    bound = k_intersection_bound(eps, k)
    if k == 1:
        best = max(range(len(events)), key=measures.__getitem__)
        return Witness((best,), Fraction(measures[best], scale), bound)
    need, n = math.ceil(bound * scale), len(events)
    # an explicit stack, not a recursive closure, so no call leaves a
    # reference cycle: prefix[j] is the j-th chosen event and meets[j] the
    # intersection of the first j (-1: the empty prefix meets every atom)
    prefix: List[int] = []
    meets = [-1]
    i = 0
    while True:
        if i > n - k + len(prefix):    # no candidate left at this depth
            if not prefix:
                break
            i = prefix.pop() + 1
            meets.pop()
            continue
        meet = meets[-1] & masks[i]
        value = weigh(meet)
        if value >= need:
            if len(prefix) + 1 == k:
                return Witness(tuple(prefix) + (i,), Fraction(value, scale),
                               bound)
            prefix.append(i)
            meets.append(meet)
        i += 1
    if n < sufficient_events(eps, k):
        raise HypothesisError(
            f"{n} events are too few to guarantee a witness for "
            f"k={k} at eps={eps}")
    raise MeasureError(
        "no k-subset met the bound although the hypotheses hold — this "
        "contradicts the intersection theorem and indicates a bug")


def sufficient_events(eps: Fraction, k: int) -> int:
    """Event count that certifies a witness exists: the pairwise threshold
    applied to the (k-1)-level bound, following the recursive proof."""
    if k <= 1:
        return 1
    prev = k_intersection_bound(eps, k - 1)
    return pairwise_threshold(min(prev, Fraction(1, 2)))


def pairwise_threshold(eps: Fraction) -> int:
    """N(eps) = floor(1/eps^2 + 1/2): enough events of measure >= eps to
    force a pair with intersection measure >= eps^3."""
    if not 0 < eps <= Fraction(1, 2):
        raise HypothesisError("need 0 < eps <= 1/2")
    x0 = 1 / eps ** 2 + Fraction(1, 2)
    return math.floor(x0)


def pairwise_threshold_check(space: FiniteMeasureSpace,
                             events: Sequence[Event],
                             eps: Fraction) -> Witness:
    """Verify that some pair among >= N(eps) events of measure >= eps has
    intersection measure >= eps^3.  A miss contradicts the theorem and
    raises; callers treat that as a defect, not as data."""
    N = pairwise_threshold(eps)
    if len(events) < N:
        raise HypothesisError(f"need at least N(eps)={N} events, got {len(events)}")
    masks, weigh, scale = _integer_events(space, events)
    low = [i for i, m in enumerate(masks) if weigh(m) < eps * scale]
    if low:
        raise HypothesisError(f"events {low} have measure below eps")
    bound = eps ** 3
    need, best = math.ceil(bound * scale), None
    for i, j in combinations(range(len(masks)), 2):
        value = weigh(masks[i] & masks[j])
        if value >= need:
            return Witness((i, j), Fraction(value, scale), bound)
        if best is None or value > best[0]:
            best = (value, (i, j))
    best = Witness(best[1], Fraction(best[0], scale), bound)
    raise MeasureError(
        f"no pair reached eps^3={bound} (best {best}) although the "
        "hypotheses hold — this contradicts the pairwise threshold theorem")


def truncated_inclusion_exclusion_ok(space: FiniteMeasureSpace,
                                     events: Sequence[Event]) -> bool:
    """1 >= sum mu(A_i) - sum_{i<j} mu(A_i ∩ A_j), a finite-additivity
    consequence; exact check."""
    singles = sum((mu(space, e) for e in events), Fraction(0))
    pairs = sum((mu(space, a & b) for a, b in combinations(events, 2)),
                Fraction(0))
    return 1 >= singles - pairs
