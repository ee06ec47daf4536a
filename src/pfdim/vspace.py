"""Exact counting for one-vector-variable definable sets over a finite
vector space (V, F) with F = GF(q).

The independence atom theta_n(u+w1,...,u+wm, w1',...,wm'') holds iff either

* u lies outside span(w, w') and there is no nontrivial relation
  sum c_i w_i + sum d_j w_j' = 0 with sum c_i = 0          (size |V| - |F|^rank, or 0)
* w, w' are independent and u = sum c_i w_i + sum d_j w_j' with
  sum c_i != -1                                            (size |F|^(m+m') - |F|^(m+m'-1))

so every count is one of finitely many polynomials in (|V|, |F|), selected
by rank conditions on the parameter vectors.  Boolean combinations reduce
to counting u in an intersection of cosets minus a union of cosets, done
here by inclusion-exclusion over affine intersections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from . import Count, PfdimError, _nonempty_meets, gf

if TYPE_CHECKING:
    from .logic import FiniteStructure


class VSpaceError(PfdimError):
    pass


# ---------------------------------------------------------------------------
# Polynomials in (V, F)


@dataclass(frozen=True)
class VFPolynomial:
    """Bivariate polynomial over Q in V = |V| and F = |F|."""
    terms: Tuple[Tuple[Tuple[int, int], Fraction], ...]  # ((vPow, fPow), coeff)

    @staticmethod
    def from_dict(d: Dict[Tuple[int, int], Fraction]) -> "VFPolynomial":
        items = tuple(sorted((k, Fraction(v)) for k, v in d.items() if v != 0))
        return VFPolynomial(items)

    @staticmethod
    def constant(c) -> "VFPolynomial":
        return VFPolynomial.from_dict({(0, 0): Fraction(c)})

    @staticmethod
    def monomial(vpow: int, fpow: int, c=1) -> "VFPolynomial":
        return VFPolynomial.from_dict({(vpow, fpow): Fraction(c)})

    def as_dict(self) -> Dict[Tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "VFPolynomial") -> "VFPolynomial":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, Fraction(0)) + v
        return VFPolynomial.from_dict(d)

    def __sub__(self, other: "VFPolynomial") -> "VFPolynomial":
        return self + other * -1

    def __mul__(self, other) -> "VFPolynomial":
        if isinstance(other, VFPolynomial):
            d: Dict[Tuple[int, int], Fraction] = {}
            for (v1, f1), c1 in self.terms:
                for (v2, f2), c2 in other.terms:
                    k = (v1 + v2, f1 + f2)
                    d[k] = d.get(k, Fraction(0)) + c1 * c2
            return VFPolynomial.from_dict(d)
        return VFPolynomial.from_dict({k: c * Fraction(other)
                                       for k, c in self.terms})

    def evaluate(self, V: int, F: int) -> Fraction:
        return sum((c * V ** vp * F ** fp for (vp, fp), c in self.terms),
                   Fraction(0))

    def evaluate_count(self, V: int, F: int) -> Count:
        val = self.evaluate(V, F)
        if val.denominator != 1 or val < 0:
            raise VSpaceError(f"polynomial value {val} is not a cardinality")
        return Count(int(val))

    def to_json_dict(self) -> dict:
        return {"terms": [{"vPow": vp, "fPow": fp,
                           "coeff": {"num": c.numerator, "den": c.denominator}}
                          for (vp, fp), c in self.terms]}


ZERO = VFPolynomial(())


# ---------------------------------------------------------------------------
# Ambient space handling


@dataclass(frozen=True)
class Ambient:
    """Coordinate view of a 2-sorted (V, F) structure."""
    F: gf.GF
    dim: int

    @property
    def size(self) -> int:
        return self.F.q ** self.dim

    def decode(self, vid: int) -> Tuple[int, ...]:
        return gf.vec_decode(vid, self.F.q, self.dim)


# the closed forms below read nothing of a materialized structure but its
# sort sizes, so they take the coordinate view itself as well
Space = Union["FiniteStructure", Ambient]


# at most this many vectors, the bound families.MAX_UNIVERSE puts on any sort
MAX_VECTORS = 200_000
# at most this many nonempty intersections in one coset difference's
# inclusion-exclusion: k equal excluded cosets meet in 2^k ways
MAX_MEETS = 2 ** 16


def vector_space_ambient(q: int, dim: int) -> Ambient:
    """The coordinate view of GF(q)^dim, after the checks that
    ``families.make_vector_space`` makes too; the closed forms here need
    nothing more, so the structure itself is never built."""
    if q not in gf.SUPPORTED_Q:
        raise VSpaceError(f"q={q} is not a supported prime power")
    if dim < 1 or dim > 6:
        raise VSpaceError("dim must be in 1..6")
    if q ** dim > MAX_VECTORS:
        raise VSpaceError("vector sort exceeds size budget")
    return Ambient(gf.make_field(q), dim)


def ambient_of(space: Space) -> Ambient:
    if isinstance(space, Ambient):
        return space
    q = space.sizes["K"]
    nvec = space.sizes["V"]
    dim = 0
    while q ** dim < nvec:
        dim += 1
    if q ** dim != nvec:
        raise VSpaceError("vector sort size is not a power of the field size")
    return Ambient(gf.make_field(q), dim)


def _decode_ids(amb: Ambient, vector_ids: Sequence[int]) -> List[Tuple[int, ...]]:
    for v in vector_ids:
        if not 0 <= v < amb.size:
            raise VSpaceError(f"vector id {v} outside the vector sort")
    return [amb.decode(v) for v in vector_ids]


# ---------------------------------------------------------------------------
# The theta case analysis


@dataclass(frozen=True)
class ThetaCase:
    """Count of {u : theta(u+w_1..u+w_m, w')} split by disjunct:
    'outside the span' (first) plus 'inside the span with coefficient sum
    != -1' (second)."""
    count: Count
    poly: VFPolynomial
    guard: str
    first_count: Count
    first_poly: VFPolynomial
    second_count: Count
    second_poly: VFPolynomial


def _zero_sum_relation_exists(amb: Ambient, w: List[Tuple[int, ...]],
                              wp: List[Tuple[int, ...]]) -> bool:
    """Nontrivial relation sum c_i w_i + sum d_j w_j' = 0 with sum c_i = 0.

    Append a tracking coordinate that is 1 on the w_i and 0 on the w_j':
    such a relation is exactly a nontrivial null vector of the augmented
    rows, i.e. the augmented rank drops below m + m'."""
    rows = [tuple(v) + (1,) for v in w] + [tuple(v) + (0,) for v in wp]
    return gf.rank(amb.F, rows) < len(rows)


def count_theta_case(space: Space, w_ids: Sequence[int],
                     wprime_ids: Sequence[int]) -> ThetaCase:
    """|{u : theta(u+w_1, ..., u+w_m, w_1', ..., w_m'')}| by the
    independence case analysis, with the selecting polynomial."""
    amb = ambient_of(space)
    w = _decode_ids(amb, w_ids)
    wp = _decode_ids(amb, wprime_ids)
    m, mp = len(w), len(wp)
    n = m + mp
    rank_w = gf.rank(amb.F, w + wp)
    independent = rank_w == n
    q = amb.F.q
    V = amb.size

    if m == 0:
        # u does not occur: the atom is a pure parameter condition
        if independent:
            full = VFPolynomial.monomial(1, 0)
            return ThetaCase(Count(V), full, "w' independent: u unconstrained",
                             Count(V), full, Count(0), ZERO)
        return ThetaCase(Count(0), ZERO, "w' dependent: empty",
                         Count(0), ZERO, Count(0), ZERO)

    if _zero_sum_relation_exists(amb, w, wp):
        first_count, first_poly = Count(0), ZERO
        g1 = "zero-sum relation among w,w': first disjunct empty"
    else:
        first_poly = VFPolynomial.monomial(1, 0) - VFPolynomial.monomial(0, rank_w)
        first_count = Count(V - q ** rank_w)
        g1 = f"no zero-sum relation: complement of a rank-{rank_w} span"
    if independent:
        second_poly = (VFPolynomial.monomial(0, n)
                       - VFPolynomial.monomial(0, n - 1))
        second_count = Count(q ** n - q ** (n - 1))
        g2 = "w,w' independent: span slice with coefficient sum != -1"
    else:
        second_count, second_poly = Count(0), ZERO
        g2 = "w,w' dependent: second disjunct empty"
    return ThetaCase(Count(first_count.value + second_count.value),
                     first_poly + second_poly, f"{g1}; {g2}",
                     first_count, first_poly, second_count, second_poly)


# ---------------------------------------------------------------------------
# Cosets and inclusion-exclusion


@dataclass(frozen=True)
class Coset:
    """point + span(rows); rows need not be independent."""
    point: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]


def _intersect(amb: Ambient, a: Coset, b: Coset) -> Optional[Coset]:
    """Intersection of two cosets: solve t*A - s*B = b.point - a.point for
    the combining coefficients; the null space maps to the intersection's
    direction space."""
    F = amb.F
    columns = [tuple(r) for r in a.rows] + [gf.vec_scale(F, F.neg[1], r)
                                            for r in b.rows]
    rhs = gf.vec_add(F, b.point, gf.vec_scale(F, F.neg[1], a.point))
    # unknowns are the combining coefficients, one per direction vector
    matrix = [tuple(col[coord] for col in columns) for coord in range(amb.dim)]
    sol = gf.solve_affine(F, matrix, rhs)
    if sol is None:
        return None
    particular, null_basis = sol
    na = len(a.rows)

    def through_a(coeffs):
        x = (0,) * amb.dim
        for c, r in zip(coeffs[:na], a.rows):
            x = gf.vec_add(F, x, gf.vec_scale(F, c, r))
        return x

    point = gf.vec_add(F, a.point, through_a(particular))
    direction = tuple(through_a(nv) for nv in null_basis)
    return Coset(point, direction)


def _full_coset(amb: Ambient) -> Coset:
    basis = tuple(tuple(1 if i == j else 0 for j in range(amb.dim))
                  for i in range(amb.dim))
    return Coset((0,) * amb.dim, basis)


@dataclass(frozen=True)
class CosetCount:
    count: Count
    poly: VFPolynomial


def _check_coset(amb: Ambient, c: Coset) -> None:
    for vec in (c.point,) + tuple(c.rows):
        if len(vec) != amb.dim:
            raise VSpaceError(
                f"coset vector {list(vec)} has length {len(vec)}, "
                f"expected dim={amb.dim}")
        # a JSON integer: not true (a bool), 1.0 or "1"
        if not all(type(x) is int and 0 <= x < amb.F.q for x in vec):
            raise VSpaceError(
                f"coset vector {list(vec)} has a coordinate that is not "
                f"an integer in 0..{amb.F.q - 1}")


def coset_spec_from_json(text: str) -> Tuple[List[Coset], List[Coset]]:
    """The include and exclude cosets of a ``vs-count --coset-spec`` file:
    a JSON object whose optional "include" and "exclude" are lists of
    {"point": [...], "rows": [[...], ...]} ("rows" optional).  The
    coordinates are checked against the space by the count."""
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise VSpaceError("coset spec must be a JSON object")
    return _cosets(spec, "include"), _cosets(spec, "exclude")


def _cosets(spec: dict, key: str) -> List[Coset]:
    items = spec.get(key, [])
    if not isinstance(items, list):
        raise VSpaceError(f"coset spec {key!r} must be a list of cosets")
    out = []
    for d in items:
        point = d.get("point") if isinstance(d, dict) else None
        rows = d.get("rows", []) if isinstance(d, dict) else None
        if not (isinstance(point, list) and isinstance(rows, list)
                and all(isinstance(r, list) for r in rows)):
            raise VSpaceError(f"bad coset {d!r}: need a 'point' list and "
                              "optional 'rows' lists")
        out.append(Coset(tuple(point), tuple(map(tuple, rows))))
    return out


def count_coset_difference(space: Space, include: Sequence[Coset],
                           exclude: Sequence[Coset]) -> CosetCount:
    """|(U_1 cap ... cap U_l) \\ (V_1 cup ... cup V_k)| with the matching
    polynomial: |V| + p(|F|) when the intersection is the whole space,
    p(|F|) otherwise."""
    amb = ambient_of(space)
    for c in list(include) + list(exclude):
        _check_coset(amb, c)
    base: Optional[Coset] = _full_coset(amb)
    for U in include:
        base = _intersect(amb, base, U)
        if base is None:
            return CosetCount(Count(0), ZERO)

    total = 0
    coeffs: Dict[Tuple[int, int], int] = {}
    meets = _nonempty_meets(base, exclude,
                            lambda cur, W: _intersect(amb, cur, W))
    for visited, (sub, cur) in enumerate(meets, 1):
        if visited > MAX_MEETS:
            raise VSpaceError(f"the excluded cosets meet in more than "
                              f"{MAX_MEETS} nonempty intersections")
        e = gf.rank(amb.F, list(cur.rows))
        sign = (-1) ** len(sub)
        total += sign * amb.F.q ** e
        # the monomial |V| when the meet is the whole space, else |F|^e
        mono = (1, 0) if e == amb.dim else (0, e)
        coeffs[mono] = coeffs.get(mono, 0) + sign
    return CosetCount(Count(total), VFPolynomial.from_dict(coeffs))
