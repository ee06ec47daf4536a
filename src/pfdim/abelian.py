"""Exact and symbolic counting of standard-form definable sets in the
homocyclic groups G = (Z/p^nZ)^m.

A *standard atom* is ``t = 0`` or ``p^l | t`` with ``t`` an integer-linear
term over counted variables x1..xr and parameter variables y1..ys.  For a
conjunction with one counted variable, every positive atom defines the
empty set or a coset of a subgroup in the chain 1 < pG[p^2] < ... < G, so a
conjunction is resolved by merging per-coordinate congruences; negated
atoms are removed by inclusion-exclusion.  The symbolic route packages the
same case analysis into finitely many exponent polynomials
``sum c_ij X^(u(iv+j))`` with executable guards over parameter valuations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .counting import Count
from .gf import is_prime
from .logic import PfdimError

NEGATION_CAP = 12
SYMBOLIC_NEGATION_CAP = 4
# a symbolic catalog holds (2d + 3) regimes times the nonemptiness patterns
# of each counted variable, multiplied over the variables; past this many
# cases it is refused before it is built
SYMBOLIC_CASE_CAP = 10 ** 5
MAX_COUNTED_VARS = 3


class AbelianError(PfdimError):
    pass


@dataclass(frozen=True)
class LinearTerm:
    """Integer-linear term a1*x1 + ... + ar*xr + b1*y1 + ... + bs*ys."""
    x_coeffs: Tuple[int, ...]
    y_coeffs: Tuple[int, ...] = ()

    @property
    def r(self) -> int:
        return len(self.x_coeffs)

    @property
    def s(self) -> int:
        return len(self.y_coeffs)

    def __str__(self) -> str:
        parts = [f"{a}*x{i+1}" for i, a in enumerate(self.x_coeffs) if a]
        parts += [f"{b}*y{j+1}" for j, b in enumerate(self.y_coeffs) if b]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class StandardAtom:
    """t = 0 ('eq') or base^level | t ('div'); base defaults to the group
    prime.  A coprime base collapses to a trivially true atom."""
    kind: str  # 'eq' | 'div'
    term: LinearTerm
    level: int = 0
    negated: bool = False
    base: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("eq", "div"):
            raise AbelianError(f"unknown atom kind {self.kind!r}")
        if self.kind == "div" and self.level < 1:
            raise AbelianError("divisibility atoms need level >= 1")

    def __str__(self) -> str:
        neg = "!" if self.negated else ""
        if self.kind == "eq":
            return f"{neg}({self.term} = 0)"
        base = self.base if self.base is not None else "p"
        return f"{neg}div({base}^{self.level}, {self.term})"


def _vp(k: int, p: int, cap: int) -> int:
    """p-adic valuation of k, truncated at cap (and for k == 0)."""
    if k == 0:
        return cap
    v = 0
    while v < cap and k % p == 0:
        k //= p
        v += 1
    return v


def _normalize_atom(atom: StandardAtom, p: int) -> Optional[StandardAtom]:
    """Rewrite base^l | t into p^(l*v_p(base)) | t; None means trivially
    true (coprime base: every element of a p-group is q-divisible)."""
    if atom.kind != "div" or atom.base is None or atom.base == p:
        return atom
    if atom.base < 2:
        raise AbelianError("divisibility base must be >= 2")
    v = 0
    b = atom.base
    while b % p == 0:
        b //= p
        v += 1
    lev = atom.level * v
    if lev == 0:
        if atom.negated:
            # negation of a trivially true atom: canonical unsatisfiable atom
            zero = LinearTerm((0,) * atom.term.r, (0,) * atom.term.s)
            return StandardAtom("eq", zero, negated=True)
        return None
    return StandardAtom("div", atom.term, lev, atom.negated)


# ---------------------------------------------------------------------------
# Concrete counting


def _substitute(atom: StandardAtom, params: Sequence[Tuple[int, ...]],
                m: int, var: int) -> Tuple[int, Tuple[int, ...]]:
    """Collapse the term to k*x_var + c with c an m-tuple, treating every
    counted variable other than ``var`` as absent (coefficient must be 0)."""
    for i, a in enumerate(atom.term.x_coeffs):
        if i != var and a != 0:
            raise AbelianError("atom touches a second counted variable")
    k = atom.term.x_coeffs[var] if var < atom.term.r else 0
    if len(params) != atom.term.s:
        raise AbelianError("parameter count does not match the term")
    c = [0] * m
    for b, y in zip(atom.term.y_coeffs, params):
        if len(y) != m:
            raise AbelianError("parameter tuple has wrong length")
        for t in range(m):
            c[t] += b * y[t]
    return k, tuple(c)


def _atom_constraint(atom: StandardAtom, k: int, c: Tuple[int, ...],
                     p: int, n: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Solution set of one positive atom as a congruence x_t ≡ s_t (mod p^e)
    per coordinate, or None if empty.  e = 0 with s = 0 means 'all of G'."""
    l_eff = n if atom.kind == "eq" else min(atom.level, n)
    if l_eff == 0:
        return (0, tuple(0 for _ in c))
    mod = p ** l_eff
    j = _vp(k % mod, p, l_eff)
    if j == l_eff:
        # no constraint on x; the atom is a condition on parameters
        if any(ct % mod for ct in c):
            return None
        return (0, tuple(0 for _ in c))
    pj = p ** j
    if any(ct % pj for ct in c):
        return None
    unit = (k % mod) // pj
    sub = mod // pj  # p^(l_eff - j)
    inv = pow(unit, -1, sub)
    s = tuple((-(ct // pj) * inv) % sub for ct in c)
    return (l_eff - j, s)


def _merge(cur: Tuple[int, Tuple[int, ...]],
           new: Tuple[int, Tuple[int, ...]], p: int):
    """Intersect two coordinatewise congruence systems; None if disjoint."""
    (e1, s1), (e2, s2) = cur, new
    if e1 < e2:
        (e1, s1), (e2, s2) = (e2, s2), (e1, s1)
    q = p ** e2
    if any((a - b) % q for a, b in zip(s1, s2)):
        return None
    return (e1, s1)


def _solve_positive(atoms: Sequence[StandardAtom],
                    params: Sequence[Tuple[int, ...]],
                    p: int, n: int, m: int, var: int) -> Optional[int]:
    """Count of the conjunction of positive atoms, or None if empty."""
    cur = (0, tuple([0] * m))
    for atom in atoms:
        k, c = _substitute(atom, params, m, var)
        constraint = _atom_constraint(atom, k, c, p, n)
        if constraint is None:
            return None
        cur = _merge(cur, constraint, p)
        if cur is None:
            return None
    e = cur[0]
    return p ** ((n - e) * m)


def _check_prime(p: int):
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise AbelianError(f"p={p}: {exc}") from None
    if not prime:
        raise AbelianError(f"p={p} is not prime")


def _split_atoms(atoms: Sequence[StandardAtom], p: int):
    pos, neg = [], []
    for a in atoms:
        na = _normalize_atom(a, p)
        if na is None:
            continue
        if na.negated:
            neg.append(StandardAtom(na.kind, na.term, na.level, False))
        else:
            pos.append(na)
    return pos, neg


def exact_count(atoms: Sequence[StandardAtom],
                params: Sequence[Tuple[int, ...]],
                p: int, n: int, m: int) -> Count:
    """|{x in G : conjunction holds}| for one counted variable, by the
    coset-chain case analysis — no element enumeration."""
    if any(a.term.r != 1 for a in atoms):
        raise AbelianError("the exact count takes one counted variable "
                           "(r = 1); use the symbolic route for r > 1")
    _check_prime(p)
    if n < 1 or m < 1:
        raise AbelianError("need n >= 1 and m >= 1")
    pos, neg = _split_atoms(atoms, p)
    if len(neg) > NEGATION_CAP:
        raise AbelianError(f"more than {NEGATION_CAP} negated atoms")
    total = 0
    for size in range(len(neg) + 1):
        for sub in combinations(neg, size):
            cnt = _solve_positive(list(pos) + list(sub), params, p, n, m, 0)
            if cnt is not None:
                total += (-1) ** size * cnt
    return Count(total)


def brute_count(atoms: Sequence[StandardAtom],
                params: Sequence[Tuple[int, ...]],
                p: int, n: int, m: int) -> Count:
    """Reference oracle: direct enumeration of G = (Z/p^nZ)^m.

    Each atom a*x + c = 0 (or q | a*x + c) is first tabulated per
    coordinate t as the residues r with q | a*r + c_t, where c_t is the
    parameter part; every x in G is then tested against those sets."""
    _check_prime(p)
    mod = p ** n
    tests = []
    for atom in atoms:
        atom = _normalize_atom(atom, p)
        if atom is None:
            continue
        a = atom.term.x_coeffs[0] if atom.term.r else 0
        q = mod if atom.kind == "eq" else p ** min(atom.level, n)
        zs = []
        for t in range(m):
            c = sum(b * y[t] for b, y in zip(atom.term.y_coeffs, params))
            zs.append(frozenset(r for r in range(mod)
                                if (a * r + c) % mod % q == 0))
        tests.append((zs, atom.negated))
    total = 0
    for x in product(range(mod), repeat=m):
        if all(all(map(frozenset.__contains__, zs, x)) != negated
               for zs, negated in tests):
            total += 1
    return Count(total)


# ---------------------------------------------------------------------------
# Symbolic counting


@dataclass(frozen=True)
class ExponentPolynomial:
    """sum over (i, j) of c_ij * X^(u*(i*v + j)), 0 <= i <= k,
    -k*d <= j <= k*d."""
    k: int
    d: int
    coeffs: Tuple[Tuple[Tuple[int, int], int], ...]  # ((i, j), c)

    def __post_init__(self):
        for (i, j), _c in self.coeffs:
            if not (0 <= i <= self.k and -self.k * self.d <= j <= self.k * self.d):
                raise AbelianError(f"index ({i},{j}) outside S({self.d},{self.k})")

    @cached_property
    def _rows(self) -> Tuple[dict, ...]:
        # built once: a catalog shares one polynomial among many cases
        return tuple([{"i": i, "j": j, "c": c}
                      for (i, j), c in sorted(self.coeffs)])

    def to_json_dict(self) -> dict:
        """``coeffs`` is one tuple shared by every call: read it only."""
        return {"k": self.k, "d": self.d, "coeffs": self._rows}

    def __str__(self) -> str:
        parts = []
        for (i, j), c in sorted(self.coeffs):
            if c == 0:
                continue
            exp = []
            if i:
                exp.append(f"{i}v" if i != 1 else "v")
            if j:
                exp.append(f"{j:+d}" if exp else str(j))
            mono = f"X^(u({''.join(exp)}))" if exp else "1"
            parts.append(f"{c:+d}*{mono}")
        return " ".join(parts) if parts else "0"


def make_poly(k: int, d: int, coeffs: Dict[Tuple[int, int], int]) -> ExponentPolynomial:
    items = tuple(sorted((ij, c) for ij, c in coeffs.items() if c != 0))
    return ExponentPolynomial(k, d, items)


def evaluate_poly(P: ExponentPolynomial, p: int, m: int, n: int) -> Count:
    total = 0
    for (i, j), c in P.coeffs:
        exp = m * (i * n + j)
        if exp < 0:
            raise AbelianError(
                f"negative exponent u(iv+j)={exp} with nonzero coefficient")
        total += c * p ** exp
    return Count(total)


@dataclass(frozen=True)
class GuardedPoly:
    """One case of a ``symbolic_count`` catalog: its polynomial, its guard
    text, and the guard as a predicate ``fires(n, m, params)`` (left out of
    equality)."""
    poly: ExponentPolynomial
    guard: str
    fires: Callable[..., bool] = field(compare=False)

    def to_json_dict(self) -> dict:
        out = self.poly.to_json_dict()
        out["guard"] = self.guard
        return out


def derived_bound(atoms: Sequence[StandardAtom], p: int) -> int:
    """Least admissible d: at least every divisibility level and every
    p-adic valuation of a nonzero coefficient."""
    d = 1
    for a in atoms:
        na = _normalize_atom(a, p)
        if na is None:
            continue
        if na.kind == "div":
            d = max(d, na.level)
        for coef in na.term.x_coeffs + na.term.y_coeffs:
            if coef:
                d = max(d, _vp(abs(coef), p, 64))
    return d


def _generic_exponent(atoms: Sequence[StandardAtom], p: int,
                      var: int) -> Tuple[int, int]:
    """Count of the (assumed nonempty) positive system in the generic
    regime n > D, as the monomial X^(u(i*v + j)) -> returns (i, j).

    An equation k*x = -c with v_p(k) = jv pins x to a coset of G[p^jv]
    (count p^(u*jv)); a divisibility atom leaves a coset of p^(l-jv)G
    (count p^(u(v-(l-jv)))).  Equations dominate once n is large.
    """
    eq_j = None
    div_e = 0
    for atom in atoms:
        k = atom.term.x_coeffs[var] if var < atom.term.r else 0
        if k == 0:
            continue  # pure parameter condition
        j = _vp(k, p, 10 ** 9)
        if atom.kind == "eq":
            eq_j = j if eq_j is None else min(eq_j, j)
        else:
            div_e = max(div_e, max(0, atom.level - min(j, atom.level)))
    if eq_j is not None:
        return (0, eq_j)
    return (1, -div_e)


def _concrete_exponent(atoms: Sequence[StandardAtom], p: int, n: int,
                       var: int, d: int) -> Tuple[int, int]:
    """Same, at concrete n: the merged congruence modulus e gives count
    p^(u(n-e)).  Emitted as (1, -e) when e fits the index range, otherwise
    as the constant-exponent monomial (0, n-e); divisibility atoms keep
    e <= d and equations force e >= n-d, so one of the two always fits."""
    e = 0
    for atom in atoms:
        k = atom.term.x_coeffs[var] if var < atom.term.r else 0
        l_eff = n if atom.kind == "eq" else min(atom.level, n)
        j = _vp(k % (p ** l_eff) if l_eff else 0, p, l_eff)
        e = max(e, l_eff - j)
    if e <= d:
        return (1, -e)
    return (0, n - e)


def _solvability_pattern(pos, neg, params, p, n, m, var) -> int:
    """The negation subsets whose system is solvable, as a bitmask over
    ``_subsets(len(neg))``."""
    mask = 0
    for b, sub in enumerate(_subsets(len(neg))):
        system = list(pos) + [neg[i] for i in sub]
        if _solve_positive(system, params, p, n, m, var) is not None:
            mask |= 1 << b
    return mask


def _subsets(t: int) -> List[FrozenSet[int]]:
    """The subsets of {0..t-1} by size, then lexicographically."""
    return [frozenset(s) for size in range(t + 1)
            for s in combinations(range(t), size)]


def _downward_closed_masks(t: int) -> List[int]:
    """All downward-closed families of subsets of {0..t-1}: the possible
    nonemptiness patterns (adding atoms can only shrink a coset), each as a
    bitmask over ``_subsets(t)``, sorted.

    Generated directly rather than filtered from all 2^(2^t) families: the
    subsets are visited in size order and one is taken only if each of its
    one-smaller subsets already is (closure under dropping one element is
    closure under dropping any)."""
    subsets = _subsets(t)
    position = {s: i for i, s in enumerate(subsets)}
    masks = [0]
    for i, s in enumerate(subsets):
        below = sum(1 << position[s - {e}] for e in s)
        masks += [mask | 1 << i for mask in masks if mask & below == below]
    return sorted(masks)


def _downward_closed_patterns(t: int) -> List[FrozenSet[FrozenSet[int]]]:
    """``_downward_closed_masks(t)`` as families of subsets."""
    subsets = _subsets(t)
    return [frozenset(s for i, s in enumerate(subsets) if mask >> i & 1)
            for mask in _downward_closed_masks(t)]


def _catalog_input(atoms: Sequence[StandardAtom], p: int):
    """One variable's positive and negated atoms, and its nonemptiness
    patterns (``_downward_closed_masks``)."""
    pos, neg = _split_atoms(atoms, p)
    if len(neg) > SYMBOLIC_NEGATION_CAP:
        raise AbelianError(
            f"symbolic route supports at most {SYMBOLIC_NEGATION_CAP} negated atoms")
    return pos, neg, _downward_closed_masks(len(neg))


def _symbolic_one_var(pos, neg, masks: List[int], p: int, d: int,
                      var: int = 0) -> List[GuardedPoly]:
    t = len(neg)
    D = 2 * d + 2
    regimes: List[Tuple[str, Optional[int]]] = (
        [(f"n={n0}", n0) for n0 in range(1, D + 1)] + [(f"n>{D}", None)])
    subsets = _subsets(t)
    names = ["{" + ",".join(str(i + 1) for i in sorted(s)) + "}"
             for s in subsets]
    descs = []
    for mask in masks:
        taken = sorted(name for b, name in enumerate(names) if mask >> b & 1)
        descs.append("solvable negation-subsets: "
                     + ("{" + ", ".join(taken) + "}" if taken else "none"))
    # one solvability pattern per (n, m, params), shared by every guard of
    # this catalog: at most one regime matches n, and its guards all fire
    # on the same pattern
    solvable: Dict[tuple, int] = {}

    def actual(n, m, params) -> int:
        key = (n, m, tuple(map(tuple, params)))
        if key not in solvable:
            solvable[key] = _solvability_pattern(pos, neg, params, p, n, m, var)
        return solvable[key]

    cases = []
    # across regimes too, one polynomial per coefficient set (see _rows)
    shared: Dict[tuple, ExponentPolynomial] = {}
    for regime_desc, n0 in regimes:
        # the monomial of one negation subset is the same in every pattern,
        # so a pattern's coefficient of a monomial is the number of its
        # even-size subsets with that monomial minus the odd-size ones
        parity: Dict[Tuple[int, int], List[int]] = {}
        for b, sub in enumerate(subsets):
            system = list(pos) + [neg[i] for i in sub]
            if n0 is None:
                ij = _generic_exponent(system, p, var)
            else:
                ij = _concrete_exponent(system, p, n0, var, d)
            parity.setdefault(ij, [0, 0])[len(sub) & 1] |= 1 << b
        monomials = list(parity)
        columns = [[(mask & even).bit_count() - (mask & odd).bit_count()
                    for mask in masks] for even, odd in parity.values()]
        polys: Dict[Tuple[int, ...], ExponentPolynomial] = {}
        for mask, pattern_desc, coeffs in zip(masks, descs, zip(*columns)):
            poly = polys.get(coeffs)
            if poly is None:
                poly = make_poly(1, d, dict(zip(monomials, coeffs)))
                poly = polys[coeffs] = shared.setdefault(poly.coeffs, poly)

            def fires(n, m, params, _n0=n0, _mask=mask, _D=D):
                if _n0 is None:
                    if n <= _D:
                        return False
                elif n != _n0:
                    return False
                return actual(n, m, params) == _mask

            cases.append(GuardedPoly(poly, f"{regime_desc}; {pattern_desc}",
                                     fires))
    return cases


def symbolic_count(atoms: Sequence[StandardAtom], r: int, p: int,
                   d: Optional[int] = None) -> List[GuardedPoly]:
    """The finite candidate set F ⊆ S(d, r): pairs (polynomial, guard) such
    that for every (n, m) and parameter values exactly one guard fires and
    its polynomial evaluates to the exact count.

    For r > 1 the conjunction must decouple: every atom may touch at most
    one counted variable, and F is the product of the per-variable sets
    (the fibering step of the general induction specialized to independent
    fibers).
    """
    _check_prime(p)
    if r < 1:
        raise AbelianError("need at least one counted variable")
    if r > MAX_COUNTED_VARS:
        raise AbelianError(f"r={r} exceeds the bound {MAX_COUNTED_VARS}")
    if d is None:
        d = derived_bound(atoms, p)
    if d < derived_bound(atoms, p):
        raise AbelianError("d below the derived bound for these atoms")
    if r == 1:
        inputs = [_catalog_input(atoms, p)]
    else:
        # group atoms by the counted variable they touch
        groups: List[List[StandardAtom]] = [[] for _ in range(r)]
        for atom in atoms:
            touched = [i for i in range(min(atom.term.r, r))
                       if atom.term.x_coeffs[i] != 0]
            if len(touched) > 1:
                raise AbelianError("coupled multi-variable atoms are outside "
                                   "the supported fragment")
            groups[touched[0] if touched else 0].append(atom)

        # each group's atoms reference variable i; re-target them to slot 0
        inputs = []
        for i in range(r):
            retargeted = []
            for atom in groups[i]:
                xs = list(atom.term.x_coeffs) + [0] * (r - atom.term.r)
                retargeted.append(StandardAtom(
                    atom.kind, LinearTerm((xs[i],), atom.term.y_coeffs),
                    atom.level, atom.negated, atom.base))
            inputs.append(_catalog_input(retargeted, p))
    size = 1
    for _, _, masks in inputs:
        size *= (2 * d + 3) * len(masks)
    if size > SYMBOLIC_CASE_CAP:
        raise AbelianError(f"the symbolic catalog would hold {size} cases, "
                           f"over the limit of {SYMBOLIC_CASE_CAP}")
    per_var = [_symbolic_one_var(*one, p, d) for one in inputs]
    if r == 1:
        return per_var[0]

    cases = []
    for combo in product(*per_var):
        # the product polynomial: one term per choice of a term per factor
        coeffs: Dict[Tuple[int, int], int] = {}
        for terms in product(*(case.poly.coeffs for case in combo)):
            i = j = 0
            c = 1
            for (ti, tj), tc in terms:
                i += ti
                j += tj
                c *= tc
            coeffs[(i, j)] = coeffs.get((i, j), 0) + c
        poly = make_poly(r, d, coeffs)
        desc = " AND ".join(f"[x{i+1}: {case.guard}]"
                            for i, case in enumerate(combo))

        def fires(n, m, params, _combo=combo):
            return all(case.fires(n, m, params) for case in _combo)

        cases.append(GuardedPoly(poly, desc, fires))
    return cases


def select_case(cases: Sequence[GuardedPoly],
                params: Sequence[Tuple[int, ...]],
                p: int, n: int, m: int) -> Tuple[GuardedPoly, Count]:
    """The unique case of a ``symbolic_count`` catalog whose guard fires,
    and its value."""
    if n < 1 or m < 1:
        raise AbelianError("need n >= 1 and m >= 1")
    hits = [c for c in cases if c.fires(n, m, params)]
    if len(hits) != 1:
        raise AbelianError(f"{len(hits)} guards fired; expected exactly 1")
    return hits[0], evaluate_poly(hits[0].poly, p, m, n)


# ---------------------------------------------------------------------------
# Term grammar for the CLI: "2*x1 + y1 = 0 & !div(2^1, x1)"

_ATOM_RE = re.compile(r"\s*(!?)\s*(.*?)\s*$", re.S)
_DIV_RE = re.compile(r"div\(\s*(\d+)\s*\^\s*(\d+)\s*,\s*(.*)\s*\)$", re.S)
_TERM_PIECE = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?(?:([xy])(\d+)|(\d+))\s*")


def _parse_term(text: str, r: int, s: int) -> LinearTerm:
    xs = [0] * r
    ys = [0] * s
    pos = 0
    first = True
    text = text.strip()
    if text == "0":
        return LinearTerm(tuple(xs), tuple(ys))
    while pos < len(text):
        mo = _TERM_PIECE.match(text, pos)
        if not mo or mo.end() == pos:
            raise AbelianError(f"cannot parse term at: {text[pos:]!r}")
        sign, coef, kind, idx, bare = mo.groups()
        if sign is None and not first:
            raise AbelianError(f"missing +/- at: {text[pos:]!r}")
        if bare is not None:
            raise AbelianError("constant offsets are not part of the term language")
        c = int(coef) if coef else 1
        if sign == "-":
            c = -c
        i = int(idx) - 1
        if kind == "x":
            if not 0 <= i < r:
                raise AbelianError(f"x{idx} out of range (r={r})")
            xs[i] += c
        else:
            if not 0 <= i < s:
                raise AbelianError(f"y{idx} out of range (s={s})")
            ys[i] += c
        pos = mo.end()
        first = False
    return LinearTerm(tuple(xs), tuple(ys))


def parse_standard_conjunction(text: str, r: int, s: int) -> List[StandardAtom]:
    """'a1*x1 + b1*y1 = 0', 'div(p^l, <term>)', joined by '&', atoms may be
    prefixed with '!'."""
    atoms = []
    for chunk in text.split("&"):
        mo = _ATOM_RE.match(chunk)
        negated = mo.group(1) == "!"
        body = mo.group(2)
        if not body:
            raise AbelianError("empty atom")
        dm = _DIV_RE.match(body)
        if dm:
            base, level, term_text = dm.groups()
            atoms.append(StandardAtom("div", _parse_term(term_text, r, s),
                                      int(level), negated, int(base)))
            continue
        if "=" not in body:
            raise AbelianError(f"atom is neither an equation nor div(...): {body!r}")
        lhs, rhs = body.split("=", 1)
        if rhs.strip() != "0":
            raise AbelianError("equations must have the form <term> = 0")
        atoms.append(StandardAtom("eq", _parse_term(lhs, r, s), 0, negated))
    return atoms
