"""Generators for the finite-structure families used in the growth-rate
experiments, plus the 2-sorted vector spaces and homocyclic groups.

Every family supports two counting routes:

* ``generate(index)`` materializes the actual structure (only possible for
  small indices; equivalence tables grow like the square of the class sizes
  and several families reach ~n^n elements), and

* a block *summary*: the universe partitioned into finitely many blocks on
  which every supported atom is constant, with exact big-integer block
  sizes.  Aggregate counting over blocks yields exact counts at indices far
  beyond any enumeration budget and is cross-checked against the engine at
  small indices in the test suite.

``FamilyAt(family, index).count`` is the one place where a count chooses
its route: the block summary first, and when that declines, materializing
and enumerating.  Every family count goes through it, every formula text
is parsed by ``FamilyAt.conjunctions``, and every count sequence loops
over its indices in ``family_sequence`` (``count_family`` for one formula).

Block counting has no formula evaluator of its own: it builds the quotient
structure whose elements are the blocks (``E`` relates blocks of one class,
``P<k>`` holds on blocks of level at least ``k``), runs the engine's
compiled evaluator (``counting.compile_formula``) on it with each parameter
on its singleton block, and adds the size of every block the counted
variable satisfies the formula on.

A request is parsed once and compiled once per block shape: the
``FamilyAt``s of one ``family_sequence`` call share one memo, so a steps
list is parsed once while the signature stays the same object, and a
quantifier-free formula's truth on each block is computed once per block
shape, which does not depend on the block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import gf
from .counting import (BudgetExceeded, CardinalitySequence, Count,
                       compile_formula, count as engine_count)
from .logic import (And, FiniteStructure, Formula, PfdimError, Signature,
                    free_variables, make_signature, rename_free)
from .parser import parse_formula
from .vspace import Ambient

MAX_UNIVERSE = 200_000
MAX_TABLE_ENTRIES = 2_000_000
# A summary whose sizes would take more bits than this is refused before it
# is built (findelta at 10^5 would not fit in memory; at 64 it takes 1.8M).
MAX_SUMMARY_BITS = 1 << 24


class FamilyError(PfdimError):
    pass


@dataclass(frozen=True)
class FamilyHandle:
    family_id: str


@dataclass(frozen=True)
class ElemRef:
    """An element named abstractly: class (block) index plus offset inside it.

    ``global_id`` is the dense id in the materialized layout; it may be an
    integer far beyond any materializable universe.
    """
    class_index: int
    offset: int
    global_id: int


@dataclass(frozen=True)
class EquivSummary:
    """One-binary-equivalence family at one index: class sizes in canonical
    order, elements laid out class after class."""
    class_sizes: Tuple[int, ...]
    # starts[ci] = sum(class_sizes[:ci]); the last entry is the total
    _starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_starts",
                           tuple(accumulate(self.class_sizes, initial=0)))

    @property
    def total(self) -> int:
        return self._starts[-1]

    def class_start(self, ci: int) -> int:
        return self._starts[ci]

    def element(self, ci: int, offset: int = 0) -> ElemRef:
        if not 0 <= ci < len(self.class_sizes):
            raise FamilyError("class index out of range")
        if not 0 <= offset < self.class_sizes[ci]:
            raise FamilyError("offset out of class bounds")
        return ElemRef(ci, offset, self.class_start(ci) + offset)


@dataclass(frozen=True)
class NestedPredSummary:
    """Nested unary predicates P_1 > P_2 > ... : levels[i] = |P_{i+1}|,
    strictly decreasing; level of an element = largest i with x in P_i."""
    total: int
    pred_sizes: Tuple[int, ...]  # |P_1|, |P_2|, ...


# ---------------------------------------------------------------------------
# The five named families


# one signature for every index of every equivalence family, built once
_EQUIV_SIGNATURE = make_signature(["S"], relations=[("E", ("S", "S"))])


def _earlyexample_sizes(k: int) -> Tuple[int, ...]:
    return tuple(i * i for i in range(1, k + 1))


def _stablenonattainability_sizes(n: int) -> Tuple[int, ...]:
    return tuple(n ** i for i in range(1, n + 1))


def _findelta_sizes(n: int) -> Tuple[int, ...]:
    # n classes of size n^i for each level i = 1..n
    return tuple(size for i in range(1, n + 1) for size in [n ** i] * n)


def _rank2classes_sizes(n: int) -> Tuple[int, ...]:
    return tuple([n] * n + [n * n])


_EQUIV_FAMILIES: Dict[str, Callable[[int], Tuple[int, ...]]] = {
    "earlyexample": _earlyexample_sizes,
    "stablenonattainability": _stablenonattainability_sizes,
    "findelta": _findelta_sizes,
    "rank2classes": _rank2classes_sizes,
}
_FAMILY_IDS = (*_EQUIV_FAMILIES, "convsupersimple")


def _equiv_selectors(family_id: str):
    def class_rank(t: int):
        # a_{n,t}: an element in the class of size n^{n-t}
        def pick(index: int, s: EquivSummary) -> Dict[str, ElemRef]:
            if t > index:
                raise FamilyError(f"class rank {t} absent at index {index}")
            sizes = s.class_sizes
            want = index ** (index - t)
            for ci, sz in enumerate(sizes):
                if sz == want:
                    return {"y": s.element(ci)}
            raise FamilyError(f"no class of size {index}^{index - t}")
        return pick

    if family_id == "stablenonattainability":
        return {f"class-rank-{t}": class_rank(t) for t in range(1, 9)}
    if family_id == "earlyexample":
        def class_i(i: int):
            def pick(index, s):
                if i > index:
                    raise FamilyError(f"class {i} absent at index {index}")
                return {"y": s.element(i - 1)}
            return pick
        sel = {f"class-{i}": class_i(i) for i in range(1, 9)}
        sel["largest-class"] = lambda index, s: {"y": s.element(index - 1)}
        return sel
    if family_id == "findelta":
        def level(i: int):
            def pick(index, s):
                if i > index:
                    raise FamilyError(f"level {i} absent at index {index}")
                return {"y": s.element((i - 1) * index)}
            return pick
        return {f"class-level-{i}": level(i) for i in range(1, 9)}
    return {   # rank2classes
        "big-class": lambda index, s: {"y": s.element(index)},
        "small-class": lambda index, s: {"y": s.element(0)},
    }


# every selector of every equivalence family, built once
_EQUIV_SELECTORS = {fid: _equiv_selectors(fid) for fid in _EQUIV_FAMILIES}


def list_families() -> Dict[str, dict]:
    out = {}
    for fid, selectors in _EQUIV_SELECTORS.items():
        out[fid] = {"kind": "equivalence", "parameters": ["index"],
                    "selectors": sorted(selectors)}
    out["convsupersimple"] = {"kind": "nested-predicates",
                              "parameters": ["index"], "selectors": []}
    return out


def get_family(family_id: str) -> FamilyHandle:
    if family_id not in _FAMILY_IDS:
        raise FamilyError(f"unknown familyId {family_id!r}")
    return FamilyHandle(family_id)


def family_summary(family: FamilyHandle, index: int):
    fid = family.family_id
    if fid not in _FAMILY_IDS:
        raise FamilyError(f"unknown familyId {fid!r}")
    if index < 1:
        raise FamilyError("index must be >= 1")
    n = index   # the summary holds `sizes` sizes, the largest n^e
    sizes, e = {"earlyexample": (n, 2), "stablenonattainability": (n, n),
                "findelta": (n * n, n), "rank2classes": (n + 1, 2),
                "convsupersimple": (n + 1, n)}[fid]
    bits = sizes * e * n.bit_length()
    if bits > MAX_SUMMARY_BITS:
        raise FamilyError(f"{fid}: the summary would take about {bits} bits, "
                          f"over the limit of {MAX_SUMMARY_BITS}")
    if fid in _EQUIV_FAMILIES:
        return EquivSummary(_EQUIV_FAMILIES[fid](index))
    return NestedPredSummary(
        total=index ** index,
        pred_sizes=tuple(index ** (index - i) for i in range(1, index + 1)))


def family_signature(family: FamilyHandle, index: int) -> Signature:
    if family.family_id in _EQUIV_FAMILIES:
        return _EQUIV_SIGNATURE
    if family.family_id == "convsupersimple":
        return make_signature(
            ["S"], relations=[(f"P{i}", ("S",)) for i in range(1, index + 1)])
    raise FamilyError(f"unknown familyId {family.family_id!r}")


def generate(family_id: str, index: int) -> FiniteStructure:
    """Materialize the structure at the given index; errors when the
    universe or relation tables exceed the size budget."""
    family = get_family(family_id)
    summary = family_summary(family, index)
    sig = family_signature(family, index)
    if family_id in _EQUIV_FAMILIES:
        sizes = summary.class_sizes
        total = summary.total
        pairs = sum(s * s for s in sizes)
        if total > MAX_UNIVERSE or pairs > MAX_TABLE_ENTRIES:
            raise FamilyError(
                f"{family_id} index {index}: size budget exceeded "
                f"({total} elements, {pairs} relation entries)")
        table = frozenset(chain.from_iterable(
            product(range(start, start + s), repeat=2)
            for start, s in zip(accumulate(sizes, initial=0), sizes)))
        return FiniteStructure(signature=sig, sizes={"S": total},
                               relations={"E": table},
                               functions={}, constants={})
    # convsupersimple: nested unary predicates on a domain of size n^n
    n = index
    total = summary.total
    if total > MAX_UNIVERSE:
        raise FamilyError(
            f"convsupersimple index {n}: size budget exceeded ({total} elements)")
    relations = {}
    for i in range(1, n + 1):
        sz = summary.pred_sizes[i - 1]
        relations[f"P{i}"] = frozenset((e,) for e in range(sz))
    return FiniteStructure(signature=sig, sizes={"S": total},
                           relations=relations, functions={}, constants={})


# ---------------------------------------------------------------------------
# Aggregate (block) counting


@dataclass(frozen=True)
class _Block:
    size: int
    class_index: Optional[int]   # equivalence class, or predicate level
    param: Optional[ElemRef]     # singleton block for this parameter


def _equiv_blocks(summary: EquivSummary, params: Dict[str, ElemRef]):
    refs = {}
    for ref in params.values():
        refs.setdefault((ref.class_index, ref.offset), ref)
    blocks = []
    by_class: Dict[int, int] = {}
    for (ci, _off), ref in sorted(refs.items()):
        blocks.append(_Block(1, ci, ref))
        by_class[ci] = by_class.get(ci, 0) + 1
    for ci in sorted(by_class):
        rest = summary.class_sizes[ci] - by_class[ci]
        if rest > 0:
            blocks.append(_Block(rest, ci, None))
    lumped = summary.total - sum(summary.class_sizes[ci] for ci in by_class)
    if lumped > 0:
        blocks.append(_Block(lumped, None, None))
    return blocks


def _pred_blocks(summary: NestedPredSummary):
    # level i block: elements in P_i but not P_{i+1}; level 0 = outside P_1
    sizes = (summary.total,) + summary.pred_sizes + (0,)
    return [_Block(sizes[i] - sizes[i + 1], i, None)
            for i in range(len(sizes) - 1) if sizes[i] - sizes[i + 1] > 0]


def _quotient(summary, sig: Signature, blocks) -> FiniteStructure:
    """The structure whose elements are the blocks: ``E`` holds between a
    block and itself and between blocks of one class; ``P<k>`` holds on the
    blocks of level at least ``k``."""
    classes = [b.class_index for b in blocks]
    if isinstance(summary, EquivSummary):
        def related(t):
            i, j = t
            return i == j or (classes[i] is not None
                              and classes[i] == classes[j])
        virtual = {"E": related}
    else:
        virtual = {name: lambda t, k=int(name[1:]): classes[t[0]] >= k
                   for name in sig.relations}
    return FiniteStructure(signature=sig, sizes={"S": len(blocks)},
                           relations={}, functions={}, constants={},
                           virtual_relations=virtual)


def _block_count(summary, sig: Signature, phi, params: Dict[str, ElemRef],
                 counted: List[str], memo: Optional[dict] = None
                 ) -> Union[Count, str]:
    """The block-route count of ``phi`` over its ``counted`` variables (its
    free variables outside ``params``), or the reason the route declines.
    ``memo`` keeps, per formula and block shape, the truth on each block
    or the reason; the count adds up the sizes of the true blocks."""
    if len(counted) > 1:
        return f"{len(counted)} counted variables"
    if isinstance(summary, EquivSummary):
        blocks = _equiv_blocks(summary, params)
        # E reads only which blocks share a class: number the classes in
        # order of first appearance (the lumped block's None stays None)
        first: Dict[int, int] = {}
        classes = tuple(None if b.class_index is None
                        else first.setdefault(b.class_index, len(first))
                        for b in blocks)
    elif params:
        return "parameters on a nested-predicate family"
    else:
        blocks = _pred_blocks(summary)
        classes = tuple(b.class_index for b in blocks)  # P<k> reads levels
    # each parameter sits on the index of its singleton block
    slot = {(b.param.class_index, b.param.offset): i
            for i, b in enumerate(blocks) if b.param is not None}
    fixed = {v: slot[ref.class_index, ref.offset] for v, ref in params.items()}
    # the entry keeps phi, so its id is not reused while the memo lives
    key = ("blocks", id(phi), classes, tuple(fixed.items()), tuple(counted))
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = (phi, _block_truths(summary, sig, phi, blocks, fixed,
                                        counted))
    truths = memo[key][1]
    if isinstance(truths, str):
        return truths
    if not counted:
        return Count(1 if truths[0] else 0)
    return Count(sum(b.size for b, true in zip(blocks, truths) if true))


def _block_truths(summary, sig: Signature, phi, blocks, fixed: Dict[str, int],
                  counted: List[str]) -> Union[List[bool], str]:
    """The truth of ``phi`` with its counted variable on each block in turn
    (one truth when nothing is counted), or why the blocks cannot tell."""
    # the counted variable is one more fixed slot, set to each block in turn
    x = len(fixed)
    test, env, visits = compile_formula(
        phi, _quotient(summary, sig, blocks),
        {**fixed, **dict.fromkeys(counted, 0)})
    if visits:
        return "a quantifier"  # blocks are not closed under quantification
    if not counted:
        return [bool(test(env))]
    truths = []
    for i in range(len(blocks)):
        env[x] = i
        truths.append(bool(test(env)))
    return truths


class FamilyAt:
    """One family at one index: its block summary and signature, built
    once, the one place a step's formula text becomes a formula, and the
    one route chooser for every count at that index.

    ``memo`` holds the formula-level work of one request: parsed steps,
    free variables and block truths.  It is private to this index unless
    ``family_sequence`` hands every index of its request the same one."""

    def __init__(self, family: FamilyHandle, index: int):
        self.family = family
        self.index = index
        self.summary = family_summary(family, index)
        self.signature = family_signature(family, index)
        self._structure: Optional[FiniteStructure] = None
        self.memo: dict = {}

    def selector(self, name: str) -> Dict[str, ElemRef]:
        sels = _EQUIV_SELECTORS.get(self.family.family_id, {})
        if name not in sels:
            raise FamilyError(
                f"{self.family.family_id}: unknown selector {name!r}")
        return sels[name](self.index, self.summary)

    def conjunctions(self, steps: Sequence[Tuple[str, Optional[str]]]
                     ) -> List[Tuple[Formula, Dict[str, ElemRef]]]:
        """``(phi, params)`` for each prefix conjunction of the
        ``(formula text, selector)`` steps, each text parsed with this
        index's signature (once per request while the signature is the
        same object).  A step with a selector has its ``y`` renamed to
        ``y#<step>``, a name no formula text can use, fixed to the
        selector's element at this index."""
        steps = tuple((text, selector) for text, selector in steps)
        parsed = self.memo.get(("steps", steps))
        fresh = parsed is None or parsed[0] is not self.signature
        phis: List[Formula] = [] if fresh else parsed[1]
        out: List[Tuple[Formula, Dict[str, ElemRef]]] = []
        params: Dict[str, ElemRef] = {}
        for j, (text, selector) in enumerate(steps, start=1):
            if fresh:
                phi = parse_formula(text, self.signature)
                if selector:
                    phi = rename_free(phi, "y", f"y#{j}")
                phis.append(And(phis[-1], phi) if phis else phi)
            if selector:
                params = {**params, f"y#{j}": self.selector(selector)["y"]}
            out.append((phis[j - 1], params))
        if fresh:
            self.memo[("steps", steps)] = (self.signature, phis)
        return out

    def _free(self, phi) -> List[str]:
        """The names of the free variables of ``phi``, once per formula."""
        key = ("free", id(phi))   # the entry keeps phi, so its id stays
        if key not in self.memo:
            self.memo[key] = (phi, [n for n, _ in free_variables(phi)])
        return self.memo[key][1]

    def counted(self, phi, params: Dict[str, ElemRef]) -> List[str]:
        """The free variables of ``phi`` that ``params`` leaves to be
        counted."""
        return [n for n in self._free(phi) if n not in params]

    def check_one_counted(self, phi, params: Dict[str, ElemRef]) -> None:
        """Refuse ``phi`` as a set of single elements when more than one of
        its free variables is outside ``params``."""
        counted = self.counted(phi, params)
        if len(counted) > 1:
            raise FamilyError(f"{len(counted)} counted variables "
                              f"({', '.join(counted)}); expected at most one")

    def count(self, phi, params: Dict[str, ElemRef],
              budget: Optional[int] = None) -> Count:
        """Exact |phi(M_index, params)| by the block route, else by
        enumerating the structure (built once) under ``budget``, without
        the parameters not free in ``phi``.  When neither route can count
        (too large to build, or over the budget), the ``FamilyError``
        names both causes."""
        free = self._free(phi)
        counted = self.counted(phi, params)
        result = _block_count(self.summary, self.signature, phi, params,
                              counted, self.memo)
        if isinstance(result, Count):
            return result
        fixed = {k: v.global_id for k, v in params.items() if k in free}
        try:
            if self._structure is None:
                self._structure = generate(self.family.family_id, self.index)
            return engine_count(phi, self._structure, fixed, counted,
                                budget=budget)
        except (FamilyError, BudgetExceeded) as exc:
            raise FamilyError(
                f"{exc}, and the block route declines {result}") from None

    def spectrum(self, phi_text: str) -> List[float]:
        """Sorted distinct log-counts of {phi(x, b) : b in universe}.

        The parameter variable must be 'y', and at most one other variable
        may be free.  The count of phi(x, b) is invariant under the
        automorphisms of the structure, and on these families (only ``E``)
        an automorphism can move any element to any other element of its
        class, and swap any two classes of equal size.  So one class per
        distinct size is counted, the first of that size, at its first
        element; a formula without ``y`` is counted once.
        """
        (phi, _), = self.conjunctions([(phi_text, None)])
        if self.family.family_id not in _EQUIV_FAMILIES:
            raise FamilyError(
                "spectrum supported for equivalence families only")
        self.check_one_counted(phi, {"y": None})
        classes = [0]  # without y, every parameter gives the same count
        if "y" in self._free(phi):
            first: Dict[int, int] = {}   # class size -> its first class
            for ci, size in enumerate(self.summary.class_sizes):
                first.setdefault(size, ci)
            classes = list(first.values())
        element = self.summary.element
        return sorted({self.count(phi, {"y": element(ci)}).log_value
                       for ci in classes})


def family_sequence(family: FamilyHandle, indices: Sequence[int],
                    at_index: Callable[[FamilyAt], object]) -> list:
    """``(n, at_index(FamilyAt(family, n)))`` for each distinct index ``n``
    in increasing order: the one loop over a family's indices, and one
    request, whose ``FamilyAt``s share one memo.  An error at an index
    keeps its type, and its message starts with ``index n:`` (a parse
    diagnostic keeps its line:column form)."""
    out = []
    memo: dict = {}
    for n in sorted(set(indices)):
        try:
            at = FamilyAt(family, n)
            at.memo = memo
            out.append((n, at_index(at)))
        except PfdimError as exc:
            exc.args = (f"index {n}: {exc}",)
            raise
    return out


def count_family(phi_text: str, family: FamilyHandle, indices: Sequence[int],
                 selector: Optional[str] = None,
                 budget: Optional[int] = None) -> CardinalitySequence:
    """One exact count per family index, indices sorted and deduplicated,
    each by ``FamilyAt.count``; errors name their index."""
    def count_at(at: FamilyAt) -> Count:
        (phi, params), = at.conjunctions([(phi_text, selector)])
        return at.count(phi, params, budget)

    return CardinalitySequence(
        family_id=family.family_id, formula_text=phi_text,
        selector=selector or "",
        points=tuple(family_sequence(family, indices, count_at)))


# ---------------------------------------------------------------------------
# Vector spaces over GF(q)

THETA_TABLE_LIMIT = 200_000


def vector_space_ambient(q: int, dim: int) -> Ambient:
    """The coordinate view of GF(q)^dim, after the same checks as
    ``make_vector_space``; the closed forms in ``vspace`` need nothing
    more, so the structure itself is never built."""
    if q not in gf.SUPPORTED_Q:
        raise FamilyError(f"q={q} is not a supported prime power")
    if dim < 1 or dim > 6:
        raise FamilyError("dim must be in 1..6")
    if q ** dim > MAX_UNIVERSE:
        raise FamilyError("vector sort exceeds size budget")
    return Ambient(gf.make_field(q), dim)


def make_vector_space(q: int, dim: int) -> FiniteStructure:
    """2-sorted structure (V, K): field tables, vector addition, scalar
    action, and independence relations theta1..theta<dim>.

    theta_n tables are materialized only while (q^dim)^n stays small;
    beyond that they are virtual relations computed by Gaussian rank.
    """
    amb = vector_space_ambient(q, dim)
    F = amb.F
    nvec = amb.size
    vecs = [gf.vec_decode(v, q, dim) for v in range(nvec)]

    sig = make_signature(
        ["K", "V"],
        relations=[(f"theta{n}", tuple(["V"] * n)) for n in range(1, dim + 1)],
        functions=[("fadd", ("K", "K"), "K"), ("fmul", ("K", "K"), "K"),
                   ("fneg", ("K",), "K"), ("vadd", ("V", "V"), "V"),
                   ("smul", ("K", "V"), "V"), ("vneg", ("V",), "V")],
        constants=[("zeroK", "K"), ("oneK", "K"), ("zeroV", "V")])

    functions = {
        "fadd": {(a, b): F.add[a][b] for a in range(q) for b in range(q)},
        "fmul": {(a, b): F.mul[a][b] for a in range(q) for b in range(q)},
        "fneg": {(a,): F.neg[a] for a in range(q)},
        "vadd": {(u, v): gf.vec_encode(gf.vec_add(F, vecs[u], vecs[v]), q)
                 for u in range(nvec) for v in range(nvec)},
        "smul": {(c, v): gf.vec_encode(gf.vec_scale(F, c, vecs[v]), q)
                 for c in range(q) for v in range(nvec)},
        "vneg": {(v,): gf.vec_encode(gf.vec_scale(F, F.neg[1], vecs[v]), q)
                 for v in range(nvec)},
    }

    def independent(tup) -> bool:
        return gf.rank(F, [vecs[v] for v in tup]) == len(tup)

    relations = {}
    virtual = {}
    for n in range(1, dim + 1):
        if nvec ** n <= THETA_TABLE_LIMIT:
            relations[f"theta{n}"] = frozenset(
                tup for tup in product(range(nvec), repeat=n) if independent(tup))
        else:
            virtual[f"theta{n}"] = independent

    return FiniteStructure(
        signature=sig, sizes={"K": q, "V": nvec},
        relations=relations, functions=functions,
        constants={"zeroK": 0, "oneK": 1, "zeroV": 0},
        virtual_relations=virtual)


# ---------------------------------------------------------------------------
# Homocyclic groups (Z/p^n Z)^m

HOMOCYCLIC_ORDER_LIMIT = 1024


def make_homocyclic(p: int, n: int, m: int) -> FiniteStructure:
    """The group (Z/p^nZ)^m with add/neg tables; element ids encode m-tuples
    of residues mod p^n in base p^n, first coordinate least significant
    (``gf.vec_decode``)."""
    try:
        prime = gf.is_prime(p)
    except ValueError as exc:
        raise FamilyError(f"p={p}: {exc}") from None
    if not prime:
        raise FamilyError(f"p={p} is not prime")
    if n < 1 or m < 1:
        raise FamilyError("n and m must be >= 1")
    order = p ** (n * m)
    if order > HOMOCYCLIC_ORDER_LIMIT:
        raise FamilyError(f"group order {order} exceeds size budget")
    mod = p ** n
    elems = [gf.vec_decode(x, mod, m) for x in range(order)]
    sig = make_signature(
        ["G"], functions=[("add", ("G", "G"), "G"), ("neg", ("G",), "G")],
        constants=[("zero", "G")])
    return FiniteStructure(
        signature=sig, sizes={"G": order}, relations={},
        functions={
            "add": {(a, b): gf.vec_encode([(x + y) % mod for x, y
                                           in zip(elems[a], elems[b])], mod)
                    for a in range(order) for b in range(order)},
            "neg": {(a,): gf.vec_encode([(-x) % mod for x in elems[a]], mod)
                    for a in range(order)},
        },
        constants={"zero": 0})
