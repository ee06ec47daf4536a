"""Generators for the finite-structure families used in the growth-rate
experiments, plus the 2-sorted vector spaces and homocyclic groups.

Each family at an index has a *summary*: the class sizes as
``(size, multiplicity)`` runs, or the nested predicate sizes, exact big
integers at indices far beyond any enumeration.  ``generate(index)``
materializes the actual structure, only possible for small indices
(equivalence tables grow like the square of the class sizes, and several
families reach ~n^n elements); the tests use it as the engine's reference.

``FamilyAt(family, index).count`` makes every family count, of every
first-order formula, by one route (``_block_count``).  For a formula with
k counted variables and quantifier rank b, r = k + b, it builds a small
structure M' that the formula cannot tell from the family's structure
(an r-round Ehrenfeucht-Fraisse argument): each class holding a parameter
cut to its parameters plus r elements, and at most r classes of each size
cut to r (each band of levels the formula's predicates cannot tell apart,
on ``convsupersimple``).  The count sums, over the types of the counted
tuple (each variable equal to an earlier element, fresh in a class already
touched, or first in an untouched class of some size), the exact number of
tuples of that type times the formula's truth at the type's representative
in M', which the engine's compiled evaluator (``counting.compile_formula``)
decides.  For a quantifier-free formula in one variable, M' is the old
blocks: the parameters, one more element of each parameter's class, and
one element for all the other classes.
The budget (``PFDIM_BUDGET`` unless given) bounds the type leaves times
one plus the quantifier-loop visits per evaluation.

Every formula text is parsed by ``FamilyAt.conjunctions``, and every count
sequence loops over its indices in ``family_sequence`` (``count_family``
for one formula).  A request is parsed once and compiled once per shape of
M': the ``FamilyAt``s of one ``family_sequence`` call share one memo, which
keeps the parsed steps (a parse stands at every index whose signature
resolves the texts' names alike), each formula's free variables and binder
depths, and per shape the compiled formula and its truth at each type.
The shape stops depending on n once every class size exceeds r.  A
spectrum is one such count per class size, and the class sizes whose M'
has one shape share that shape's compiled formula and truths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .counting import CardinalitySequence, Count, compile_formula, get_budget
from .logic import (And, Exists, FiniteStructure, Forall, Formula, Implies,
                    Not, Or, PfdimError, Rel, Signature, free_variables,
                    make_signature, rename_free)
from .parser import identifiers, parse_formula, reads_alike

if TYPE_CHECKING:
    from .vspace import Ambient

MAX_UNIVERSE = 200_000
MAX_TABLE_ENTRIES = 2_000_000
# A summary whose sizes would take more bits than this is refused before it
# is built (findelta at 10^5 would not fit in memory; at 200 it takes 320k).
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
    """One-binary-equivalence family at one index: the classes as runs,
    ``mults[j]`` classes of size ``sizes[j]``, sizes increasing, elements
    laid out class after class."""
    sizes: Tuple[int, ...]
    mults: Tuple[int, ...]
    # _first[j]: the index of run j's first class; _starts[j]: its first
    # element.  The last entries are the class count and the total.
    _first: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every tuple here and on the per-index path is built from a list,
        # at its exact size: one grown from an iterator of unknown length
        # can stay parked in CPython's tuple free lists until a full
        # collection, so peak memory would depend on when the gc runs
        object.__setattr__(self, "_first", tuple(
            list(accumulate(self.mults, initial=0))))
        object.__setattr__(self, "_starts", tuple(list(
            accumulate(map(mul, self.sizes, self.mults), initial=0))))

    @property
    def runs(self) -> Tuple[Tuple[int, int], ...]:
        """``(size, multiplicity)`` for each run."""
        return tuple(list(zip(self.sizes, self.mults)))

    @property
    def class_sizes(self) -> Tuple[int, ...]:
        return tuple(list(chain.from_iterable(
            map(repeat, self.sizes, self.mults))))

    @property
    def total(self) -> int:
        return self._starts[-1]

    def _locate(self, ci: int) -> Tuple[int, int]:
        """(size, first element) of class ``ci``."""
        if not 0 <= ci < self._first[-1]:
            raise FamilyError("class index out of range")
        j = bisect_right(self._first, ci) - 1
        size = self.sizes[j]
        return size, self._starts[j] + (ci - self._first[j]) * size

    def class_size(self, ci: int) -> int:
        return self._locate(ci)[0]

    def class_start(self, ci: int) -> int:
        return self._locate(ci)[1]

    def element(self, ci: int, offset: int = 0) -> ElemRef:
        size, start = self._locate(ci)
        if not 0 <= offset < size:
            raise FamilyError("offset out of class bounds")
        return ElemRef(ci, offset, start + offset)

    def first_class(self, size: int) -> Optional[int]:
        """The index of the first class of ``size``, or None."""
        try:
            return self._first[self.sizes.index(size)]
        except ValueError:
            return None

    def first_classes(self) -> Dict[int, int]:
        """Each distinct class size -> the index of its first class."""
        first: Dict[int, int] = {}
        for size, ci in zip(self.sizes, self._first):
            first.setdefault(size, ci)
        return first

    def kept(self, r: int, counts: bool
             ) -> Dict[int, Tuple[Optional[Dict[int, int]], int, int]]:
        """The classes grouped by their size cut to ``r``: t -> ({actual
        size: classes} or None without ``counts``, classes, their
        elements), t increasing.  Without ``counts`` only the runs below
        r are visited."""
        groups: Dict[int, Tuple[Optional[Dict[int, int]], int, int]] = {}
        classes, elements = self._first[-1], self.total
        j = 0
        while j < len(self.sizes) and self.sizes[j] < r:
            s, m = self.sizes[j], self.mults[j]
            _, c, e = groups.get(s, (None, 0, 0))
            groups[s] = {s: c + m}, c + m, e + s * m
            classes -= m
            elements -= s * m
            j += 1
        if classes:
            rest: Optional[Dict[int, int]] = None
            if counts:
                rest = {}
                for s, m in zip(self.sizes[j:], self.mults[j:]):
                    rest[s] = rest.get(s, 0) + m
            groups[r] = rest, classes, elements
        return groups


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


# each equivalence family's classes at index n: (sizes, multiplicities)
_Runs = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _earlyexample_runs(k: int) -> _Runs:
    return tuple([i * i for i in range(1, k + 1)]), (1,) * k


def _stablenonattainability_runs(n: int) -> _Runs:
    return tuple(list(accumulate(repeat(n, n), mul))), (1,) * n


def _findelta_runs(n: int) -> _Runs:
    # n classes of size n^i for each level i = 1..n
    return tuple(list(accumulate(repeat(n, n), mul))), (n,) * n


def _rank2classes_runs(n: int) -> _Runs:
    return (n, n * n), (n, 1)


_EQUIV_FAMILIES: Dict[str, Callable[[int], _Runs]] = {
    "earlyexample": _earlyexample_runs,
    "stablenonattainability": _stablenonattainability_runs,
    "findelta": _findelta_runs,
    "rank2classes": _rank2classes_runs,
}
_FAMILY_IDS = (*_EQUIV_FAMILIES, "convsupersimple")


def _equiv_selectors(family_id: str):
    def class_rank(t: int):
        # a_{n,t}: an element in the class of size n^{n-t}
        def pick(index: int, s: EquivSummary) -> Dict[str, ElemRef]:
            if t > index:
                raise FamilyError(f"class rank {t} absent at index {index}")
            ci = s.first_class(index ** (index - t))
            if ci is not None:
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
                "findelta": (n, n), "rank2classes": (n + 1, 2),
                "convsupersimple": (n + 1, n)}[fid]
    bits = sizes * e * n.bit_length()
    if bits > MAX_SUMMARY_BITS:
        raise FamilyError(f"{fid}: the summary would take about {bits} bits, "
                          f"over the limit of {MAX_SUMMARY_BITS}")
    if fid in _EQUIV_FAMILIES:
        return EquivSummary(*_EQUIV_FAMILIES[fid](index))
    return NestedPredSummary(
        total=index ** index,
        pred_sizes=tuple([index ** (index - i)
                          for i in range(1, index + 1)]))


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
        total = summary.total
        pairs = sum(s * s * m for s, m in summary.runs)
        if total > MAX_UNIVERSE or pairs > MAX_TABLE_ENTRIES:
            raise FamilyError(
                f"{family_id} index {index}: size budget exceeded "
                f"({total} elements, {pairs} relation entries)")
        return _equiv_structure(summary.class_sizes)
    # convsupersimple: nested unary predicates on a domain of size n^n
    if summary.total > MAX_UNIVERSE:
        raise FamilyError(f"convsupersimple index {index}: size budget "
                          f"exceeded ({summary.total} elements)")
    return _pred_structure(sig, summary.total, {
        f"P{i}": size for i, size in enumerate(summary.pred_sizes, start=1)})


# ---------------------------------------------------------------------------
# Counting on a small model
#
# Every first-order formula is counted the same way.  A formula phi with k
# counted variables and quantifier rank b (its most nested binders) cannot
# tell apart two structures, each with the same elements marked, in which
#
# * every class holding a marked element has the same number of unmarked
#   elements, or at least b in both, and
# * the classes without a marked element, sorted by size cut to b, come in
#   the same number in both, or in at least b in both
#
# (the b-round Ehrenfeucht-Fraisse game; levels of nested predicates act
# like classes that are told apart by name).  So with r = k + b the small
# model M' below gives phi the same truth at a tuple as M does at any tuple
# of the same *type*, the parameters marked throughout.  A type says, for
# each counted variable in turn, that it is
#
# * equal to an earlier element (weight 1),
# * a fresh element of a class already touched (weight: its size less the
#   elements already used), or
# * the first element of an untouched class of size s (weight: s times the
#   untouched classes of size s left),
#
# and the product of the weights is the number of tuples of M of that type.
# The count is the sum over the types, of exact integers, of that product
# times phi's truth at the type's representative in M'.  The last counted
# variable's untouched classes are taken together per size in M', since no
# later weight depends on them.


def _facts(phi, memo: dict) -> tuple:
    """``(phi, free variable names, binder depths, relation names)``,
    once per formula: the depth of each binder of ``phi`` (the outermost
    at 1), and the relations it names.  The entry keeps phi, so its id
    stays."""
    key = ("facts", id(phi))
    facts = memo.get(key)
    if facts is None:
        depths: List[int] = []
        names = set()
        stack = [(phi, 0)]
        while stack:
            f, d = stack.pop()
            kind = type(f)
            if kind is Rel:
                names.add(f.name)
            elif kind is And or kind is Or or kind is Implies:
                stack += ((f.left, d), (f.right, d))
            elif kind is Not:
                stack.append((f.body, d))
            elif kind is Exists or kind is Forall:
                depths.append(d + 1)
                stack.append((f.body, d + 1))
        facts = memo[key] = (phi, [n for n, _ in free_variables(phi)],
                             depths, tuple(sorted(names)))
    return facts


def _equiv_model(summary: EquivSummary, params: Dict[str, ElemRef], r: int,
                 k: int):
    """The small model of an equivalence family for ``k`` counted
    variables as ``(sizes, (cells, spare, elements), fixed)``: the sizes
    of the classes of M' in layout order; for each class holding a
    parameter, ``(first element, actual size, elements used)``; for each
    size t the other classes are cut to, ``(first elements of its
    classes in M', {actual size: untouched classes}, untouched classes,
    their elements)``, the dict only when k > 1, since only a variable
    before the last reads it; the parameters' distinct elements in M',
    and each parameter's element."""
    offsets: Dict[int, List[int]] = {}
    for ref in params.values():
        offs = offsets.setdefault(ref.class_index, [])
        if ref.offset not in offs:
            offs.append(ref.offset)
    groups = summary.kept(r, k > 1)    # t -> (counts, classes, elements)
    sizes: List[int] = []
    cells = []
    where: Dict[Tuple[int, int], int] = {}
    start = 0
    for ci in sorted(offsets):
        offs = sorted(offsets[ci])
        size = summary.class_size(ci)
        t = size if size < r else r
        counts, classes, elements = groups[t]
        if k > 1:
            counts = {**counts, size: counts[size] - 1}
        groups[t] = (counts, classes - 1, elements - size)
        for off in offs:
            where[ci, off] = start
            start += 1
        cells.append((start - len(offs), size, len(offs)))
        kept = min(size, len(offs) + r)
        sizes.append(kept)
        start += kept - len(offs)
    spare = []
    for t, (counts, classes, elements) in groups.items():
        kept = classes if classes < r else r
        if kept:
            spare.append((range(start, start + kept * t, t), counts,
                          classes, elements))
            sizes += [t] * kept
            start += kept * t
    fixed = {v: where[ref.class_index, ref.offset]
             for v, ref in params.items()}
    return tuple(sizes), (tuple(cells), tuple(spare),
                          tuple(where.values())), fixed


def _pred_model(summary: NestedPredSummary, params: Dict[str, ElemRef],
                r: int, names: Sequence[str]):
    """The small model of a nested-predicate family as ``(bands, (cells,
    (), elements), fixed)``.  Levels that the predicates ``names``
    (``P<k>``, k increasing) do not tell apart form one band: band j holds
    the elements in the j-th named predicate (every element for j = 0)
    but not the next.  ``bands`` lists each nonempty band, the deepest
    first as ``generate`` lays out the levels, as ``(j, elements in
    M')``; ``cells`` has ``(first element, actual size, elements used)``
    for each; ``elements`` the parameters' distinct elements in M', and
    ``fixed`` each parameter's."""
    bounds = ([summary.total]
              + [summary.pred_sizes[int(name[1:]) - 1] for name in names]
              + [0])
    ids: Dict[int, List[int]] = {}
    for ref in params.values():
        g = ref.global_id
        same = ids.setdefault(sum(1 for b in bounds[1:] if g < b), [])
        if g not in same:
            same.append(g)
    bands = []
    cells = []
    where: Dict[int, int] = {}
    start = 0
    for j in range(len(bounds) - 2, -1, -1):
        size = bounds[j] - bounds[j + 1]
        if size:
            here = sorted(ids.get(j, ()))
            for i, g in enumerate(here):
                where[g] = start + i
            cells.append((start, size, len(here)))
            bands.append((j, min(size, len(here) + r)))
            start += bands[-1][1]
    fixed = {v: where[ref.global_id] for v, ref in params.items()}
    return tuple(bands), (tuple(cells), (), tuple(where.values())), fixed


def _equiv_structure(sizes: Sequence[int]) -> FiniteStructure:
    """Classes of the given sizes, laid out one after another."""
    table = frozenset(chain.from_iterable(
        product(range(start, start + s), repeat=2)
        for start, s in zip(accumulate(sizes, initial=0), sizes)))
    return FiniteStructure(signature=_EQUIV_SIGNATURE,
                           sizes={"S": sum(sizes)}, relations={"E": table},
                           functions={}, constants={})


def _pred_structure(sig: Signature, total: int,
                    pred_sizes: Dict[str, int]) -> FiniteStructure:
    """Each predicate ``name`` holding on the first ``pred_sizes[name]``
    of ``total`` elements."""
    return FiniteStructure(
        signature=sig, sizes={"S": total},
        relations={name: frozenset((e,) for e in range(size))
                   for name, size in pred_sizes.items()},
        functions={}, constants={})


def _small_structure(names: Tuple[str, ...], shape: tuple) -> FiniteStructure:
    """M' of one shape: classes of the sizes ``shape`` when ``names`` is
    ``("E",)``, else the bands ``shape`` of ``_pred_model`` over the
    predicates ``names`` only (the reduct of the family's signature that
    phi reads), the j-th holding on the bands from j + 1 on, which come
    first."""
    if names == ("E",):
        return _equiv_structure(shape)
    kept = [0] * (len(names) + 1)
    for j, size in shape:
        kept[j] = size
    ends = list(accumulate(kept[:0:-1]))[::-1]
    return _pred_structure(
        make_signature(["S"], relations=[(name, ("S",)) for name in names]),
        sum(kept), dict(zip(names, ends)))


def _choices(cells, spare, elems):
    """Each way the next counted variable continues a type, but the last:
    ``(its element in M', weight, the next (cells, spare, elems))``."""
    for e in elems:
        yield e, 1, (cells, spare, elems)
    for j, (start, size, used) in enumerate(cells):
        if used < size:
            e = start + used
            yield e, size - used, (
                cells[:j] + ((start, size, used + 1),) + cells[j + 1:],
                spare, elems + (e,))
    for j, (starts, counts, classes, elements) in enumerate(spare):
        for s, c in counts.items():
            if c:
                e = starts[0]
                group = (starts[1:], {**counts, s: c - 1}, classes - 1,
                         elements - s)
                yield e, s * c, (cells + ((e, s, 1),),
                                 spare[:j] + (group,) + spare[j + 1:],
                                 elems + (e,))


def _last_choices(cells, spare, elems) -> List[Tuple[int, int]]:
    """``(element in M', weight)`` for each choice of the last counted
    variable; the untouched classes of one size in M' are one choice."""
    out = [(e, 1) for e in elems]
    out += [(start + used, size - used) for start, size, used in cells
            if used < size]
    out += [(starts[0], elements) for starts, _, _, elements in spare
            if elements]
    return out


def _types(state, k: int):
    """``(elements, weight, last)`` for each type of the first ``k - 1``
    counted variables: their elements in M', the number of their tuples
    of that type in M, and the last variable's choices."""
    if k == 1:
        yield (), 1, _last_choices(*state)
        return
    for e, weight, after in _choices(*state):
        for reps, more, last in _types(after, k - 1):
            yield (e,) + reps, weight * more, last


def _leaves(state, k: int):
    """``(leaf, weight)`` for each type of the ``k`` counted variables: the
    variables' elements in M' and the number of tuples of M of that type.
    A list when k <= 1 (for k = 0 the empty leaf, of weight 1), else a
    generator."""
    if k == 0:
        return [((), 1)]
    if k == 1:
        return [((e,), w) for e, w in _last_choices(*state)]
    return ((reps + (e,), weight * w)
            for reps, weight, last in _types(state, k) for e, w in last)


def _block_count(summary, phi, params: Dict[str, ElemRef],
                 memo: Optional[dict] = None,
                 budget: Optional[int] = None) -> Count:
    """The exact count of ``phi`` over its counted variables (its free
    variables outside ``params``, in free-variable order) on the family,
    by types on the small model M'; parameters not free in ``phi`` are
    dropped first.  The count charges its type leaves times one plus the
    quantifier-loop visits per evaluation against ``budget`` (default
    ``PFDIM_BUDGET``, read once per ``memo``) before it evaluates, and
    raises ``FamilyError`` "budget exceeded" when that is over.  ``memo``
    keeps, per formula and shape of M', the compiled formula and its truth
    at each type, so counts whose M' has one shape (a spectrum's class
    sizes, once every size exceeds r) evaluate each type once."""
    memo = {} if memo is None else memo
    _, free, depths, names = _facts(phi, memo)
    counted = [n for n in free if n not in params]
    k = len(counted)
    r = k + (max(depths) if depths else 0)
    params = {v: ref for v, ref in params.items() if v in free}
    if isinstance(summary, EquivSummary):
        names = ("E",)
        shape, state, fixed = _equiv_model(summary, params, r, k)
        elements = sum(shape)
    else:
        names = tuple(sorted(names, key=lambda name: int(name[1:])))
        shape, state, fixed = _pred_model(summary, params, r, names)
        elements = sum(kept for _, kept in shape)
    steps = 1 + sum([elements ** d for d in depths]) if depths else 1
    limit = budget
    if limit is None:    # PFDIM_BUDGET, read once per request
        limit = memo.get("budget")
        if limit is None:
            limit = memo["budget"] = get_budget()
    typed = _leaves(state, k)
    if k > 1:
        leaves = 0
        for _, _, last in _types(state, k):
            leaves += len(last)
            if leaves * steps > limit:
                break
    else:
        leaves = len(typed)
    if leaves * steps > limit:
        raise FamilyError(
            f"count could take at least {leaves * steps} steps, type "
            f"leaves times quantifier visits (budget exceeded)")
    # the entry keeps phi, so its id is not reused while the memo lives
    key = ("model", id(phi), shape, tuple(fixed.items()), tuple(counted))
    entry = memo.get(key)
    if entry is None:
        # the counted variables are slots too, set to each leaf in turn
        test, env, _ = compile_formula(
            phi, _small_structure(names, shape),
            {**fixed, **dict.fromkeys(counted, 0)})
        entry = memo[key] = (phi, test, env, {})
    _, test, env, truths = entry
    first = len(fixed)
    total = 0
    for leaf, weight in typed:
        truth = truths.get(leaf)
        if truth is None:
            env[first:first + k] = leaf
            truth = truths[leaf] = test(env)
        if truth:
            total += weight
    return Count(total)


class FamilyAt:
    """One family at one index: its summary and signature, built once,
    the one place a step's formula text becomes a formula, and the one
    place every count at that index is made.

    ``memo`` holds the formula-level work of one request: parsed steps,
    free variables, binder depths, ``PFDIM_BUDGET``, and per shape of the
    small model the compiled formula and its truths.  It is private to
    this index unless ``family_sequence`` hands every index of its request
    the same one."""

    def __init__(self, family: FamilyHandle, index: int):
        self.family = family
        self.index = index
        self.summary = family_summary(family, index)
        self.signature = family_signature(family, index)
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
        index's signature.  The texts are parsed once per request: a parse
        made under another index's signature stands whenever every
        identifier in the texts resolves alike under both
        (``parser.reads_alike``), as on ``convsupersimple`` while the texts
        name no predicate the other index lacks; otherwise they are parsed
        again, and fail as a fresh parse would.  A step with a selector has
        its ``y`` renamed to ``y#<step>``, a name no formula text can use,
        fixed to the selector's element at this index."""
        steps = tuple([(text, selector) for text, selector in steps])
        key = ("steps", steps)
        parsed = self.memo.get(key)
        if parsed is not None and parsed[0] is not self.signature:
            sig, phis, names = parsed
            if names is None:    # read once per request, when first needed
                names = frozenset().union(
                    *[identifiers(text) for text, _ in steps])
                self.memo[key] = sig, phis, names
            if not reads_alike(names, sig, self.signature):
                parsed = None
        fresh = parsed is None
        phis: List[Formula] = [] if fresh else parsed[1]
        out: List[Tuple[Formula, Dict[str, ElemRef]]] = []
        params: Dict[str, ElemRef] = {}
        for j, (text, selector) in enumerate(steps, start=1):
            if fresh:
                # a prefix conjunction puts step j under one And per later
                # step (and the first step under as many as the second)
                phi = parse_formula(text, self.signature,
                                    len(steps) - max(j, 2) + 1)
                if selector:
                    phi = rename_free(phi, "y", f"y#{j}")
                phis.append(And(phis[-1], phi) if phis else phi)
            if selector:
                params = {**params, f"y#{j}": self.selector(selector)["y"]}
            out.append((phis[j - 1], params))
        if fresh:
            self.memo[key] = self.signature, phis, None
        return out

    def counted(self, phi, params: Dict[str, ElemRef]) -> List[str]:
        """The free variables of ``phi`` that ``params`` leaves to be
        counted."""
        return [n for n in _facts(phi, self.memo)[1] if n not in params]

    def check_one_counted(self, phi, params: Dict[str, ElemRef]) -> None:
        """Refuse ``phi`` as a set of single elements when more than one of
        its free variables is outside ``params``."""
        counted = self.counted(phi, params)
        if len(counted) > 1:
            raise FamilyError(f"{len(counted)} counted variables "
                              f"({', '.join(counted)}); expected at most one")

    def count(self, phi, params: Dict[str, ElemRef],
              budget: Optional[int] = None) -> Count:
        """Exact |phi(M_index, params)| on the small model
        (``_block_count``) under ``budget``."""
        return _block_count(self.summary, phi, params, self.memo, budget)

    def spectrum(self, phi_text: str) -> List[float]:
        """Sorted distinct log-counts of {phi(x, b) : b in universe}.

        The parameter variable must be 'y', and at most one other variable
        may be free.  The count of phi(x, b) is invariant under the
        automorphisms of the structure, and on these families (only ``E``)
        an automorphism can move any element to any other element of its
        class, and swap any two classes of equal size.  So one class per
        distinct size is counted by ``count``, the first of that size, at
        its first element; a formula without ``y`` is counted once.
        """
        (phi, _), = self.conjunctions([(phi_text, None)])
        if self.family.family_id not in _EQUIV_FAMILIES:
            raise FamilyError(
                "spectrum supported for equivalence families only")
        self.check_one_counted(phi, {"y": None})
        if "y" not in _facts(phi, self.memo)[1]:  # one count for every b
            return [self.count(phi, {}).log_value]
        element = self.summary.element
        return sorted({self.count(phi, {"y": element(ci)}).log_value
                       for ci in self.summary.first_classes().values()})


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
    from . import gf
    from .vspace import Ambient
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
    from . import gf
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
    from . import gf
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
