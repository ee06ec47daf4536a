"""Exact evaluation and counting of definable sets.

``compile_formula`` turns a formula, for one structure, into nested
closures over a flat slot list (one slot per variable and per binder).
Each closure returns the bitmask of the last counted variable: the set of
its values that satisfy the subformula, given the other slots (one set
at a time, after Abo Khamis, Ngo and Rudra's FAQ).  ``count`` compiles
once, enumerates the assignments of the other counted variables serially
and adds up the masks' bit counts; ``evaluate`` and
``families.FamilyAt.count`` (on its small model, with every variable in a
slot) count nothing, so their masks are one bit, the truth value.

When something is counted, each binder is guarded: the conjuncts of its
body (of the antecedent, for ``forall z. A -> B``) that read z only as a
bare variable, not the last counted variable, and only variables that have
a value, are compiled once as a mask over z, and the loop visits only the
set bits of that mask.  So ``exists z. E(x, z) & E(z, y)`` is the union of
the index rows ``E(z, .)`` over z in ``E(x, .)``, the semijoin of
Yannakakis's acyclic joins done a set at a time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import Count, PfdimError
from .logic import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                    Not, Or, Rel, Var, FiniteStructure, free_variables)

DEFAULT_BUDGET = 10 ** 9


class BudgetExceeded(PfdimError):
    """Raised when a count could take more steps than the budget: counted
    assignments times the quantifier-loop visits each may make."""


class AssignmentError(PfdimError):
    pass


def get_budget() -> int:
    env = os.environ.get("PFDIM_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class CardinalitySequence:
    family_id: str
    formula_text: str
    selector: str
    points: Tuple[Tuple[int, Count], ...]  # (index, count), indices increasing

    def __post_init__(self):
        idx = [i for i, _ in self.points]
        if idx != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing")

    @property
    def indices(self) -> List[int]:
        return [i for i, _ in self.points]

    @property
    def log_values(self) -> List[float]:
        return [c.log_value for _, c in self.points]


# ---------------------------------------------------------------------------
# Evaluation.  A formula is compiled once per structure into nested closures
# over a flat slot list.  Every binder gets a fresh slot, so a quantifier
# loop writes its own slot and never saves or restores a shadowed value.
#
# Each closure returns a bitmask over the values of one slot, the mask slot
# s: bit b is set when the subformula holds with s = b.  An atom that reads
# s looks its mask up in an index of the relation's table, built on first
# use; the connectives are bitwise operations, and a quantifier ORs (ANDs)
# its body's masks over the bound values.  The mask slot is the last
# counted variable v, or, for a binder's guard, the bound variable; with
# nothing counted there is none, and the mask has one bit, the truth value.

_INNER = object()   # the slot of a binder inside the formula being read


def _unassigned(name: str):
    def value(env):
        raise AssignmentError(f"no value for variable {name}")
    return value


def _reads(f, scope, bare=True) -> set:
    """``(slot, bare)`` for the variable occurrences in formula or term
    ``f``: the slot ``scope`` gives the name (``None`` for a name without a
    slot, ``_INNER`` for a variable bound inside ``f``), and whether the
    variable stands bare rather than under a function."""
    if isinstance(f, Var):
        return {(scope.get(f.name), bare)}
    if isinstance(f, (App, Rel)):
        bare = bare and isinstance(f, Rel)
        return set().union(*[_reads(a, scope, bare) for a in f.args])
    if isinstance(f, (Eq, And, Or, Implies)):
        return _reads(f.left, scope, bare) | _reads(f.right, scope, bare)
    if isinstance(f, Not):
        return _reads(f.body, scope)
    if isinstance(f, (Exists, Forall)):
        return _reads(f.body, {**scope, f.var: _INNER})
    return set()


def _conjuncts(f) -> list:
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _guarded(conjuncts, scope, z, s):
    """Split ``conjuncts`` into the guard of the binder at slot ``z`` and
    the rest, each in order.  The guard takes a conjunct that reads ``z``
    only bare, not the mask slot ``s``, and only names with a slot, up to
    the first conjunct that reads a name without one: a conjunct after it
    could otherwise skip a bound value at which evaluation reaches it."""
    guard, rest = [], []
    assigned = True
    for c in conjuncts:
        reads = _reads(c, scope)
        assigned = assigned and all(slot is not None for slot, _ in reads)
        if assigned and all(slot != s and (bare or slot != z)
                            for slot, bare in reads):
            guard.append(c)
        else:
            rest.append(c)
    return guard, rest


def _membership(M: FiniteStructure, name: str):
    """The test ``tuple -> bool`` of relation ``name`` in ``M``."""
    if name in M.virtual_relations:
        return M.virtual_relations[name]
    return M.relations[name].__contains__


def compile_formula(phi: Formula, M: FiniteStructure, fixed: Dict[str, int],
                    counted: Sequence[str] = (), size: Optional[int] = None):
    """Compile ``phi`` for ``M`` into ``(test, env, visits)``.

    ``env`` is the slot list: the values of ``fixed``, then one slot for
    each name in ``counted``, then one slot per binder.  ``test(env)`` is
    the set of values b of the last counted variable, as a bitmask, for
    which ``phi`` holds in ``M`` with that variable at b and every other
    variable at the value in its slot (the caller sets the other counted
    variables' slots).  With nothing counted it is 1 or 0, the truth of
    ``phi``.  ``visits`` is the most quantifier-loop visits one call of
    ``test`` can make.  A free variable in neither ``fixed`` nor
    ``counted`` raises :class:`AssignmentError` only when evaluation
    reaches it.

    When something is counted, a binder visits only the bound values its
    guard allows: the conjuncts of its body (of the antecedent, for
    ``forall z. A -> B``) that ``_guarded`` picks, compiled as a mask over
    the bound variable and evaluated once per run of the binder.

    ``size``, when given, is the size of the last counted variable's sort,
    which is otherwise read from ``phi``'s free variables.
    """
    names = [*fixed, *counted]
    width = len(names)
    visits = 0
    n_fixed = len(fixed)
    indexes: Dict[tuple, dict] = {}

    def term(t, scope):
        if isinstance(t, Var):
            if t.name in scope:
                return itemgetter(scope[t.name])
            return _unassigned(t.name)
        if isinstance(t, Const):
            value = M.constants[t.name]
            return lambda env: value
        if isinstance(t, App):
            table = M.functions[t.func]
            args = [term(a, scope) for a in t.args]
            return lambda env: table[tuple([a(env) for a in args])]
        raise TypeError(f"not a term: {t!r}")

    def atom(f, scope, full):
        # full or 0, reading the mask slot like any other
        if isinstance(f, Eq):
            i = scope.get(f.left.name) if isinstance(f.left, Var) else None
            j = scope.get(f.right.name) if isinstance(f.right, Var) else None
            if i is not None and j is not None:
                return lambda env: full if env[i] == env[j] else 0
            left, right = term(f.left, scope), term(f.right, scope)
            return lambda env: full if left(env) == right(env) else 0
        holds = _membership(M, f.name)
        slots = [scope.get(a.name) if isinstance(a, Var) else None
                 for a in f.args]
        if None not in slots and len(slots) == 1:
            i, = slots
            return lambda env: full if holds((env[i],)) else 0
        if None not in slots and len(slots) == 2:
            i, j = slots
            return lambda env: full if holds((env[i], env[j])) else 0
        args = [term(a, scope) for a in f.args]
        return lambda env: full if holds(tuple([a(env) for a in args])) else 0

    def index(name, pos, others):
        # one scan of the table: values at ``others`` -> mask of the values
        # at ``pos``
        if (name, pos) not in indexes:
            idx: dict = {}
            get = idx.get
            table = M.relations[name]
            if len(others) == 1 and len(pos) == 1:
                # two columns, one key: unpack each pair, shift by lookup
                bit = [1 << b for b in range(
                    M.sizes[M.signature.relations[name][pos[0]]])]
                if pos == (1,):
                    for a, b in table:
                        idx[a] = get(a, 0) | bit[b]
                else:
                    for a, b in table:
                        idx[b] = get(b, 0) | bit[a]
            else:
                p, rest = pos[0], pos[1:]
                one = others[0] if len(others) == 1 else None
                for tup in table:
                    b = tup[p]
                    if rest and any(tup[q] != b for q in rest):
                        continue
                    k = (tup[one] if one is not None
                         else tuple([tup[o] for o in others]))
                    idx[k] = get(k, 0) | 1 << b
            indexes[name, pos] = idx
        return indexes[name, pos]

    def relation_mask(f, pos, others, scope, reads, domain):
        # the mask slot bare at ``pos``; the terms at ``others`` do not
        # read it
        name, arity = f.name, len(f.args)
        keys = [term(f.args[p], scope) for p in others]
        steady = all(s is not None and s < n_fixed
                     for p in others for s in reads[p])
        if steady or name in M.virtual_relations:
            # a key that reads only fixed slots is the same all through a
            # count, and a virtual relation has no table to scan: fill each
            # key's mask on first sight, one test per value of the slot
            holds = _membership(M, name)
            masks: dict = {}

            def filled(env):
                k = tuple([key(env) for key in keys])
                m = masks.get(k)
                if m is None:
                    row = [None] * arity
                    for p, value in zip(others, k):
                        row[p] = value
                    m = 0
                    for b in domain:
                        for p in pos:
                            row[p] = b
                        if holds(tuple(row)):
                            m |= 1 << b
                    masks[k] = m
                return m
            return filled
        if len(keys) == 1:
            key, = keys
        else:
            def key(env):
                return tuple([k(env) for k in keys])
        idx = None   # scanned on first use, so a refused count scans nothing

        def scanned(env):
            nonlocal idx
            if idx is None:
                idx = index(name, pos, others)
            return idx.get(key(env), 0)
        return scanned

    def walk(f, scope, reach, s, domain, full):
        # masks over the values ``domain`` of slot ``s`` (``full``: all of
        # them; ``s`` None: the truth value).  reach: the product of the
        # enclosing binders' sort sizes, the most times one evaluation can
        # reach ``f``
        nonlocal width, visits
        if isinstance(f, (Rel, Eq)):
            if s is None:
                return atom(f, scope, full)
            args = f.args if isinstance(f, Rel) else (f.left, f.right)
            reads = [{slot for slot, _ in _reads(a, scope)} for a in args]
            pos = tuple(p for p, r in enumerate(reads) if s in r)
            if not pos:
                return atom(f, scope, full)
            others = [p for p in range(len(args)) if p not in pos]
            if any(not isinstance(args[p], Var) for p in pos):
                # s under a function term: one scalar test per value of s
                test = atom(f, scope, 1)

                def each(env):
                    m = 0
                    for b in domain:
                        env[s] = b
                        if test(env):
                            m |= 1 << b
                    return m
                return each
            if isinstance(f, Rel):
                return relation_mask(f, pos, others, scope, reads, domain)
            if not others:
                return lambda env: full           # s = s
            other = term(args[others[0]], scope)
            return lambda env: 1 << other(env)    # w = s
        if isinstance(f, Not):
            body = walk(f.body, scope, reach, s, domain, full)
            return lambda env: full ^ body(env)
        if isinstance(f, (And, Or, Implies)):
            left = walk(f.left, scope, reach, s, domain, full)
            right = walk(f.right, scope, reach, s, domain, full)
            if isinstance(f, And):
                return lambda env: (m := left(env)) and m & right(env)
            if isinstance(f, Or):
                return lambda env: (m if (m := left(env)) == full
                                    else m | right(env))
            return lambda env: (full ^ m) | right(env) if (m := left(env)) else full
        if not isinstance(f, (Exists, Forall)):
            raise TypeError(f"not a formula node: {f!r}")
        k = width
        width += 1
        values = range(M.sizes[f.sort])
        visits += reach * len(values)
        reach *= len(values)
        scope = {**scope, f.var: k}
        exists = isinstance(f, Exists)
        guard = []
        # with nothing counted the plain loop stops at its first witness
        # (counterexample), where building the guard would visit every value
        if s is not None and (exists or isinstance(f.body, Implies)):
            guard, rest = _guarded(_conjuncts(f.body if exists else f.body.left),
                                   scope, k, s)
        body = f.body
        if guard:
            allowed = walk(reduce(And, guard), scope, reach, k, values,
                           (1 << len(values)) - 1)
            if exists and not rest:
                return lambda env: full if allowed(env) else 0
            if exists:
                body = reduce(And, rest)
            elif rest:
                body = Implies(reduce(And, rest), f.body.right)
            else:
                body = f.body.right

            # only the bound values in the guard's mask, lowest first: any
            # other makes the body false (exists) or the implication true
            # (forall), so it cannot change the result
            def choices(env):
                g = allowed(env)
                while g:
                    low = g & -g
                    yield low.bit_length() - 1
                    g ^= low
        else:
            def choices(env):
                return values
        body = walk(body, scope, reach, s, domain, full)
        if exists:
            def some(env):
                m = 0
                for b in choices(env):
                    env[k] = b
                    m |= body(env)
                    if m == full:
                        break
                return m
            return some

        def every(env):
            m = full
            for b in choices(env):
                env[k] = b
                m &= body(env)
                if not m:
                    break
            return m
        return every

    s, domain = None, range(1)
    if counted:   # v, the last counted variable
        if size is None:
            size = M.sizes[dict(free_variables(phi))[counted[-1]]]
        s, domain = width - 1, range(size)
    test = walk(phi, {name: i for i, name in enumerate(names)}, 1, s, domain,
                (1 << len(domain)) - 1)
    del walk, term   # they reach themselves through their cells
    return test, [*fixed.values(), *[0] * (width - len(fixed))], visits


def evaluate(phi: Formula, M: FiniteStructure, assignment: Dict[str, int]) -> bool:
    """Tarskian truth of ``phi`` in ``M`` under ``assignment`` (name -> id)."""
    test, env, _ = compile_formula(phi, M, assignment)
    return bool(test(env))


# ---------------------------------------------------------------------------
# Counting


def count(phi: Formula, M: FiniteStructure, fixed: Dict[str, int],
          counted_vars: Sequence[str],
          budget: Optional[int] = None) -> Count:
    """Exact number of counted-variable tuples satisfying ``phi``.

    ``counted_vars`` (without repeats) and the domain of ``fixed`` must
    partition the free variables of ``phi`` (disjointly), and each fixed
    value must be an element of its variable's sort.  ``phi`` is compiled
    once and run on every assignment of the counted variables but the
    last, serially; each run gives the last one's values as a bitmask.
    The budget (default
    ``PFDIM_BUDGET``) bounds the steps before any is taken: the number of
    assignments times one plus the most quantifier-loop visits per
    assignment.
    """
    fv = free_variables(phi)
    fv_names = [n for n, _ in fv]
    sorts = dict(fv)
    repeated = sorted({v for v in counted_vars if counted_vars.count(v) > 1})
    if repeated:
        raise AssignmentError(f"variables counted more than once: {repeated}")
    overlap = set(counted_vars) & set(fixed)
    if overlap:
        raise AssignmentError(f"variables both fixed and counted: {sorted(overlap)}")
    missing = set(fv_names) - set(counted_vars) - set(fixed)
    if missing:
        raise AssignmentError(f"unassigned free variables: {sorted(missing)}")
    extra = set(counted_vars) - set(fv_names)
    if extra:
        raise AssignmentError(
            f"counted variables not free in the formula: {sorted(extra)}")
    extra = set(fixed) - set(fv_names)
    if extra:
        raise AssignmentError(
            f"fixed variables not free in the formula: {sorted(extra)}")
    for v, value in fixed.items():
        n = _sort_size(M, v, sorts[v])
        if not 0 <= value < n:
            raise AssignmentError(
                f"fixed value {v}={value} is outside sort {sorts[v]} "
                f"(elements 0..{n - 1})")
    domains = [range(_sort_size(M, v, sorts[v])) for v in counted_vars]
    # the counted variables' slots follow the fixed ones
    test, env, visits = compile_formula(
        phi, M, fixed, counted_vars, len(domains[-1]) if domains else None)
    total = 1 + visits
    for domain in domains:
        total *= len(domain)
    if total > (budget if budget is not None else get_budget()):
        raise BudgetExceeded(
            f"count could take {total} steps, assignments times quantifier "
            f"visits (budget exceeded)")
    if not counted_vars:
        return Count(test(env))

    # one test per assignment of the others gives the last one's values
    first, last = len(fixed), len(fixed) + len(counted_vars) - 1
    hits = 0
    for values in product(*domains[:-1]):
        env[first:last] = values
        hits += test(env).bit_count()
    return Count(hits)


def _sort_size(M: FiniteStructure, var: str, sort: Optional[str]) -> int:
    if sort is None:
        raise AssignmentError(f"variable {var} has no inferred sort; sort_check first")
    return M.sizes[sort]
