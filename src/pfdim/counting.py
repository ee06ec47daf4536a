"""Exact evaluation and counting of definable sets.

``compile_formula`` turns a formula, for one structure, into nested
closures over a flat slot list (one slot per variable and per binder).
``count`` compiles once, then enumerates assignments for the counted
variables serially and sums exact big-integer hits; ``evaluate`` and the
block route of ``families.FamilyAt.count`` go through the same compiler.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .logic import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                    Not, Or, PfdimError, Rel, Var, FiniteStructure,
                    free_variables)

NEG_INF = float("-inf")

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
class Count:
    """An exact nonnegative integer with its natural log (-inf for zero)."""

    value: int
    log_value: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("counts are nonnegative")
        if self.log_value is None:
            # math.log takes big ints directly without float conversion
            lv = NEG_INF if self.value == 0 else math.log(self.value)
            object.__setattr__(self, "log_value", lv)


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


def _unassigned(name: str):
    def value(env):
        raise AssignmentError(f"no value for variable {name}")
    return value


def compile_formula(phi: Formula, M: FiniteStructure, fixed: Dict[str, int],
                    counted: Sequence[str] = ()):
    """Compile ``phi`` for ``M`` into ``(test, env, visits)``.

    ``env`` is the slot list: the values of ``fixed``, then one slot for
    each name in ``counted`` (for the caller to set), then one slot per
    binder.  ``test(env)`` is the truth of ``phi`` in ``M`` under the
    values in the slots.  ``visits`` is the most quantifier-loop visits
    one call of ``test`` can make.  A free variable in neither ``fixed``
    nor ``counted`` raises :class:`AssignmentError` only when evaluation
    reaches it.
    """
    names = [*fixed, *counted]
    width = len(names)
    visits = 0

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

    def walk(f, scope, reach):
        # reach: the product of the enclosing binders' sort sizes, the
        # most times one evaluation can reach ``f``
        nonlocal width, visits
        if isinstance(f, Rel):
            if f.name in M.virtual_relations:
                holds = M.virtual_relations[f.name]
            else:
                holds = M.relations[f.name].__contains__
            slots = [scope.get(a.name) if isinstance(a, Var) else None
                     for a in f.args]
            if None not in slots and len(slots) == 1:
                i, = slots
                return lambda env: holds((env[i],))
            if None not in slots and len(slots) == 2:
                i, j = slots
                return lambda env: holds((env[i], env[j]))
            args = [term(a, scope) for a in f.args]
            return lambda env: holds(tuple([a(env) for a in args]))
        if isinstance(f, Eq):
            i = scope.get(f.left.name) if isinstance(f.left, Var) else None
            j = scope.get(f.right.name) if isinstance(f.right, Var) else None
            if i is not None and j is not None:
                return lambda env: env[i] == env[j]
            left, right = term(f.left, scope), term(f.right, scope)
            return lambda env: left(env) == right(env)
        if isinstance(f, Not):
            body = walk(f.body, scope, reach)
            return lambda env: not body(env)
        if isinstance(f, (And, Or, Implies)):
            left, right = walk(f.left, scope, reach), walk(f.right, scope, reach)
            if isinstance(f, And):
                return lambda env: left(env) and right(env)
            if isinstance(f, Or):
                return lambda env: left(env) or right(env)
            return lambda env: not left(env) or right(env)
        if isinstance(f, (Exists, Forall)):
            k = width
            width += 1
            values = range(M.sizes[f.sort])
            visits += reach * len(values)
            body = walk(f.body, {**scope, f.var: k}, reach * len(values))
            if isinstance(f, Exists):
                def exists(env):
                    for v in values:
                        env[k] = v
                        if body(env):
                            return True
                    return False
                return exists

            def forall(env):
                for v in values:
                    env[k] = v
                    if not body(env):
                        return False
                return True
            return forall
        raise TypeError(f"not a formula node: {f!r}")

    test = walk(phi, {name: i for i, name in enumerate(names)}, 1)
    return test, [*fixed.values(), *[0] * (width - len(fixed))], visits


def evaluate(phi: Formula, M: FiniteStructure, assignment: Dict[str, int]) -> bool:
    """Tarskian truth of ``phi`` in ``M`` under ``assignment`` (name -> id)."""
    test, env, _ = compile_formula(phi, M, assignment)
    return test(env)


# ---------------------------------------------------------------------------
# Counting


def count(phi: Formula, M: FiniteStructure, fixed: Dict[str, int],
          counted_vars: Sequence[str],
          budget: Optional[int] = None) -> Count:
    """Exact number of counted-variable tuples satisfying ``phi``.

    ``counted_vars`` (without repeats) and the domain of ``fixed`` must
    partition the free variables of ``phi`` (disjointly), and each fixed
    value must be an element of its variable's sort.  ``phi`` is compiled
    once and run on every assignment, serially.  The budget (default
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
    # the counted variables' slots follow the fixed ones
    test, env, visits = compile_formula(phi, M, fixed, counted_vars)
    domains = []
    total = 1 + visits
    for v in counted_vars:
        n = _sort_size(M, v, sorts[v])
        domains.append(range(n))
        total *= n
    if total > (budget if budget is not None else get_budget()):
        raise BudgetExceeded(
            f"count could take {total} steps, assignments times quantifier "
            f"visits (budget exceeded)")
    if not counted_vars:
        return Count(1 if test(env) else 0)

    # the innermost counted variable is set directly
    first, last = len(fixed), len(fixed) + len(counted_vars) - 1
    hits = 0
    for values in product(*domains[:-1]):
        env[first:last] = values
        for v in domains[-1]:
            env[last] = v
            if test(env):
                hits += 1
    return Count(hits)


def _sort_size(M: FiniteStructure, var: str, sort: Optional[str]) -> int:
    if sort is None:
        raise AssignmentError(f"variable {var} has no inferred sort; sort_check first")
    return M.sizes[sort]
