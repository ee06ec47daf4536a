"""Exact evaluation and counting of definable sets.

``count`` enumerates assignments for the counted variables serially and
sums exact big-integer hits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .logic import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                    Not, Or, PfdimError, Rel, Var, FiniteStructure,
                    free_variables)

NEG_INF = float("-inf")

DEFAULT_BUDGET = 10 ** 9


class BudgetExceeded(PfdimError):
    """Raised when a count would visit more assignments than the budget."""


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
# Evaluation


def eval_term(t, M: FiniteStructure, env: Dict[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise AssignmentError(f"no value for variable {t.name}") from None
    if isinstance(t, Const):
        return M.constants[t.name]
    if isinstance(t, App):
        args = tuple(eval_term(a, M, env) for a in t.args)
        return M.functions[t.func][args]
    raise TypeError(f"not a term: {t!r}")


def evaluate(phi: Formula, M: FiniteStructure, assignment: Dict[str, int]) -> bool:
    """Tarskian truth of ``phi`` in ``M`` under ``assignment`` (name -> id)."""
    return _eval(phi, M, dict(assignment))


def _eval(phi, M, env) -> bool:
    if isinstance(phi, Rel):
        return M.holds(phi.name, tuple(eval_term(a, M, env) for a in phi.args))
    if isinstance(phi, Eq):
        return eval_term(phi.left, M, env) == eval_term(phi.right, M, env)
    if isinstance(phi, Not):
        return not _eval(phi.body, M, env)
    if isinstance(phi, And):
        return _eval(phi.left, M, env) and _eval(phi.right, M, env)
    if isinstance(phi, Or):
        return _eval(phi.left, M, env) or _eval(phi.right, M, env)
    if isinstance(phi, Implies):
        return (not _eval(phi.left, M, env)) or _eval(phi.right, M, env)
    if isinstance(phi, (Exists, Forall)):
        size = M.sizes[phi.sort]
        saved = env.get(phi.var)
        want = isinstance(phi, Exists)
        result = not want
        for v in range(size):
            env[phi.var] = v
            if _eval(phi.body, M, env) == want:
                result = want
                break
        if saved is None:
            env.pop(phi.var, None)
        else:
            env[phi.var] = saved
        return result
    raise TypeError(f"not a formula node: {phi!r}")


# ---------------------------------------------------------------------------
# Counting


def count(phi: Formula, M: FiniteStructure, fixed: Dict[str, int],
          counted_vars: Sequence[str], workers: int = 1,
          budget: Optional[int] = None) -> Count:
    """Exact number of counted-variable tuples satisfying ``phi``.

    ``counted_vars`` and the domain of ``fixed`` must partition the free
    variables of ``phi`` (disjointly).  ``workers`` is accepted and ignored:
    enumeration is serial.
    """
    fv = free_variables(phi)
    fv_names = [n for n, _ in fv]
    sorts = dict(fv)
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
    counted = [v for v in counted_vars if v in sorts]

    if not counted:
        return Count(1 if evaluate(phi, M, fixed) else 0)

    domains = []
    total = 1
    for v in counted:
        if sorts[v] is None:
            raise AssignmentError(f"variable {v} has no inferred sort; sort_check first")
        n = M.sizes[sorts[v]]
        domains.append(range(n))
        total *= n
    if total > (budget if budget is not None else get_budget()):
        raise BudgetExceeded(
            f"count would enumerate {total} assignments (budget exceeded)")

    # The innermost variable is set directly: a dict update per assignment
    # made one-variable counts about 13% slower.
    *outer, last = counted
    env = dict(fixed)
    hits = 0
    for values in product(*domains[:-1]):
        env.update(zip(outer, values))
        for v in domains[-1]:
            env[last] = v
            if _eval(phi, M, env):
                hits += 1
    return Count(hits)


def count_family(phi_text: str, family, indices: Sequence[int],
                 selector: Optional[str] = None,
                 budget: Optional[int] = None) -> CardinalitySequence:
    """One exact count per family index, indices sorted and deduplicated.

    Dispatches through the family handle: aggregate (closed-form block)
    counting where the family supports the formula, otherwise materializes
    each structure once and enumerates. Selector failures are reported with
    their index.
    """
    # deferred import: families depends on counting for the engine fallback
    from .families import family_count

    points = []
    for idx in sorted(set(indices)):
        try:
            c = family_count(family, phi_text, idx, selector=selector,
                             budget=budget)
        except PfdimError as exc:
            raise PfdimError(f"index {idx}: {exc}") from exc
        points.append((idx, c))
    return CardinalitySequence(
        family_id=family.family_id, formula_text=phi_text,
        selector=selector or "", points=tuple(points))
