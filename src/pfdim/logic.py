"""Signatures, multi-sorted finite structures, and the first-order formula AST.

Elements of a structure are dense integer ids ``0..size-1`` per sort.
Signatures and structures are immutable after construction so they
can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, List, Mapping, Optional, Tuple, Union


class PfdimError(Exception):
    """Base class for all library errors."""


class SignatureError(PfdimError):
    pass


class StructureError(PfdimError):
    pass


class SortError(PfdimError):
    """Sort-check diagnostic.  ``kind`` is one of 'unknown-symbol',
    'arity-mismatch', 'sort-mismatch'."""

    def __init__(self, kind: str, node, message: str):
        super().__init__(message)
        self.kind = kind
        self.node = node


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    sorts: Tuple[str, ...]
    relations: Mapping[str, Tuple[str, ...]]          # name -> arg sorts
    functions: Mapping[str, Tuple[Tuple[str, ...], str]]  # name -> (arg sorts, result)
    constants: Mapping[str, str]                      # name -> sort

    def __post_init__(self):
        seen = set(self.sorts)
        if len(seen) != len(self.sorts):
            raise SignatureError("duplicate sort name")
        for name, args in self.relations.items():
            for s in args:
                if s not in seen:
                    raise SignatureError(f"relation {name}: undeclared sort {s}")
        for name, (args, res) in self.functions.items():
            for s in (*args, res):
                if s not in seen:
                    raise SignatureError(f"function {name}: undeclared sort {s}")
        for name, s in self.constants.items():
            if s not in seen:
                raise SignatureError(f"constant {name}: undeclared sort {s}")
        kinds = [set(self.relations), set(self.functions), set(self.constants)]
        for i in range(3):
            for j in range(i + 1, 3):
                clash = kinds[i] & kinds[j]
                if clash:
                    raise SignatureError(f"name used in two kinds: {sorted(clash)}")


def make_signature(sorts, relations=(), functions=(), constants=()) -> Signature:
    """Convenience builder taking iterables of (name, ...) tuples."""
    return Signature(
        sorts=tuple(sorts),
        relations={n: tuple(a) for n, a in relations},
        functions={n: (tuple(a), r) for n, a, r in functions},
        constants=dict(constants),
    )


# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True)
class Var:
    name: str
    sort: Optional[str] = None  # filled by binding site or sort_check


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: Tuple["Term", ...]


Term = Union[Var, Const, App]


@dataclass(frozen=True)
class Rel:
    name: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    sort: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    sort: str
    body: "Formula"


Formula = Union[Rel, Eq, Not, And, Or, Implies, Exists, Forall]

_BINARY = (And, Or, Implies)
_QUANT = (Exists, Forall)


def free_variables(phi: Formula) -> list:
    """Free variables of ``phi`` as (name, sort) pairs in first-occurrence order.

    Sorts are read off the Var nodes, so run ``sort_check`` first if the
    formula was built without explicit annotations.
    """
    out: list = []
    seen: set = set()

    def term(t, bound):
        if isinstance(t, Var):
            if t.name not in bound and t.name not in seen:
                seen.add(t.name)
                out.append((t.name, t.sort))
        elif isinstance(t, App):
            for a in t.args:
                term(a, bound)

    def walk(f, bound):
        if isinstance(f, Rel):
            for a in f.args:
                term(a, bound)
        elif isinstance(f, Eq):
            term(f.left, bound)
            term(f.right, bound)
        elif isinstance(f, Not):
            walk(f.body, bound)
        elif isinstance(f, _BINARY):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, _QUANT):
            walk(f.body, bound | {f.var})
        else:
            raise TypeError(f"not a formula node: {f!r}")

    walk(phi, frozenset())
    del walk, term   # they reach themselves through their cells
    return out


def rename_free(phi: Formula, old: str, new: str) -> Formula:
    """Rename the free occurrences of variable ``old`` to ``new``.

    The rename stops at any binder of ``old``.  It does not guard against
    capture of ``new`` by a binder, so pick a fresh name.
    """
    def term(t):
        if isinstance(t, Var):
            return Var(new, t.sort) if t.name == old else t
        if isinstance(t, App):
            return App(t.func, tuple(term(a) for a in t.args))
        return t

    def walk(f):
        if isinstance(f, Rel):
            return Rel(f.name, tuple(term(a) for a in f.args))
        if isinstance(f, Eq):
            return Eq(term(f.left), term(f.right))
        if isinstance(f, Not):
            return Not(walk(f.body))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, _QUANT):
            if f.var == old:
                return f
            return type(f)(f.var, f.sort, walk(f.body))
        raise TypeError(f"not a formula node: {f!r}")

    out = walk(phi)
    del walk, term
    return out


def sort_check(phi: Formula, sig: Signature) -> Formula:
    """Check ``phi`` against ``sig`` and return a fully sort-annotated copy.

    Free-variable sorts are inferred from the first atom position in which
    the variable occurs.  Raises :class:`SortError` with kind
    'unknown-symbol', 'arity-mismatch', or 'sort-mismatch' on the first
    offending node.
    """
    inferred: dict = {}

    def term(t, expected, bound):
        if isinstance(t, Var):
            declared = bound.get(t.name, inferred.get(t.name, t.sort))
            if declared is None:
                inferred[t.name] = expected
                return Var(t.name, expected), expected
            if expected is not None and declared != expected:
                raise SortError(
                    "sort-mismatch", t,
                    f"variable {t.name} has sort {declared}, expected {expected}")
            if t.name not in bound:
                inferred[t.name] = declared
            return Var(t.name, declared), declared
        if isinstance(t, Const):
            if t.name not in sig.constants:
                raise SortError("unknown-symbol", t, f"unknown constant {t.name}")
            s = sig.constants[t.name]
            if expected is not None and s != expected:
                raise SortError(
                    "sort-mismatch", t,
                    f"constant {t.name} has sort {s}, expected {expected}")
            return t, s
        if isinstance(t, App):
            if t.func not in sig.functions:
                raise SortError("unknown-symbol", t, f"unknown function {t.func}")
            arg_sorts, res = sig.functions[t.func]
            if len(t.args) != len(arg_sorts):
                raise SortError(
                    "arity-mismatch", t,
                    f"function {t.func} expects {len(arg_sorts)} args, got {len(t.args)}")
            new_args = tuple(term(a, s, bound)[0] for a, s in zip(t.args, arg_sorts))
            if expected is not None and res != expected:
                raise SortError(
                    "sort-mismatch", t,
                    f"term {t.func}(...) has sort {res}, expected {expected}")
            return App(t.func, new_args), res
        raise TypeError(f"not a term: {t!r}")

    def walk(f, bound):
        if isinstance(f, Rel):
            if f.name not in sig.relations:
                raise SortError("unknown-symbol", f, f"unknown relation {f.name}")
            arg_sorts = sig.relations[f.name]
            if len(f.args) != len(arg_sorts):
                raise SortError(
                    "arity-mismatch", f,
                    f"relation {f.name} expects {len(arg_sorts)} args, got {len(f.args)}")
            return Rel(f.name, tuple(term(a, s, bound)[0]
                                     for a, s in zip(f.args, arg_sorts)))
        if isinstance(f, Eq):
            # infer a common sort: try left first, then right, then annotate
            # both sides with it
            _, s = term(f.left, None, bound)
            if s is None:
                _, s = term(f.right, None, bound)
                if s is None and len(sig.sorts) == 1:
                    s = sig.sorts[0]
                if s is None:
                    raise SortError("sort-mismatch", f,
                                    "cannot infer sort of equality")
            left, _ = term(f.left, s, bound)
            right, _ = term(f.right, s, bound)
            return Eq(left, right)
        if isinstance(f, Not):
            return Not(walk(f.body, bound))
        if isinstance(f, And):
            return And(walk(f.left, bound), walk(f.right, bound))
        if isinstance(f, Or):
            return Or(walk(f.left, bound), walk(f.right, bound))
        if isinstance(f, Implies):
            return Implies(walk(f.left, bound), walk(f.right, bound))
        if isinstance(f, _QUANT):
            if f.sort not in sig.sorts:
                raise SortError("unknown-symbol", f, f"unknown sort {f.sort}")
            body = walk(f.body, {**bound, f.var: f.sort})
            return type(f)(f.var, f.sort, body)
        raise TypeError(f"not a formula node: {f!r}")

    out = walk(phi, {})
    del walk, term
    return out


# ---------------------------------------------------------------------------
# Finite structures


@dataclass(frozen=True)
class FiniteStructure:
    """A finite multi-sorted structure over a signature.

    ``virtual_relations`` maps relation names to membership predicates for
    relations too large to tabulate (e.g. high-arity independence relations);
    they behave like tables for evaluation but are not serialized.
    """

    signature: Signature
    sizes: Mapping[str, int]                       # sort -> universe size
    relations: Mapping[str, frozenset]             # name -> set of id-tuples
    functions: Mapping[str, Mapping[tuple, int]]   # name -> args-tuple -> id
    constants: Mapping[str, int]                   # name -> id
    virtual_relations: Mapping[str, Callable[[tuple], bool]] = field(
        default_factory=dict, compare=False)

    def __post_init__(self):
        sig = self.signature
        for s in sig.sorts:
            if self.sizes.get(s, 0) <= 0:
                raise StructureError(f"sort {s}: universe must be nonempty")
        for name, args in sig.relations.items():
            if name in self.virtual_relations:
                continue
            table = self.relations.get(name)
            if table is None:
                raise StructureError(f"relation {name}: missing table")
            if not table:
                continue
            # a whole column at a time: a generated table holds up to two
            # million tuples
            if set(map(len, table)) != {len(args)}:
                raise StructureError(f"relation {name}: tuple arity mismatch")
            for pos, s in enumerate(args):
                ids = set(map(itemgetter(pos), table))
                for v in (min(ids), max(ids)):
                    if not 0 <= v < self.sizes[s]:
                        raise StructureError(
                            f"relation {name}: id {v} out of bounds for sort {s}")
        for name, (args, res) in sig.functions.items():
            table = self.functions.get(name)
            if table is None:
                raise StructureError(f"function {name}: missing table")
            expected = 1
            for s in args:
                expected *= self.sizes[s]
            if len(table) != expected:
                raise StructureError(f"function {name}: table not total")
            for tup, v in table.items():
                for a, s in zip(tup, args):
                    if not 0 <= a < self.sizes[s]:
                        raise StructureError(
                            f"function {name}: arg id {a} out of bounds")
                if not 0 <= v < self.sizes[res]:
                    raise StructureError(
                        f"function {name}: result id {v} out of bounds")
        for name, s in sig.constants.items():
            v = self.constants.get(name)
            if v is None or not 0 <= v < self.sizes[s]:
                raise StructureError(f"constant {name}: id out of bounds")

    def holds(self, rel: str, tup: tuple) -> bool:
        if rel in self.virtual_relations:
            return self.virtual_relations[rel](tup)
        return tup in self.relations[rel]

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        sig = self.signature
        for name in sig.relations:
            if name in self.virtual_relations:
                raise StructureError(
                    f"relation {name} is virtual and cannot be serialized")
        return {
            "sorts": [{"name": s, "size": self.sizes[s]} for s in sig.sorts],
            "relations": [
                {"name": n, "sorts": list(sig.relations[n]),
                 "tuples": sorted(list(t) for t in self.relations[n])}
                for n in sig.relations],
            "functions": [
                {"name": n, "argSorts": list(sig.functions[n][0]),
                 "resultSort": sig.functions[n][1],
                 "table": sorted([*args, res] for args, res in self.functions[n].items())}
                for n in sig.functions],
            "constants": [
                {"name": n, "sort": sig.constants[n], "value": self.constants[n]}
                for n in sig.constants],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class SchemaError(PfdimError):
    pass


def _json_int(value) -> int:
    """A JSON integer as it is: not true (a bool), 2.9 or "0"."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _json_rows(rows) -> List[tuple]:
    """A JSON list of integer rows as tuples.  The entries' types are
    checked a table at a time; when one is not ``int``, the per-entry
    check names the first bad value."""
    try:
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            return list(map(tuple, rows))
    except TypeError:
        pass
    return [tuple(map(_json_int, row)) for row in rows]


def _json_name(value) -> str:
    """A JSON string as it is: a sort or symbol name."""
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a name")
    return value


def _json_names(value) -> Tuple[str, ...]:
    """A JSON list of names, not a string read letter by letter."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not a list of names")
    return tuple(map(_json_name, value))


def structure_from_json_dict(data: dict) -> FiniteStructure:
    """Build a structure from the interchange schema, validating invariants.

    Raises :class:`SchemaError` for shape problems and
    :class:`StructureError` for invariant violations.
    """
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    if "sorts" not in data:
        raise SchemaError("missing key: sorts")
    try:
        sorts = [(_json_name(d["name"]), _json_int(d["size"]))
                 for d in data["sorts"]]
        relations = [(_json_name(d["name"]), _json_names(d["sorts"]),
                      _json_rows(d["tuples"]))
                     for d in data.get("relations", [])]
        functions = [(_json_name(d["name"]), _json_names(d["argSorts"]),
                      _json_name(d["resultSort"]),
                      [list(map(_json_int, row)) for row in d["table"]])
                     for d in data.get("functions", [])]
        constants = [(_json_name(d["name"]), _json_name(d["sort"]),
                      _json_int(d["value"]))
                     for d in data.get("constants", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed structure file: {exc}") from exc

    sig = make_signature(
        [n for n, _ in sorts],
        relations=[(n, s) for n, s, _ in relations],
        functions=[(n, a, r) for n, a, r, _ in functions],
        constants=[(n, s) for n, s, _ in constants],
    )
    return FiniteStructure(
        signature=sig,
        sizes={n: sz for n, sz in sorts},
        relations={n: frozenset(tuples) for n, _, tuples in relations},
        functions={n: {tuple(row[:-1]): row[-1] for row in table}
                   for n, _, _, table in functions},
        constants={n: v for n, _, v in constants},
    )


def load_structure(path: str) -> FiniteStructure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return structure_from_json_dict(data)
