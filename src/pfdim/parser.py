"""Text front-end for formulas.

Grammar (ASCII only)::

    formula := "forall"|"exists" var ":" sort "." formula
             | formula binop formula | "!" formula | "(" formula ")" | atom
    binop   := "&" | "|" | "->"        (precedence: ! > & > | > ->)
    atom    := relName "(" term {"," term} ")" | term "=" term
    term    := var | const | funcName "(" term {"," term} ")"

Quantifier scope extends maximally to the right.  ``parse_formula`` reads
the text in one pass and returns a sort-checked AST; ``render_formula``
emits canonical fully-parenthesized text such that parse(render(phi)) is
structurally equal to phi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Tuple

from .logic import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                    Not, Or, PfdimError, Rel, Signature, SortError, Var,
                    _eq_sort, _rel_sort, _scope)


@dataclass
class ParseDiagnostic(PfdimError):
    offset: int
    line: int
    column: int
    message: str
    expected: Tuple[str, ...] = ()
    label = "parse error"     # what cli.main prints before the message

    def __post_init__(self):
        # kept in ``args``, so a caller's prefix (the index) is printed too
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        self.args = (f"{self.line}:{self.column}: {self.message}{exp}",)


MAX_NESTING = 200
"""How deep a formula may nest: each parenthesis, ``!``, binder,
connective and function application adds a level to what it encloses (in
``a & b & c``, that is ``(a & b) & c``, ``a`` is two connectives deep).
The parser and every walker of a formula recurse once per level, twice
per application: through ``cli.main`` under pytest, at the default
recursion limit of 1000, function terms failed past 475 levels and the
other shapes past 945, so 200 leaves over half the limit to the caller."""

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|->|[(),.:=&|!]")
# whitespace and tokens, up to the first character no token starts at
_TEXT = re.compile(rf"(?:\s+|{_TOKEN.pattern})*")

_CONNECTIVES = {"->": Implies, "|": Or, "&": And}
_PRECEDENCE = {"->": 1, "|": 2, "&": 3}
_QUANTIFIERS = {"forall": Forall, "exists": Exists}
_PREFIXES = frozenset(["(", "!", *_QUANTIFIERS])
# the tokens that are not names; "" is the end of the text
_NOT_NAMES = frozenset(["(", ")", ",", ".", ":", "=", "&", "|", "!", "->",
                        "", *_QUANTIFIERS])


def _diagnostic(text: str, offset: int, message: str,
                expected=()) -> ParseDiagnostic:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, col, message, tuple(expected))


def _scan(text: str) -> list:
    """The tokens of ``text``, from one C-level scan; the first character
    that no token starts at and that is not whitespace is reported."""
    tokens = _TOKEN.findall(text)
    # the tokens and the spaces make up the text, or a second scan finds
    # the first character that is neither token nor whitespace
    if len("".join(tokens)) != len(text) - text.count(" "):
        end = _TEXT.match(text).end()
        if end < len(text):
            raise _diagnostic(text, end, f"unexpected character {text[end]!r}")
    return tokens


class _Parser:
    """Precedence climbing over the tokens, kept reversed so that the next
    one is ``stack[-1]`` ("" is the end).  Names are resolved against the
    signature, and each atom is sort-checked by ``logic``'s rules as it is
    built.  The first sort error is kept until the whole text has parsed,
    so that a parse error comes first.  ``level`` is the nesting of what is
    being read; ``nest``, how deep the formula just read nests in itself."""

    __slots__ = ("text", "stack", "size", "sig", "bound", "inferred",
                 "error", "nest")

    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.stack = stack = _scan(text)
        stack.append("")
        stack.reverse()
        self.size = len(stack)
        self.sig = sig
        self.bound: dict = {}
        self.inferred: dict = {}
        self.error: Optional[SortError] = None
        self.nest = 0

    def fail(self, message: str, back: int = 1, expected=()):
        """A diagnostic at the token ``back`` tokens before the next one,
        found again by the scan; ``{found}`` in ``message`` names it."""
        i = self.size - len(self.stack) - back
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        found = repr(m.group()) if m else "'end of input'"
        return _diagnostic(self.text, m.start() if m else len(self.text),
                           message.format(found=found), expected)

    def expected(self, value: str):
        return self.fail(f"expected {value!r}, found {{found}}", 1, (value,))

    def too_deep(self, back: int = 1):
        return self.fail(f"formula nested deeper than {MAX_NESTING} levels",
                         back)

    def formula(self, level: int, prec: int = 1) -> Formula:
        """A formula whose connectives bind at least as tightly as ``prec``
        (``->`` 1 and to the right, ``|`` 2, ``&`` 3; 4 reads one operand)."""
        stack = self.stack
        if stack[-1] in _PREFIXES:
            tok = stack.pop()
            if level >= MAX_NESTING:
                raise self.too_deep()
            if tok == "(":
                left = self.formula(level + 1)
                if stack.pop() != ")":
                    raise self.expected(")")
            elif tok == "!":
                left = Not(self.formula(level + 1, 4))
            else:
                var = stack.pop()
                if var in _NOT_NAMES:
                    raise self.fail("expected variable name after quantifier")
                if stack.pop() != ":":
                    raise self.expected(":")
                sort = stack.pop()
                if sort in _NOT_NAMES:
                    raise self.fail("expected sort name")
                if stack.pop() != ".":
                    raise self.expected(".")
                bound = self.bound
                try:
                    self.bound = _scope(var, sort, bound, self.sig)
                except SortError as exc:
                    self.error = self.error or exc
                    self.bound = {**bound, var: Var(var, sort)}
                # the scope extends maximally to the right
                left = _QUANTIFIERS[tok](var, sort, self.formula(level + 1))
                self.bound = bound
            self.nest += 1
        else:
            left = self.atom(level)
        p = _PRECEDENCE.get(stack[-1], 0)
        if p < prec:
            return left
        nest = self.nest
        while p >= prec:
            node = _CONNECTIVES[stack.pop()]
            nest += 1
            if level + nest > MAX_NESTING:
                raise self.too_deep()
            right = self.formula(level + 1, p if p == 1 else p + 1)
            if self.nest >= nest:
                nest = self.nest + 1
            left = node(left, right)
            p = _PRECEDENCE.get(stack[-1], 0)
        self.nest = nest
        return left

    def atom(self, level: int) -> Formula:
        stack = self.stack
        name = stack.pop()
        self.nest = 0
        try:
            if name in _NOT_NAMES:
                raise self.fail("expected atom, found {found}", 1,
                                ("relation", "term"))
            if name in self.sig.relations:
                return _rel_sort(name, self.arguments(level, 1), self.bound,
                                 self.inferred, self.sig)
            left = self.term(name, level, 1)
            if stack.pop() != "=":
                raise self.expected("=")
            return _eq_sort(left, self.term(stack.pop(), level, 1),
                            self.bound, self.inferred, self.sig)
        except SortError as exc:
            self.error = self.error or exc

    def arguments(self, level: int, depth: int) -> list:
        """``"(" term {"," term} ")"``, each term ``depth`` applications
        deep."""
        stack = self.stack
        if stack.pop() != "(":
            raise self.expected("(")
        args = []
        while True:
            args.append(self.term(stack.pop(), level, depth))
            if stack[-1] != ",":
                break
            stack.pop()
        if stack.pop() != ")":
            raise self.expected(")")
        return args

    def term(self, tok: str, level: int, depth: int):
        """The term that starts at ``tok``, just taken, as written: a bare
        variable as its name.  ``depth`` counts the applications around it,
        plus one."""
        sig = self.sig
        if tok in _NOT_NAMES:
            raise self.fail("expected term, found {found}")
        if tok in sig.functions:
            if level + depth > MAX_NESTING:
                raise self.too_deep()
            self.nest = max(self.nest, depth)
            args = self.arguments(level, depth + 1)
            return App(tok, tuple([Var(a) if isinstance(a, str) else a
                                   for a in args]))
        if tok in sig.constants:
            if self.stack[-1] == "(":
                raise self.fail(f"constant {tok} takes no arguments")
            return Const(tok)
        if tok in sig.relations:
            raise self.fail(f"relation {tok} used as a term")
        if self.stack[-1] == "(":
            raise self.fail(f"unknown relation or function {tok}")
        return tok


def parse_formula(text: str, sig: Signature, depth: int = 0) -> Formula:
    """Parse and sort-check a formula in one pass.  Raises ParseDiagnostic
    (a bad character anywhere first, then the first parse error) or
    SortError (the first in the text).  ``depth`` is the nesting of the
    place the caller puts the formula in; with it, the formula may nest at
    most ``MAX_NESTING`` deep."""
    parser = _Parser(text, sig)
    if depth > MAX_NESTING:
        raise parser.too_deep(0)
    phi = parser.formula(depth)
    if len(parser.stack) > 1:
        raise parser.fail("trailing input starting at {found}", 0)
    if parser.error is not None:
        raise parser.error
    return phi


def identifiers(text: str) -> frozenset:
    """The names in ``text`` other than keywords: every relation, function,
    constant, variable and sort it can name."""
    return frozenset(_scan(text)) - _NOT_NAMES


def reads_alike(names, a: Signature, b: Signature) -> bool:
    """Whether ``parse_formula`` gives the same result, or the same error,
    under ``a`` and ``b`` for a text whose identifiers are ``names``: the
    parser and the sort check read only the sorts and, for each name, its
    relation sorts, function sorts or constant sort, so the two signatures
    must have the same sorts and resolve each name alike, or not at all."""
    return a is b or (a.sorts == b.sorts and all(
        a.relations.get(n) == b.relations.get(n)
        and a.functions.get(n) == b.functions.get(n)
        and a.constants.get(n) == b.constants.get(n) for n in names))


def render_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, App):
        return f"{t.func}({', '.join(render_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def _operand(phi: Formula) -> str:
    # A quantifier's scope extends maximally right, so quantified operands of
    # a binary connective need their own parentheses.
    text = render_formula(phi)
    if isinstance(phi, (Exists, Forall)):
        return f"({text})"
    return text


def render_formula(phi: Formula) -> str:
    """Canonical fully-parenthesized rendering; stable under reparse."""
    if isinstance(phi, Rel):
        return f"{phi.name}({', '.join(render_term(a) for a in phi.args)})"
    if isinstance(phi, Eq):
        return f"{render_term(phi.left)} = {render_term(phi.right)}"
    if isinstance(phi, Not):
        return f"!({render_formula(phi.body)})"
    if isinstance(phi, And):
        return f"({_operand(phi.left)} & {_operand(phi.right)})"
    if isinstance(phi, Or):
        return f"({_operand(phi.left)} | {_operand(phi.right)})"
    if isinstance(phi, Implies):
        return f"({_operand(phi.left)} -> {_operand(phi.right)})"
    if isinstance(phi, Exists):
        return f"exists {phi.var}:{phi.sort}. ({render_formula(phi.body)})"
    if isinstance(phi, Forall):
        return f"forall {phi.var}:{phi.sort}. ({render_formula(phi.body)})"
    raise TypeError(f"not a formula node: {phi!r}")
