"""Text front-end for formulas.

Grammar (ASCII only)::

    formula := "forall"|"exists" var ":" sort "." formula
             | formula binop formula | "!" formula | "(" formula ")" | atom
    binop   := "&" | "|" | "->"        (precedence: ! > & > | > ->)
    atom    := relName "(" term {"," term} ")" | term "=" term
    term    := var | const | funcName "(" term {"," term} ")"

Quantifier scope extends maximally to the right.  ``parse_formula`` returns
a sort-checked AST; ``render_formula`` emits canonical fully-parenthesized
text such that parse(render(phi)) is structurally equal to phi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from .logic import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                    Not, Or, PfdimError, Rel, Signature, Var, sort_check)


@dataclass
class ParseDiagnostic(PfdimError):
    offset: int
    line: int
    column: int
    message: str
    expected: Tuple[str, ...] = ()

    def __post_init__(self):
        # kept in ``args``, so a caller's prefix (the index) is printed too
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        self.args = (f"{self.line}:{self.column}: {self.message}{exp}",)


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<punct>[(),.:=&|!])
""", re.VERBOSE)

_KEYWORDS = {"forall", "exists"}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []  # (kind, value, offset)
        # one scan; a match that does not start where the last one ended
        # skipped a character no token matches
        pos = 0
        for m in _TOKEN.finditer(text):
            if m.start() != pos:
                break
            start, pos = pos, m.end()
            kind = m.lastgroup
            if kind == "ws":
                continue
            value = m.group()
            if kind == "name" and value in _KEYWORDS:
                kind = "keyword"
            self.tokens.append((kind, value, start))
        if pos < len(text):
            raise self.diag_at(pos, f"unexpected character {text[pos]!r}")
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def diag_at(self, offset: int, message: str, expected=()) -> ParseDiagnostic:
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        return ParseDiagnostic(offset, line, col, message, tuple(expected))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.peek()
        if val != value or kind == "eof":
            raise self.diag_at(off, f"expected {value!r}, found {val or 'end of input'!r}",
                               expected=(value,))
        return self.next()


class _Parser:
    """Recursive descent; resolves name tokens against the signature so that
    ``E(x, y)`` parses as a relation atom while ``f(x) = y`` parses as a term
    equality."""

    def __init__(self, lexer: _Lexer, sig: Signature):
        self.lx = lexer
        self.sig = sig

    def parse(self) -> Formula:
        f = self.formula()
        kind, val, off = self.lx.peek()
        if kind != "eof":
            raise self.lx.diag_at(off, f"trailing input starting at {val!r}")
        return f

    # precedence climbing: -> (lowest, right assoc), |, &, !, atoms
    def formula(self) -> Formula:
        left = self.disjunction()
        kind, val, off = self.lx.peek()
        if val == "->":
            self.lx.next()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.lx.peek()[1] == "|":
            self.lx.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.lx.peek()[1] == "&":
            self.lx.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, val, off = self.lx.peek()
        if val == "!":
            self.lx.next()
            return Not(self.unary())
        if kind == "keyword":
            self.lx.next()
            vkind, vname, voff = self.lx.next()
            if vkind != "name":
                raise self.lx.diag_at(voff, "expected variable name after quantifier")
            self.lx.expect(":")
            skind, sname, soff = self.lx.next()
            if skind != "name":
                raise self.lx.diag_at(soff, "expected sort name")
            self.lx.expect(".")
            body = self.formula()    # the scope extends maximally right
            cls = Forall if val == "forall" else Exists
            return cls(vname, sname, body)
        if val == "(":
            self.lx.next()
            f = self.formula()
            self.lx.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        kind, val, off = self.lx.peek()
        if kind != "name":
            raise self.lx.diag_at(off, f"expected atom, found {val or 'end of input'!r}",
                                  expected=("relation", "term"))
        if val in self.sig.relations:
            self.lx.next()
            self.lx.expect("(")
            args = [self.term()]
            while self.lx.peek()[1] == ",":
                self.lx.next()
                args.append(self.term())
            self.lx.expect(")")
            return Rel(val, tuple(args))
        left = self.term()
        self.lx.expect("=")
        right = self.term()
        return Eq(left, right)

    def term(self):
        kind, val, off = self.lx.next()
        if kind != "name":
            raise self.lx.diag_at(off, f"expected term, found {val or 'end of input'!r}")
        if val in self.sig.functions:
            self.lx.expect("(")
            args = [self.term()]
            while self.lx.peek()[1] == ",":
                self.lx.next()
                args.append(self.term())
            self.lx.expect(")")
            return App(val, tuple(args))
        if val in self.sig.constants:
            if self.lx.peek()[1] == "(":
                raise self.lx.diag_at(off, f"constant {val} takes no arguments")
            return Const(val)
        if val in self.sig.relations:
            raise self.lx.diag_at(off, f"relation {val} used as a term")
        if self.lx.peek()[1] == "(":
            raise self.lx.diag_at(off, f"unknown relation or function {val}")
        return Var(val)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse and sort-check a formula.  Raises ParseDiagnostic or SortError."""
    lexer = _Lexer(text)
    ast = _Parser(lexer, sig).parse()
    return sort_check(ast, sig)


def identifiers(text: str) -> frozenset:
    """The names in ``text`` other than keywords: every relation, function,
    constant, variable and sort it can name."""
    return frozenset([value for kind, value, _ in _Lexer(text).tokens
                      if kind == "name"])


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
