"""Built-in small groups, word expressions, word-map images, and triple
products.

Groups are plain multiplication tables over elements 0..n-1 (0 = identity).
The shipped catalog covers the cyclic groups, S3, S4, A4, A5, and PSL(2,7);
word-map experiments need these without an external group library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from operator import getitem, itemgetter
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .logic import PfdimError


@dataclass(frozen=True)
class Group:
    name: str
    n: int
    mul: Tuple[Tuple[int, ...], ...] = field(repr=False)
    inv: Tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if any(self.mul[0][g] != g or self.mul[g][0] != g for g in range(self.n)):
            raise PfdimError(f"{self.name}: element 0 is not an identity")


def _perm_group(name: str, perms: List[tuple]) -> Group:
    """Group from a list of permutation tuples; identity must come first
    after sorting puts it there."""
    perms = sorted(set(perms))
    ident = tuple(range(len(perms[0])))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):  # (a*b)(x) = a(b(x))
        return tuple(a[b[i]] for i in range(len(a)))

    mul = tuple(tuple(index[compose(a, b)] for b in perms) for a in perms)
    inv = []
    for p in perms:
        q = [0] * len(p)
        for i, v in enumerate(p):
            q[v] = i
        inv.append(index[tuple(q)])
    return Group(name, len(perms), mul, tuple(inv))


# C<k> has a k^2 table: at the limit, as large as a homocyclic group's
# at families.HOMOCYCLIC_ORDER_LIMIT
CYCLIC_ORDER_LIMIT = 1024


def _cyclic(k: int) -> Group:
    if not 1 <= k <= CYCLIC_ORDER_LIMIT:
        raise PfdimError(f"C{k}: the order must be 1..{CYCLIC_ORDER_LIMIT}")
    mul = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    inv = tuple((-a) % k for a in range(k))
    return Group(f"C{k}", k, mul, inv)


def _alternating(n: int) -> Group:
    evens = [p for p in permutations(range(n)) if _parity(p) == 0]
    return _perm_group(f"A{n}", evens)


def _parity(p) -> int:
    par = 0
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        par ^= (length - 1) & 1
    return par


def _psl27() -> Group:
    """PSL(2,7): SL(2,7) modulo +/-I, as canonical matrix representatives."""
    p = 7
    mats = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            neg = ((-a) % p, (-b) % p, (-c) % p, (-d) % p)
            if (a, b, c, d) <= neg:
                mats.append((a, b, c, d))
    mats.sort()
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats.insert(0, ident)
    index = {}
    for i, m in enumerate(mats):
        index[m] = i
        index[tuple((-x) % p for x in m)] = i

    def mmul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    mul = tuple(tuple(index[mmul(x, y)] for y in mats) for x in mats)
    inv = []
    for a, b, c, d in mats:
        inv.append(index[(d % p, (-b) % p, (-c) % p, a % p)])
    return Group("PSL(2,7)", len(mats), mul, tuple(inv))


_BUILTIN = {}


def builtin_group(name: str) -> Group:
    """Shipped groups: C<k>, S3, S4, A4, A5, PSL(2,7)."""
    if name not in _BUILTIN:
        if name.startswith("C") and name[1:].isdecimal():
            _BUILTIN[name] = _cyclic(int(name[1:]))
        elif name == "S3":
            _BUILTIN[name] = _perm_group("S3", list(permutations(range(3))))
        elif name == "S4":
            _BUILTIN[name] = _perm_group("S4", list(permutations(range(4))))
        elif name == "A4":
            _BUILTIN[name] = _alternating(4)
        elif name == "A5":
            _BUILTIN[name] = _alternating(5)
        elif name == "PSL(2,7)":
            _BUILTIN[name] = _psl27()
        else:
            raise PfdimError(f"unknown builtin group {name}")
    return _BUILTIN[name]


# ---------------------------------------------------------------------------
# Words


@dataclass(frozen=True)
class WVar:
    index: int  # 1-based


@dataclass(frozen=True)
class WInv:
    body: "WordExpr"


@dataclass(frozen=True)
class WMul:
    left: "WordExpr"
    right: "WordExpr"


@dataclass(frozen=True)
class WIdent:
    pass


WordExpr = Union[WVar, WInv, WMul, WIdent]


def word_arity(w: WordExpr) -> int:
    if isinstance(w, WVar):
        return w.index
    if isinstance(w, WInv):
        return word_arity(w.body)
    if isinstance(w, WMul):
        return max(word_arity(w.left), word_arity(w.right))
    return 0


def eval_word(w: WordExpr, G: Group, args: Sequence[int]) -> int:
    if isinstance(w, WVar):
        return args[w.index - 1]
    if isinstance(w, WInv):
        return G.inv[eval_word(w.body, G, args)]
    if isinstance(w, WMul):
        return G.mul[eval_word(w.left, G, args)][eval_word(w.right, G, args)]
    if isinstance(w, WIdent):
        return 0
    raise TypeError(f"not a word: {w!r}")


_WORD_VARS = "xyzw"


def parse_word(text: str) -> WordExpr:
    """Tiny word grammar: variables x,y,z,w; ``*`` for product, ``^-1`` for
    inverse, parentheses, and ``[a,b]`` for the commutator a b a^-1 b^-1."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _WORD_VARS or ch in "()*[],":
            tokens.append(ch)
            i += 1
        elif text.startswith("^-1", i):
            tokens.append("^-1")
            i += 3
        else:
            raise PfdimError(f"bad character in word at offset {i}: {ch!r}")
    return _WordParser(tokens).parse()


class _WordParser:
    """Recursive descent over ``parse_word``'s tokens; methods rather than
    nested closures, so a parse leaves no reference cycle behind."""

    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def parse(self) -> WordExpr:
        e = self.term()
        if self.pos != len(self.tokens):
            raise PfdimError("trailing input in word")
        return e

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, tok: Optional[str] = None) -> str:
        t = self.peek()
        if t is None or (tok is not None and t != tok):
            raise PfdimError(f"word syntax error near token {self.pos}")
        self.pos += 1
        return t

    def factor(self) -> WordExpr:
        t = self.take()
        if t in _WORD_VARS:
            e: WordExpr = WVar(_WORD_VARS.index(t) + 1)
        elif t == "(":
            e = self.term()
            self.take(")")
        elif t == "[":
            a = self.term()
            self.take(",")
            b = self.term()
            self.take("]")
            e = WMul(WMul(a, b), WMul(WInv(a), WInv(b)))
        else:
            raise PfdimError(f"word syntax error near token {self.pos - 1}")
        while self.peek() == "^-1":
            self.take()
            e = WInv(e)
        return e

    def term(self) -> WordExpr:
        e = self.factor()
        while self.peek() is not None and self.peek() not in "),]":
            if self.peek() == "*":
                self.take()
            e = WMul(e, self.factor())
        return e


def _word_row(w: WordExpr, G: Group, args: Sequence[int], row: List[int]):
    """``w`` evaluated with x_1..x_(d-1) fixed to ``args`` and x_d running
    over ``row``: the list of values for a subword that reads x_d, else
    one element."""
    if isinstance(w, WVar):
        return row if w.index == len(args) + 1 else args[w.index - 1]
    if isinstance(w, WInv):
        v = _word_row(w.body, G, args, row)
        if isinstance(v, int):
            return G.inv[v]
        return list(map(G.inv.__getitem__, v))
    if isinstance(w, WMul):
        a = _word_row(w.left, G, args, row)
        b = _word_row(w.right, G, args, row)
        if isinstance(a, int):
            if isinstance(b, int):
                return G.mul[a][b]
            return list(map(G.mul[a].__getitem__, b))
        rows = map(G.mul.__getitem__, a)
        if isinstance(b, int):
            return list(map(itemgetter(b), rows))
        return list(map(getitem, rows, b))
    if isinstance(w, WIdent):
        return 0
    raise TypeError(f"not a word: {w!r}")


def word_image(w: WordExpr, G: Group, budget: int = 10 ** 8) -> FrozenSet[int]:
    """Exact image set {w(g_1..g_d)} by enumeration over G^d, one row at a
    time: g_1..g_(d-1) fixed and g_d running over G.  Stops once the image
    is all of G."""
    d = word_arity(w)
    if d == 0:
        return frozenset({0})
    if G.n ** d > budget:
        raise PfdimError(f"word image enumeration |G|^{d} exceeds budget")
    last = list(range(G.n))
    out = set()
    for args in product(range(G.n), repeat=d - 1):
        out.update(_word_row(w, G, args, last))
        if len(out) == G.n:
            break
    return frozenset(out)


def triple_product_covers(x1: FrozenSet[int], x2: FrozenSet[int],
                          x3: FrozenSet[int], G: Group):
    """Whether the setwise product X1 X2 X3 is all of G.

    Returns (covers, missing) where ``missing`` is the sorted witness gap.
    """
    step = {G.mul[a][b] for a in x1 for b in x2}
    full = {G.mul[a][b] for a in step for b in x3}
    missing = sorted(set(range(G.n)) - full)
    return (not missing), missing
