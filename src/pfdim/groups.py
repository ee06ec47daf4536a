"""Built-in small groups, word expressions, word-map images, and triple
products.

Groups are plain multiplication tables over elements 0..n-1 (0 = identity).
The shipped catalog covers the cyclic groups, S3, S4, A4, A5, and PSL(2,7);
word-map experiments need these without an external group library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from operator import getitem, itemgetter
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple, Union

from . import PfdimError


@dataclass(frozen=True)
class Group:
    name: str
    n: int
    mul: Tuple[Tuple[int, ...], ...] = field(repr=False)
    inv: Tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if any(self.mul[0][g] != g or self.mul[g][0] != g for g in range(self.n)):
            raise PfdimError(f"{self.name}: element 0 is not an identity")


def _from_generators(name: str, elems: list, index: dict,
                     times: Callable) -> Group:
    """The group on ``elems`` (identity first) under ``times``; ``index``
    gives each element's id.  The row of g*c is the row of g read through
    the row of c, so ``times`` fills only the rows of the generators that a
    closure from the identity needs: each element not reached yet."""
    rows: list = [tuple(range(len(elems)))] + [None] * (len(elems) - 1)
    gens, reached = [], [0]
    for g in range(len(elems)):
        if rows[g] is None:
            gens.append(tuple(index[times(elems[g], b)] for b in elems))
            rows[g] = gens[-1]
            reached.append(g)
            for c in reached:       # grows as the closure reaches more
                for s in gens:
                    if rows[s[c]] is None:
                        rows[s[c]] = tuple(map(s.__getitem__, rows[c]))
                        reached.append(s[c])
    return Group(name, len(rows), tuple(rows), tuple(r.index(0) for r in rows))


def _perm_group(name: str, perms: List[tuple]) -> Group:
    """Group from a list of permutation tuples; identity must come first
    after sorting puts it there."""
    perms = sorted(set(perms))
    ident = tuple(range(len(perms[0])))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):  # (a*b)(x) = a(b(x))
        return tuple(map(a.__getitem__, b))

    return _from_generators(name, perms, index, compose)


# C<k> has a k^2 table: at the limit, as large as a homocyclic group's
# at families.HOMOCYCLIC_ORDER_LIMIT
CYCLIC_ORDER_LIMIT = 1024


def _cyclic(k: int) -> Group:
    if not 1 <= k <= CYCLIC_ORDER_LIMIT:
        raise PfdimError(f"C{k}: the order must be 1..{CYCLIC_ORDER_LIMIT}")
    r = tuple(range(k))
    mul = tuple(r[a:] + r[:a] for a in r)     # row a is (a + b) % k
    inv = tuple((-a) % k for a in range(k))
    return Group(f"C{k}", k, mul, inv)


def _alternating(n: int) -> Group:
    # an even permutation has an even number of inversions
    evens = [p for p in permutations(range(n))
             if not sum(p[i] > p[j] for i, j in combinations(range(n), 2)) % 2]
    return _perm_group(f"A{n}", evens)


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
    index = {rep: i for i, m in enumerate(mats)
             for rep in (m, tuple((-x) % p for x in m))}

    def mmul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    return _from_generators("PSL(2,7)", mats, index, mmul)


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


def _subwords(w: WordExpr) -> List[WordExpr]:
    """The distinct subwords of ``w``, each after its parts, found without
    recursion.  They are told apart as objects: a parsed word holds each
    variable, and each operand of a commutator, once."""
    order: List[WordExpr] = []
    seen, stack = set(), [(w, False)]
    while stack:
        s, parts_done = stack.pop()
        if parts_done:
            order.append(s)
        elif id(s) not in seen:
            seen.add(id(s))
            stack.append((s, True))
            if isinstance(s, WMul):
                stack += ((s.right, False), (s.left, False))
            elif isinstance(s, WInv):
                stack.append((s.body, False))
    return order


def word_arity(w: WordExpr) -> int:
    return max((s.index for s in _subwords(w) if isinstance(s, WVar)),
               default=0)


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
# one object per variable, so a parsed word holds each variable once
_VARIABLE = {t: WVar(i + 1) for i, t in enumerate(_WORD_VARS)}

# how deep parentheses and brackets may nest: the parser recurses on each
MAX_WORD_NESTING = 200


def parse_word(text: str) -> WordExpr:
    """Tiny word grammar: variables x,y,z,w; ``*`` for product, ``^-1`` for
    inverse, parentheses, and ``[a,b]`` for the commutator a b a^-1 b^-1."""
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _WORD_VARS or ch in "()*[],":
            tokens.append(ch)
            i += 1
            depth += (ch in "([") - (ch in ")]")
            if depth > MAX_WORD_NESTING:
                raise PfdimError(
                    f"word nests deeper than {MAX_WORD_NESTING} levels")
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
            e: WordExpr = _VARIABLE[t]
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


def word_image(w: WordExpr, G: Group, budget: int = 10 ** 8) -> FrozenSet[int]:
    """Exact image set {w(g_1..g_d)} by enumeration over G^d, a row at a
    time (g_1..g_(d-1) fixed, g_d running over G), until it is all of G.
    Each distinct subword is evaluated once per row, in an order worked out
    once, or once in all if it reads none of g_1..g_(d-1).  ``budget``
    bounds the |G|^d tuples and the |G| table entries per subword
    evaluation, both checked before the enumeration starts."""
    order = _subwords(w)
    d = max((s.index for s in order if isinstance(s, WVar)), default=0)
    if d == 0:
        return frozenset({0})
    if G.n ** d > budget:
        raise PfdimError(f"word image enumeration |G|^{d} exceeds budget")
    mul, inv = G.mul, G.inv
    # an inverse and a product, by which operands are rows (the values of
    # a subword that reads g_d, over G) and which are elements
    invert = (lambda e, _: inv[e], lambda r, _: list(map(inv.__getitem__, r)))
    times = (lambda e, f: mul[e][f],
             lambda e, r: list(map(mul[e].__getitem__, r)),
             lambda r, f: list(map(itemgetter(f), map(mul.__getitem__, r))),
             lambda r, s: list(map(getitem, map(mul.__getitem__, r), s)))
    slot = {id(s): i for i, s in enumerate(order)}
    vals: list = [0] * len(order)
    row = [False] * len(order)       # the subword reads g_d
    moves = [False] * len(order)     # it reads one of g_1..g_(d-1)
    arg_slots, once, each_row = [], [], []
    for i, s in enumerate(order):
        if isinstance(s, WVar):
            if s.index == d:
                vals[i], row[i] = list(range(G.n)), True
            else:
                arg_slots.append((i, s.index - 1))
                moves[i] = True
            continue
        if isinstance(s, WInv):
            a = b = slot[id(s.body)]
            f = invert[row[a]]
        elif isinstance(s, WMul):
            a, b = slot[id(s.left)], slot[id(s.right)]
            f = times[2 * row[a] + row[b]]
        elif isinstance(s, WIdent):
            continue
        else:
            raise TypeError(f"not a word: {s!r}")
        row[i], moves[i] = row[a] or row[b], moves[a] or moves[b]
        (each_row if moves[i] else once).append((i, f, a, b))
    entries = (len(once) + G.n ** (d - 1) * len(each_row)) * G.n
    if entries > budget:
        raise PfdimError(f"word image enumeration computes {entries} "
                         f"table entries, which exceeds budget")
    for i, f, a, b in once:
        vals[i] = f(vals[a], vals[b])
    out = set()
    for args in product(range(G.n), repeat=d - 1):
        for i, k in arg_slots:
            vals[i] = args[k]
        for i, f, a, b in each_row:
            vals[i] = f(vals[a], vals[b])
        out.update(vals[-1])
        if len(out) == G.n:
            break
    return frozenset(out)


def triple_product_covers(x1: FrozenSet[int], x2: FrozenSet[int],
                          x3: FrozenSet[int], G: Group):
    """Whether the setwise product X1 X2 X3 is all of G.

    Returns (covers, missing) where ``missing`` is the sorted witness gap.
    """
    full = _set_product(_set_product(x1, x2, G), x3, G)
    missing = [] if len(full) == G.n else sorted(set(range(G.n)) - full)
    return (not missing), missing


def _set_product(xs, ys, G: Group) -> set:
    """{ab : a in xs, b in ys}, a table row at a time, until it is G."""
    out = set()
    for a in xs:
        out.update(map(G.mul[a].__getitem__, ys))
        if len(out) == G.n:
            break
    return out
