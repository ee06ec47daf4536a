"""Small finite fields GF(q) for q in {2,3,4,5,7,8,9}.

Elements are integers 0..q-1 encoding polynomial coefficient vectors over
GF(p) in base p (so for prime q this is plain modular arithmetic).
Non-prime fields use fixed irreducible polynomials; addition and
multiplication are precomputed tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from . import PfdimError

# irreducible polynomial coefficients (monic, low degree first, constant..x^k)
_IRRED = {
    4: (2, [1, 1, 1]),    # x^2 + x + 1 over GF(2)
    8: (2, [1, 1, 0, 1]),  # x^3 + x + 1 over GF(2)
    9: (3, [1, 0, 1]),    # x^2 + 1 over GF(3)
}

_PRIMES = {2, 3, 5, 7}

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


@dataclass(frozen=True)
class GF:
    q: int
    p: int
    add: Tuple[Tuple[int, ...], ...] = field(repr=False)
    mul: Tuple[Tuple[int, ...], ...] = field(repr=False)
    neg: Tuple[int, ...] = field(repr=False)
    inv: Tuple[int, ...] = field(repr=False)  # inv[0] unused

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def elements(self) -> range:
        return range(self.q)


# The first 13 primes.  Sorenson and Webster (2015): the least composite that
# is a strong probable prime to all of them is PRIME_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality of ``n`` < PRIME_LIMIT (about 3.3e24) by deterministic
    Miller-Rabin; raises ValueError for larger ``n``."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def make_field(q: int) -> GF:
    if q not in SUPPORTED_Q:
        raise PfdimError(f"q={q} is not a supported prime power")
    if q in _PRIMES:
        p = q
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        return _from_tables(q, p, add, mul)

    p, poly = _IRRED[q]
    k = len(poly) - 1

    def padd(a, b):
        da, db = vec_decode(a, p, k), vec_decode(b, p, k)
        return vec_encode([(x + y) % p for x, y in zip(da, db)], p)

    def pmul(a, b):
        da, db = vec_decode(a, p, k), vec_decode(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the irreducible polynomial
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i, pc in enumerate(poly[:-1]):
                    prod[deg - k + i] = (prod[deg - k + i] - c * pc) % p
        return vec_encode(prod[:k], p)

    add = tuple(tuple(padd(a, b) for b in range(q)) for a in range(q))
    mul = tuple(tuple(pmul(a, b) for b in range(q)) for a in range(q))
    return _from_tables(q, p, add, mul)


def _from_tables(q: int, p: int, add, mul) -> GF:
    # in a field, each row of add holds 0 once and each row of mul but
    # the first holds 1 once
    return GF(q, p, add, mul, tuple(row.index(0) for row in add),
              (0,) + tuple(row.index(1) for row in mul[1:]))


# ---------------------------------------------------------------------------
# Vectors over GF(q): encoded as integers 0..q^dim-1, base-q digit per axis


def vec_decode(v: int, q: int, dim: int) -> Tuple[int, ...]:
    out = []
    for _ in range(dim):
        out.append(v % q)
        v //= q
    return tuple(out)


def vec_encode(coords: Sequence[int], q: int) -> int:
    x = 0
    for c in reversed(coords):
        x = x * q + c
    return x


def vec_add(F: GF, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(F.add[x][y] for x, y in zip(a, b))


def vec_scale(F: GF, c: int, a: Sequence[int]) -> Tuple[int, ...]:
    return tuple(F.mul[c][x] for x in a)


def _reduce(F: GF, mat: List[List[int]], ncols: int) -> List[int]:
    """Gauss-Jordan elimination of ``mat`` in place over its first ``ncols``
    columns: reduced row echelon form there, the other columns carried
    along.  Returns the pivot columns; row i holds the i-th pivot."""
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.inv[mat[r][col]]
        mat[r] = [F.mul[inv][x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [F.sub(x, F.mul[c][y]) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return pivots


def rank(F: GF, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a list of coordinate vectors over GF(q), by Gaussian elimination."""
    mat = [list(r) for r in rows]
    return len(_reduce(F, mat, len(mat[0]) if mat else 0))


def solve_affine(F: GF, rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Solve the linear system A x = b over GF(q), A given by ``rows``.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = _reduce(F, aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    sol = [0] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for i, col in enumerate(pivots):
            vec[col] = F.neg[aug[i][fc]]
        basis.append(tuple(vec))
    return tuple(sol), basis
