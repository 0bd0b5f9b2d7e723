"""Small table-driven finite fields GF(p^n) for brute-force counting.

Elements are the integers 0 .. p^n - 1, whose base-p digits are the
coefficients of a polynomial in x, little-endian: a = a % p + x (a // p).
Each table entry comes from entries with fewer digits, and a b from
(b % p) a + x (a (b // p)).  F_p[x]/(f) is a field exactly when f is
irreducible, so the modulus is the least monic f of degree n, its lower
coefficients read as a code, whose multiplication table gives every
nonzero row a 1.  The tables are the field's arithmetic: callers index
`add[a][b]`, `neg[a]`, `mul[a][b]` and `inv[a]` directly, and `pow`
builds on `mul`.  Only meant for tiny fields; the tables are built up front.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ResourceLimitError, ValidationError
from .primes import is_prime

_MAX_TABLE_ELEMENTS = 1 << 10  # add and mul tables are quadratic in field size


class PrimePowerField:
    """GF(p^n) as its tables: `add[a][b]` = a + b, `neg[a]` = -a,
    `mul[a][b]` = a b and `inv[a]` = 1 / a (`inv[0]` is 0)."""

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValidationError(f"extension degree must be >= 1, got {n}")
        if p < 2:
            raise ValidationError(f"characteristic must be a prime, got {p}")
        size = p**n
        if size > _MAX_TABLE_ELEMENTS:
            raise ResourceLimitError(
                f"field GF({p}^{n}) of size {size} is too large for table-driven "
                f"arithmetic (limit {_MAX_TABLE_ELEMENTS})",
                space=size, cap=_MAX_TABLE_ELEMENTS,
            )
        if not is_prime(p):
            raise ValidationError(f"characteristic must be a prime, got {p}")
        self.p = p
        self.n = n
        self.size = size
        digits = range(p)
        # From k to k + 1 digits, a = p i + d: add[a][p j + e] is
        # (d + e) % p + p add[i][j], and scale[a][c] = c a is c d % p + p scale[i][c].
        neg, add, scale = [0], [[0]], [[0] * p]
        for _ in range(n):
            neg = [p * u + -d % p for u in neg for d in digits]
            add = [[p * u + (d + e) % p for u in row for e in digits]
                   for row in add for d in digits]
            scale = [[p * u + c * d % p for c, u in enumerate(row)]
                     for row in scale for d in digits]
        self.add, self.neg = add, neg
        top = size // p
        for code in range(size):  # x^n = -(c_0 + c_1 x + ...), c_i the digits of code
            times_x = [add[p * (a % top)][scale[neg[code]][a // top]] for a in range(size)]
            self.mul = []
            for a in range(size):
                by_digit = [add[c] for c in scale[a]]  # a (p j + e) = a e + x (a j)
                row = [0]
                for _ in range(n):
                    row = [r[t] for t in map(times_x.__getitem__, row) for r in by_digit]
                if a and 1 not in row:
                    break  # a has no inverse: f is reducible
                self.mul.append(row)
            else:
                self.inv = [row.index(1) if a else 0 for a, row in enumerate(self.mul)]
                self.modulus_coeffs = tuple(code // p**i % p for i in range(n))
                return

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self.mul[result][base]
            base = self.mul[base][base]
            e >>= 1
        return result


@lru_cache(maxsize=None)
def field(p: int, n: int) -> PrimePowerField:
    """Cached field constructor; fields are immutable once built."""
    return PrimePowerField(p, n)
