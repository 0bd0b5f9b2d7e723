"""Small table-driven finite fields GF(p^n) for brute-force counting.

Elements are encoded as integers 0 .. p^n - 1, the base-p digits being
polynomial coefficients in little-endian order.  The modulus is the
least irreducible monic polynomial of degree n under that encoding, so
field construction is deterministic.  Only meant for tiny fields; the
addition, negation and multiplication tables are materialized up
front.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ValidationError

_MAX_TABLE_ELEMENTS = 1 << 10  # add and mul tables are quadratic in field size


def _code_from_poly(coeffs: tuple[int, ...], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _poly_from_code(code: int, p: int, degree: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(degree):
        coeffs.append(code % p)
        code //= p
    return tuple(coeffs)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: list[int], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    # modulus is monic of degree n (length n + 1, leading coefficient 1)
    n = len(modulus) - 1
    a = list(a)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        if c:
            for j in range(n + 1):
                a[i - n + j] = (a[i - n + j] - c * modulus[j]) % p
    out = [x % p for x in a[:n]]
    while len(out) < n:
        out.append(0)
    return tuple(out)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of the monic polynomial x^n + sum coeffs[i] x^i
    over Z/p, by trial division by all monic polynomials of degree
    1 .. n // 2."""
    n = len(coeffs)
    modulus = coeffs + (1,)
    if coeffs[0] == 0:
        return False  # divisible by x
    for deg in range(1, n // 2 + 1):
        for code in range(p**deg):
            divisor = _poly_from_code(code, p, deg) + (1,)
            if not any(_poly_mod(list(modulus), divisor, p)):
                return False
    return True


class PrimePowerField:
    """GF(p^n) with precomputed addition, negation and multiplication
    tables."""

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValidationError(f"extension degree must be >= 1, got {n}")
        size = p**n
        if size > _MAX_TABLE_ELEMENTS:
            raise ValidationError(
                f"field GF({p}^{n}) of size {size} is too large for table-driven "
                f"arithmetic (limit {_MAX_TABLE_ELEMENTS})"
            )
        self.p = p
        self.n = n
        self.size = size
        self.modulus_coeffs = self._least_irreducible(p, n)
        self._mul = [[0] * size for _ in range(size)]
        modulus = self.modulus_coeffs + (1,)
        polys = [_poly_from_code(code, p, n) for code in range(size)]
        self._add = [
            [_code_from_poly(tuple((x + y) % p for x, y in zip(pa, pb)), p) for pb in polys]
            for pa in polys
        ]
        self._neg = [_code_from_poly(tuple(-x % p for x in pa), p) for pa in polys]
        for a in range(size):
            for b in range(a, size):
                prod = list(_poly_mul(polys[a], polys[b], p))
                code = _code_from_poly(_poly_mod(prod, modulus, p), p)
                self._mul[a][b] = code
                self._mul[b][a] = code

    @staticmethod
    def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
        if n == 1:
            return (0,)  # modulus x, i.e. the prime field itself
        for code in range(p**n):
            coeffs = _poly_from_code(code, p, n)
            if _is_irreducible(coeffs, p):
                return coeffs
        raise AssertionError("no irreducible polynomial found")  # unreachable

    # Elements are ints; 0 and 1 are the additive and multiplicative units.

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self._mul[result][base]
            base = self._mul[base][base]
            e >>= 1
        return result


@lru_cache(maxsize=None)
def field(p: int, n: int) -> PrimePowerField:
    """Cached field constructor; fields are immutable once built."""
    return PrimePowerField(p, n)
