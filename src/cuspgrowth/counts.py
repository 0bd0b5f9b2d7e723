"""Exact orders of finite classical groups over residue rings, with
independent brute-force oracles, and the derived congruence-tower data.

Formula paths are closed-form products; brute-force paths enumerate
matrices over table-driven finite fields, the unitary ones with
column-by-column pruning.
Both return a `GroupOrder` tagged with its method, and the two must
agree whenever the brute-force search space fits under the cap.

The hermitian form for the unitary families is fixed as the antidiagonal
(split) form, so that the strictly upper-triangular unitary matrices
form the Heisenberg-type unipotent subgroup; group orders do not depend
on this choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

from .errors import InexactDivisionError, ResourceLimitError, ValidationError
from .gf import PrimePowerField, field

#: Refuse brute-force searches whose raw matrix space exceeds this.
DEFAULT_BRUTE_CAP = 1 << 28

#: A brute-force refusal reports the raw space exactly up to this many
#: bits: 2^14284 < 10^4300, the interpreter's default limit on the
#: digits of an int printed in decimal.
_EXACT_SPACE_BITS = 14_284

#: Refuse formula orders with more bits than this.  The largest orders
#: it admits, SL_632(F_3) and U_632(F_3) of about 634,000 bits, take
#: about 1.1 s to build and print in a fresh CLI process.
DEFAULT_ORDER_BITS_CAP = 200_000

#: Refuse prime ranges reaching past this.  The sieve holds one byte
#: per integer of the range, but the cost that binds is downstream: the
#: d-tower series factors each prime by trial division, about 9 s for
#: all primes below 10^6, growing like the cap^1.5.
DEFAULT_PRIME_CAP = 10**6

#: Trial division gives up past this divisor, so it decides every
#: integer below its square (about 10^12) and refuses larger cofactors
#: with no smaller factor.
MAX_TRIAL_DIVISOR = 1 << 20


class GroupFamily(str, enum.Enum):
    SL2_ZN = "SL2_ZN"
    SL = "SL"
    U = "U"
    SU = "SU"
    UNITRIANGULAR_U = "UNITRIANGULAR_U"


class Method(str, enum.Enum):
    FORMULA = "FORMULA"
    BRUTE_FORCE = "BRUTE_FORCE"


@dataclass(frozen=True)
class GroupOrder:
    """An exact group order with its provenance.

    For SL2_ZN the `q` field holds the modulus N (any integer >= 2);
    for the field families it holds the prime power q.
    """

    family: GroupFamily
    m: int
    q: int
    order: int
    method: Method

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("group orders are positive")


def _least_divisor(n: int, start: int = 2) -> int:
    """Least divisor d >= start of n > 1 (n itself when none is at most
    sqrt(n)), by trial division over 2 and the odd integers; `start` is 2
    or odd.  Raises past MAX_TRIAL_DIVISOR."""
    d = start
    while d * d <= n:
        if n % d == 0:
            return d
        if d > MAX_TRIAL_DIVISOR:
            raise ResourceLimitError(
                f"trial division of {n} passed the largest trial divisor "
                f"{MAX_TRIAL_DIVISOR} without a factor",
                space=isqrt(n), cap=MAX_TRIAL_DIVISOR,
            )
        d += 1 if d == 2 else 2
    return n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by bounded trial division; fine at desk scale."""
    if n < 1:
        raise ValidationError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while n > 1:
        d = _least_divisor(n, d)
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _least_divisor(n) == n


def prime_power_base(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if q < 2:
        raise ValidationError(f"{q} is not a prime power")
    fact = factorize(q)
    if len(fact) != 1:
        raise ValidationError(f"{q} is not a prime power")
    [(p, e)] = fact.items()
    return p, e


def primes_in_range(lo: int, hi: int, cap: int = DEFAULT_PRIME_CAP) -> list[int]:
    """Primes in [lo, hi] by a sieve of Eratosthenes over that segment.

    Refuses when hi exceeds `cap`.
    """
    if hi > cap:
        raise ResourceLimitError(
            f"prime range up to {hi} exceeds the cap {cap}", space=hi, cap=cap
        )
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    segment = bytearray([1]) * (hi - lo + 1)
    for d in range(2, root + 1):
        if small[d]:
            small[d * d::d] = bytes(len(range(d * d, root + 1, d)))
            start = max(d * d, -(-lo // d) * d)
            segment[start - lo::d] = bytes(len(range(start, hi + 1, d)))
    return list(compress(range(lo, hi + 1), segment))


def _exact_ratio(num: int, den: int, context: str) -> int:
    if num % den != 0:
        raise InexactDivisionError(
            f"{context}: expected an exact integer, got {Fraction(num, den)}",
            ratio=Fraction(num, den),
        )
    return num // den


def sl2_order(n: int) -> GroupOrder:
    """|SL_2(Z/N)| = N^3 * prod_(p | N) (1 - p^-2), exactly."""
    if n < 2:
        raise ValidationError(f"modulus must be >= 2, got {n}")
    return GroupOrder(GroupFamily.SL2_ZN, 2, n, _sl2_count(n, factorize(n)),
                      Method.FORMULA)


def _sl2_count(n: int, prime_divisors: Iterable[int]) -> int:
    num = n**3
    den = 1
    for p in prime_divisors:
        num *= p * p - 1
        den *= p * p
    return _exact_ratio(num, den, "sl2_order")


def psl2_order(n: int) -> int:
    """|PSL_2(Z/N)|: the SL_2 order divided by |{+-1} mod N|."""
    return _psl2_count(n, sl2_order(n).order)


def _psl2_count(n: int, sl2: int) -> int:
    center = 2 if n > 2 else 1
    return _exact_ratio(sl2, center, "psl2_order")


def sl_order(m: int, q: int) -> GroupOrder:
    """|SL_m(F_q)| = q^(m(m-1)/2) * prod_(i=2..m) (q^i - 1)."""
    return _field_order(GroupFamily.SL, m, q)


def _sl_count(m: int, q: int) -> int:
    order = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= q**i - 1
    return order


def u_order(m: int, q: int) -> GroupOrder:
    """|U_m(F_q)| = q^(m(m-1)/2) * prod_(i=1..m) (q^i - (-1)^i)."""
    return _field_order(GroupFamily.U, m, q)


def _u_count(m: int, q: int) -> int:
    order = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        order *= q**i - (-1) ** i
    return order


def su_order(m: int, q: int) -> GroupOrder:
    """|SU_m(F_q)| = |U_m(F_q)| / (q + 1)."""
    return _field_order(GroupFamily.SU, m, q)


def _su_count(m: int, q: int) -> int:
    return _exact_ratio(_u_count(m, q), q + 1, "su_order")


def unitriangular_u_order(m: int, q: int) -> GroupOrder:
    """Order q^(m(m-1)/2) of the upper unitriangular subgroup of U_m(F_q)."""
    return _field_order(GroupFamily.UNITRIANGULAR_U, m, q)


_FIELD_COUNTS = {
    GroupFamily.SL: _sl_count,
    GroupFamily.U: _u_count,
    GroupFamily.SU: _su_count,
    GroupFamily.UNITRIANGULAR_U: lambda m, q: q ** (m * (m - 1) // 2),
}


def _field_order(
    family: GroupFamily, m: int, q: int, cap: Optional[int] = None
) -> GroupOrder:
    """The formula order of a field family, refused past `cap` bits.

    q^(m(m-1)/2), the unitriangular order, divides the order of every
    field family (of SU too, as gcd(q, q + 1) = 1), so the order has at
    least m(m-1)/2 * (bits(q) - 1) + 1 bits; the refusal rests on that
    bound and comes before any product is built.
    """
    if m < 2:
        raise ValidationError(f"matrix size must be >= 2, got {m}")
    prime_power_base(q)
    bits = m * (m - 1) // 2 * (q.bit_length() - 1) + 1
    if cap is not None and bits > cap:
        raise ResourceLimitError(
            f"the order has at least {bits} bits, above the cap of {cap} bits",
            bits,
            cap,
        )
    return GroupOrder(family, m, q, _FIELD_COUNTS[family](m, q), Method.FORMULA)


def order_formula(
    family: GroupFamily, m: int, q: int, cap: int = DEFAULT_ORDER_BITS_CAP
) -> GroupOrder:
    """Exact order by its closed form.

    Refuses a field-family order with more than `cap` bits; the SL2_ZN
    order is below N^3 and has no cap.
    """
    if family is GroupFamily.SL2_ZN:
        if m != 2:
            raise ValidationError("SL2_ZN is only defined for m = 2")
        return sl2_order(q)
    if family not in _FIELD_COUNTS:
        raise ValidationError(f"unknown family {family!r}")
    return _field_order(family, m, q, cap)


# ---------------------------------------------------------------------------
# Brute-force oracles


def _det(f: PrimePowerField, rows: Sequence[tuple[int, ...]]) -> int:
    """Determinant over the field by cofactor expansion along the first
    row; m is tiny.  Callers pass columns as rows: det(A^T) = det(A)."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if c:
            term = f.mul(c, _det(f, [row[:j] + row[j + 1:] for row in rows[1:]]))
            total = f.add(total, term) if j % 2 == 0 else f.sub(total, term)
    return total


def _last_column_cofactors(f: PrimePowerField,
                           cols: Sequence[tuple[int, ...]]) -> list[int]:
    """Cofactors C_i of the last column of an m x m matrix whose first
    m - 1 columns are `cols`: its determinant is sum_i C_i x_i for the
    last column x."""
    m = len(cols) + 1
    out = []
    for i in range(m):
        minor = _det(f, [col[:i] + col[i + 1:] for col in cols])
        out.append(minor if (i + m - 1) % 2 == 0 else f.neg(minor))
    return out


def _count_sl(f: PrimePowerField, m: int) -> int:
    """Count m x m matrices over the field with determinant 1.

    The determinant is linear in the last column, sum_i C_i x_i with the
    cofactors C_i of the first m - 1 columns, so each choice of those
    columns scores every candidate last column by a dot product.
    """
    add, mul = f._add, f._mul
    vectors = list(product(range(f.size), repeat=m))
    count = 0
    for cols in product(vectors, repeat=m - 1):
        cofactors = _last_column_cofactors(f, cols)
        if not any(cofactors):
            continue
        rows = [mul[c] for c in cofactors]
        for vec in vectors:
            total = 0
            for row, x in zip(rows, vec):
                total = add[total][row[x]]
            if total == 1:
                count += 1
    return count


def _count_unitary(
    f: PrimePowerField,
    m: int,
    q: int,
    det_one: bool,
    unitriangular: bool,
) -> int:
    """Count matrices preserving the antidiagonal hermitian form.

    Conjugation is the Frobenius x -> x^q on GF(q^2).  Columns are
    chosen one at a time; the partial-isometry constraints
    <c_i, c_j> = J_ij for all i <= j <= t prune the search early.
    Candidate columns are bucketed by their norm <c, c>, so column t only
    tries the bucket of norm J_tt.
    """
    add, mul = f._add, f._mul
    conj = [f.pow(a, q) for a in range(f.size)]

    def form_rows(u: Sequence[int]) -> list[list[int]]:
        # <u, v> = sum_k conj(u_k) v_(m-1-k) = sum_j rows[j][v_j]
        return [mul[conj[u[m - 1 - j]]] for j in range(m)]

    def herm(rows: list[list[int]], v: Sequence[int]) -> int:
        total = 0
        for row, x in zip(rows, v):
            total = add[total][row[x]]
        return total

    def target(i: int, j: int) -> int:
        return 1 if i + j == m - 1 else 0

    def by_norm(vectors: list[tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for vec in vectors:
            buckets.setdefault(herm(form_rows(vec), vec), []).append(vec)
        return buckets

    if unitriangular:
        candidates = [
            by_norm([head + (1,) + (0,) * (m - t - 1)
                     for head in product(range(f.size), repeat=t)]).get(target(t, t), [])
            for t in range(m)
        ]
    else:
        buckets = by_norm(list(product(range(f.size), repeat=m)))
        candidates = [buckets.get(target(t, t), []) for t in range(m)]

    count = 0
    chosen: list[tuple[int, ...]] = []
    chosen_rows: list[list[list[int]]] = []

    def recurse(t: int) -> None:
        nonlocal count
        if t == m:
            if not det_one or _det(f, chosen) == 1:
                count += 1
            return
        wanted = [target(i, t) for i in range(t)]
        for vec in candidates[t]:
            for rows, want in zip(chosen_rows, wanted):
                if herm(rows, vec) != want:
                    break
            else:
                chosen.append(vec)
                chosen_rows.append(form_rows(vec))
                recurse(t + 1)
                chosen.pop()
                chosen_rows.pop()

    recurse(0)
    return count


def brute_force_order(
    family: GroupFamily, m: int, q: int, cap: int = DEFAULT_BRUTE_CAP
) -> GroupOrder:
    """Exact order by enumeration; the independent oracle for the formulas.

    Refuses when the raw space of candidate matrices, q^(m^2) over the
    ground field ((q^2)^(m^2) in the unitary cases, N^4 for SL2_ZN),
    holds more than `cap` of them.  The refusal reports that count when
    it has at most `_EXACT_SPACE_BITS` bits.  A larger space is not
    built when its lower bound on bits already settles the refusal, and
    the refusal then reports 2^bits(cap), a count the space reaches.
    """
    if cap < 1:
        raise ValidationError("cap must be positive")
    family = GroupFamily(family)
    if family is GroupFamily.SL2_ZN:
        if m != 2:
            raise ValidationError("SL2_ZN is only defined for m = 2")
        if q < 2:
            raise ValidationError(f"modulus must be >= 2, got {q}")
        base, exponent = q, 4
    else:
        if m < 2:
            raise ValidationError(f"matrix size must be >= 2, got {m}")
        p, e = prime_power_base(q)
        base, exponent = (q if family is GroupFamily.SL else q * q), m * m
    lower = exponent * (base.bit_length() - 1) + 1  # bits of base**exponent, at least
    space = base**exponent if lower <= max(cap.bit_length(), _EXACT_SPACE_BITS) else None
    if space is None or space > cap:
        exact = space is not None and space.bit_length() <= _EXACT_SPACE_BITS
        if not exact:
            space = 1 << cap.bit_length()
        raise ResourceLimitError(
            f"raw search space {'' if exact else 'of at least '}{space} "
            f"exceeds the cap {cap}",
            space=space,
            cap=cap,
        )
    if family is GroupFamily.SL2_ZN:
        # For each (a, b, c), a*d = 1 + b*c (mod q) is linear in d: it has
        # gcd(a, q) solutions when that gcd divides 1 + b*c, else none.
        count = 0
        for a in range(q):
            g = gcd(a, q)
            count += g * sum(1 for b in range(q) for c in range(q) if (1 + b * c) % g == 0)
    elif family is GroupFamily.SL:
        count = _count_sl(field(p, e), m)
    else:
        count = _count_unitary(field(p, 2 * e), m, q, family is GroupFamily.SU,
                               family is GroupFamily.UNITRIANGULAR_U)
    return GroupOrder(family, m, q, count, Method.BRUTE_FORCE)


# ---------------------------------------------------------------------------
# Congruence-tower growth data


def cusp_index_proxy(n: int, q: int) -> int:
    """Index of the Heisenberg-type parabolic image in SU(n+1, F_q).

    The cusp stabilizer image has order q^(2n - 1); the index is
    |SU(n+1, q)| / q^(2n-1).  For n = 2 this equals (q^2 - 1)(q^3 + 1).
    """
    if n not in (2, 3):
        raise ValidationError(f"only n = 2 and n = 3 are modeled, got {n}")
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")
    return _cusp_index(n, q, _su_count(n + 1, q))


def _cusp_index(n: int, q: int, su_total: int) -> int:
    return _exact_ratio(su_total, q ** (2 * n - 1), "cusp_index_proxy")


@dataclass(frozen=True)
class DTowerDatum:
    """Per-prime congruence-level data: volume, b1, and cusp proxies."""

    q: int
    vol_proxy: int
    b1_proxy: int
    cusp_proxy: int

    def __post_init__(self):
        if min(self.q, self.vol_proxy, self.b1_proxy, self.cusp_proxy) < 1:
            raise ValidationError("tower datum entries must all be positive")


def d_tower_series(n: int, g: int, primes: Sequence[int]) -> list[DTowerDatum]:
    """Congruence-tower proxies over a list of distinct primes.

    vol is |SU(n+1, F_q)| (the covering degree up to a constant), b1 is
    2 + (2g - 2) * |PSL_2(F_q)| (the retraction-target curve cover), and
    cusps is vol / q^(2n-1) (one modeled cusp; constants do not affect
    exponents).
    """
    return [datum for datum, _ in d_tower_rows(n, g, primes)]


def d_tower_rows(n: int, g: int,
                 primes: Sequence[int]) -> list[tuple[DTowerDatum, int]]:
    """`d_tower_series` with each datum paired with its |PSL_2(F_q)|.

    Each q is tested for primality once, and the orders are then taken
    from the closed forms for a prime q without factoring it again.
    """
    if n not in (2, 3):
        raise ValidationError(f"only n = 2 and n = 3 are modeled, got {n}")
    if g < 2:
        raise ValidationError(f"retraction target has genus >= 2, got {g}")
    seen = set()
    out = []
    for q in primes:
        if q in seen:
            raise ValidationError(f"primes must be distinct, {q} repeats")
        seen.add(q)
        if not is_prime(q):
            raise ValidationError(f"{q} is not prime")
        vol = _su_count(n + 1, q)
        psl2 = _psl2_count(q, _sl2_count(q, (q,)))
        datum = DTowerDatum(
            q=q,
            vol_proxy=vol,
            b1_proxy=2 + (2 * g - 2) * psl2,
            cusp_proxy=_cusp_index(n, q, vol),
        )
        out.append((datum, psl2))
    return out
