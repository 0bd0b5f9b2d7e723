"""Exact orders of finite classical groups over residue rings, with
independent brute-force oracles, and the derived congruence-tower data.

Formula paths are closed-form products; brute-force paths count
matrices over table-driven finite fields column by column, SL and SU
carrying the exterior product (the minors) of the chosen columns and
each unitary column walking the affine solution set of the constraints
linear in it.  Both return a `GroupOrder` tagged with its method, and
the two must agree whenever the brute-force search space fits under the cap.

The hermitian form for the unitary families is fixed as the antidiagonal
(split) form, so that the strictly upper-triangular unitary matrices
form the Heisenberg-type unipotent subgroup; group orders do not depend
on this choice.

The congruence-tower columns come from one kernel that trusts its
primes: `d_tower_columns` takes them from one sieve of a range,
`d_tower_series` from a list whose entries `is_prime` checks.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product, repeat
from math import gcd, isqrt, log2
from typing import Optional, Sequence

from .errors import ResourceLimitError, ValidationError
from .gf import PrimePowerField, field

#: Refuse brute-force searches whose raw matrix space exceeds this.  The
#: slowest configurations it admits are SL(5, 2) at about 0.7 s,
#: SL(4, 3) 0.3 s, SL(2, 128) 0.15 s, SL(3, 8) 0.1 s and U(2, 11) 0.07 s
#: per in-process call (2-vCPU VM, Python 3.11).
DEFAULT_BRUTE_CAP = 1 << 28

#: A brute-force refusal reports the raw space exactly up to this many
#: bits: 2^14284 < 10^4300, the interpreter's default limit on the
#: digits of an int printed in decimal.
_EXACT_SPACE_BITS = 14_284

#: Refuse formula orders with more bits than this.  The largest orders
#: it admits, SL_632(F_3) and U_632(F_3) of about 634,000 bits, take
#: about 1.1 s to build and print in a fresh CLI process.
DEFAULT_ORDER_BITS_CAP = 200_000

#: Refuse prime ranges reaching past this: the sieve holds one byte per
#: integer of its range.  `d_tower_columns` and `exponent_checks` sieve
#: their range once under it, and then take about 1.5 microseconds per
#: prime: a whole `congruence exponents` process over the primes 5..10^6
#: takes about 0.5 s, and to 10^7 2-3 s at a peak RSS near 390 MiB
#: (2-vCPU VM, Python 3.11).  A list given to `d_tower_series` is checked
#: by `is_prime` and has no cap.
DEFAULT_PRIME_CAP = 10**6

#: Trial division gives up past this divisor.  `factorize` refuses a
#: cofactor above its square (about 10^12) with no smaller factor, and
#: `is_prime` such an n at or above the last of `_SPRP_BOUNDS`.
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


#: The strong-probable-prime test to the first k prime bases decides
#: every n below the least strong pseudoprime to all of them, the bound
#: at the same place as k in `_SPRP_COUNTS` (Pomerance-Selfridge-Wagstaff
#: 1980, Jaeschke 1993, Sorenson-Webster 2017).
_SPRP_BOUNDS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
_SPRP_COUNTS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality: a deterministic strong-probable-prime test below
    the last of `_SPRP_BOUNDS`, bounded trial division at or above it."""
    i = bisect_right(_SPRP_BOUNDS, n)
    if i == len(_SPRP_BOUNDS):
        return _least_divisor(n) == n
    if n < 4:
        return n > 1
    # Every base is below n here, and one that divides n fails: then
    # a^d mod n shares that factor with n, so it is never 1 or n - 1.
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SPRP_BASES[:_SPRP_COUNTS[i]]:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method on ints: one step from any seed
    x > 0 lands at or above it, and the steps then fall to it."""
    def step(x: int) -> int:
        return ((k - 1) * x + n // x ** (k - 1)) // k

    s = max(n.bit_length() // k - 52, 0)
    x = step(int(2 ** (log2(n) / k - s)) + 1 << s)
    while (y := step(x)) < x:
        x = y
    return x


def prime_power_base(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise if q is not a prime power.

    A prime q below the last of `_SPRP_BOUNDS` takes one test; any other
    q is reduced to r^e, e maximal, by exact roots, and r is tested.
    """
    if q < 2:
        raise ValidationError(f"{q} is not a prime power")
    if q < _SPRP_BOUNDS[-1] and is_prime(q):
        return q, 1
    r, e = q, 1
    for k in _sieve(2, q.bit_length()):
        while r >> k:  # a k-th root of r would be at least 2
            # A k-th root below 2^40 is within 0.01 of the float 2^t: the
            # error of log2(r) is about 2^-52 * k * t, so that of 2^t is
            # about 2^-52 * t * 2^t.  Most candidates fail on the low bits.
            t = log2(r) / k
            x = round(2**t) if t < 40 else _iroot(r, k)
            if pow(x, k, 1 << 64) != r % (1 << 64) or x**k != r:
                break
            r, e = x, e * k
    if not is_prime(r):
        raise ValidationError(f"{q} is not a prime power")
    return r, e


def primes_in_range(lo: int, hi: int, cap: int = DEFAULT_PRIME_CAP) -> list[int]:
    """Primes in [lo, hi] by a sieve of Eratosthenes over that segment.

    Refuses when hi exceeds `cap`.
    """
    if hi > cap:
        raise ResourceLimitError(
            f"prime range up to {hi} exceeds the cap {cap}", space=hi, cap=cap
        )
    return _sieve(lo, hi)


def _sieve(lo: int, hi: int) -> list[int]:
    lo = max(lo, 2)
    return list(compress(range(lo, hi + 1), _prime_flags(lo, hi)))


def _prime_flags(lo: int, hi: int) -> bytearray:
    """One byte per integer of [lo, hi], lo >= 2: 1 at each prime, else 0."""
    if hi < lo:
        return bytearray()
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    segment = bytearray([1]) * (hi - lo + 1)
    for d in range(2, root + 1):
        if small[d]:
            small[d * d::d] = bytes(len(range(d * d, root + 1, d)))
            start = max(d * d, -(-lo // d) * d)
            segment[start - lo::d] = bytes(len(range(start, hi + 1, d)))
    return segment


def sl2_order(n: int) -> GroupOrder:
    """|SL_2(Z/N)| = N^3 * prod_(p | N) (1 - p^-2), exactly."""
    if n < 2:
        raise ValidationError(f"modulus must be >= 2, got {n}")
    num = n**3
    den = 1
    for p in factorize(n):
        num *= p * p - 1
        den *= p * p
    # Exact: den = prod p^2 divides n^2, so it divides n^3.
    return GroupOrder(GroupFamily.SL2_ZN, 2, n, num // den, Method.FORMULA)


def psl2_order(n: int) -> int:
    """|PSL_2(Z/N)|: the SL_2 order divided by |{+-1} mod N|."""
    # Exact: -I has order 2 in SL_2(Z/N) for N > 2, so the order is even.
    return sl2_order(n).order // (2 if n > 2 else 1)


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


def su_order(m: int, q: int) -> GroupOrder:
    """|SU_m(F_q)| = |U_m(F_q)| / (q + 1), the product without its i = 1
    factor q + 1."""
    return _field_order(GroupFamily.SU, m, q)


def _su_count(m: int, q: int) -> int:
    order = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= q**i - (-1) ** i
    return order


def unitriangular_u_order(m: int, q: int) -> GroupOrder:
    """Order q^(m(m-1)/2) of the upper unitriangular subgroup of U_m(F_q)."""
    return _field_order(GroupFamily.UNITRIANGULAR_U, m, q)


_FIELD_COUNTS = {
    GroupFamily.SL: _sl_count,
    GroupFamily.U: lambda m, q: (q + 1) * _su_count(m, q),
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


@lru_cache(maxsize=None)
def _laplace_plan(m: int) -> list[list[list[tuple[int, int, bool]]]]:
    """The Laplace steps that extend the exterior product of k columns of
    length m by one more column, for k = 0 .. m - 1.

    The product's coordinates are the k x k minors on the k-row subsets S,
    in `combinations` order.  Expanding along the new column v, the minor
    on a (k+1)-row subset T = (t_0 < ... < t_k) is the sum over j of
    (-1)^(j+k) v_(t_j) times the minor on T minus t_j, so step k lists,
    for each T, the terms (t_j, index of T minus t_j, sign is negative).
    """
    plan = []
    for k in range(m):
        index = {s: i for i, s in enumerate(combinations(range(m), k))}
        plan.append([[(t, index[rows[:j] + rows[j + 1:]], (j + k) % 2 == 1)
                      for j, t in enumerate(rows)]
                     for rows in combinations(range(m), k + 1)])
    return plan


def _wedge(f: PrimePowerField, step: list[list[tuple[int, int, bool]]],
           minors: Sequence[int], coords: Sequence[Sequence[int]]) -> list[list[int]]:
    """One Laplace step of `_laplace_plan` for many candidate columns at once.

    `minors` is the exterior product of a prefix of k columns, `step` is
    the plan's step k, and `coords[i]` lists coordinate i of every
    candidate v.  Returns, for each (k+1)-row subset, the list over the
    candidates of that coordinate of the product extended by v.
    """
    add, mul, neg = f._add, f._mul, f._neg
    out = []
    for terms in step:
        values = None
        for t, s, negative in terms:
            c = neg[minors[s]] if negative else minors[s]
            if c:  # mul[c] lists c * x for every x
                row = mul[c]
                values = ([row[x] for x in coords[t]] if values is None
                          else [add[y][row[x]] for y, x in zip(values, coords[t])])
        out.append([0] * len(coords[0]) if values is None else values)
    return out


def _affine_coords(f: PrimePowerField, m: int,
                   equations: Sequence[tuple[Sequence[int], int]]) -> list[list[int]]:
    """The solutions v in F^m of a . v = b for each (a, b) in `equations`,
    as m coordinate lists (the i-th lists v_i of every solution), or []
    when they are inconsistent.

    Gauss-Jordan elimination over the field's tables brings the system to
    reduced row-echelon form.  The solutions are then the particular one
    plus every combination of the kernel basis: each free coordinate, a
    basis vector's coefficient, runs over the field, and the pivot
    coordinate of row (a, b) is b - sum_k a_k x_k over the free k.
    """
    add, mul, neg = f._add, f._mul, f._neg
    rows = [list(a) + [b] for a, b in equations]
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        scale = mul[mul[rows[i][col]].index(1)]
        rows[i], rows[r] = rows[r], [scale[x] for x in rows[i]]
        for k, row in enumerate(rows):
            if k != r and row[col]:
                times = mul[neg[row[col]]]
                rows[k] = [add[x][times[y]] for x, y in zip(row, rows[r])]
        pivots.append(col)
    if any(row[m] for row in rows[len(pivots):]):
        return []
    free = [c for c in range(m) if c not in pivots]
    n, size = len(free), f.size
    # The free coordinates count through F^n, the first one as the top digit.
    coords = {c: sorted(list(range(size)) * size ** (n - 1 - k)) * size ** k
              for k, c in enumerate(free)}
    for row, col in zip(rows, pivots):
        values = [row[m]]
        for k in free:  # mul[c] lists c * t for every t
            values = [add[x][y] for x in values for y in mul[neg[row[k]]]]
        coords[col] = values
    return [coords[j] for j in range(m)]


def _affine_solutions(f: PrimePowerField, m: int,
                      equations: Sequence[tuple[Sequence[int], int]]) -> list[tuple[int, ...]]:
    """The solutions of `_affine_coords` as vectors."""
    return list(zip(*_affine_coords(f, m, equations)))


def _count_sl(f: PrimePowerField, m: int) -> int:
    """Count m x m matrices over the field with determinant 1.

    The columns are chosen depth first over all of F^m, carrying the
    exterior product of the prefix.  A prefix whose product is 0 is
    linearly dependent, so its whole subtree has determinant 0 and is
    skipped.  The product of m - 1 columns lists the cofactors of the last
    column up to sign, and det = C . x is then 1 on an affine hyperplane
    of q^(m-1) columns x whenever they are not all 0.
    """
    plan = _laplace_plan(m)
    coords = list(zip(*product(range(f.size), repeat=m)))
    hyperplane = f.size ** (m - 1)

    def count(k: int, minors: Sequence[int]) -> int:
        extended = zip(*_wedge(f, plan[k], minors, coords))
        if k == m - 2:
            return hyperplane * sum(map(any, extended))
        return sum(count(k + 1, p) for p in extended if any(p))

    return count(0, (1,))


def _count_unitary(f: PrimePowerField, m: int, q: int, det_one: bool,
                   unitriangular: bool) -> int:
    """Count matrices preserving the antidiagonal hermitian form.

    Conjugation is the Frobenius x -> x^q on GF(q^2).  Columns are
    chosen one at a time, and every constraint on column v = c_t but one
    is linear in v: <c_i, v> = J_it for the chosen c_i, i < t; the pins
    v_t = 1 and v_j = 0 for j > t for UNITRIANGULAR_U; and, for SU at
    t = m - 1, the cofactor row dotted with v equal to 1 (det = 1), read
    off the exterior product of the chosen columns.  So column t walks
    the affine solution set of those equations, and only the quadratic
    <v, v> = J_tt is tested, over the coordinate lists: the coordinates
    j and m-1-j contribute Tr(conj(v_(m-1-j)) v_j), with Tr(x) = x +
    conj(x), and a middle one its norm conj(v_j) v_j.
    """
    add, mul, neg = f._add, f._mul, f._neg
    conj = [f.pow(a, q) for a in range(f.size)]
    trace = [[add[x][conj[x]] for x in (mul[conj[a]][b] for b in range(f.size))]
             for a in range(f.size)]
    plan = _laplace_plan(m)
    chosen: list[tuple[int, ...]] = []

    def count(t: int, minors: Optional[Sequence[int]]) -> int:
        # <u, v> = sum_k conj(u_k) v_(m-1-k) = sum_j conj(u_(m-1-j)) v_j
        equations = [([conj[u[m - 1 - j]] for j in range(m)], int(i + t == m - 1))
                     for i, u in enumerate(chosen)]
        if unitriangular:
            equations += [([int(i == j) for i in range(m)], int(j == t)) for j in range(t, m)]
        if det_one and t == m - 1:
            equations.append(([neg[minors[s]] if negative else minors[s]
                               for _, s, negative in plan[t][0]], 1))
        coords = _affine_coords(f, m, equations)
        if not coords:
            return 0
        norms = [trace[a][b] for a, b in zip(coords[m - 1], coords[0])]
        for j in range(1, m // 2):
            norms = [add[x][trace[a][b]]
                     for x, a, b in zip(norms, coords[m - 1 - j], coords[j])]
        if m % 2:
            norms = [add[x][mul[conj[a]][a]] for x, a in zip(norms, coords[m // 2])]
        target = int(2 * t == m - 1)
        if t == m - 1:
            return norms.count(target)
        keep = [x == target for x in norms]
        coords = [list(compress(c, keep)) for c in coords]
        products = zip(*_wedge(f, plan[t], minors, coords)) if det_one else repeat(None)
        found = 0
        for v, p in zip(zip(*coords), products):
            chosen.append(v)
            found += count(t + 1, p)
            chosen.pop()
        return found

    return count(0, (1,))


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
        # g = gcd(a, q) solutions when g divides 1 + b*c, else none.  That
        # depends on b and c mod g only, so each distinct g counts its g^2
        # residue pairs once, times (q/g)^2.
        gs = [gcd(a, q) for a in range(q)]
        pairs = {g: (q // g) ** 2 * sum(1 for b in range(g) for c in range(g)
                                        if (1 + b * c) % g == 0) for g in set(gs)}
        count = sum(g * pairs[g] for g in gs)
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
    # Exact: q^(n(n+1)/2) divides |SU(n+1, q)| and 2n - 1 <= n(n+1)/2.
    return _su_count(n + 1, q) // q ** (2 * n - 1)


@dataclass(frozen=True)
class DTowerDatum:
    """Per-prime congruence-level data: volume, b1, and cusp proxies."""

    q: int
    vol_proxy: int
    b1_proxy: int
    cusp_proxy: int

    def __post_init__(self):
        if (self.q < 1 or self.vol_proxy < 1 or self.b1_proxy < 1
                or self.cusp_proxy < 1):
            raise ValidationError("tower datum entries must all be positive")


def d_tower_series(n: int, g: int, primes: Sequence[int]) -> list[DTowerDatum]:
    """Congruence-tower proxies over a list of distinct primes.

    vol is |SU(n+1, F_q)| (the covering degree up to a constant), b1 is
    2 + (2g - 2) * |PSL_2(F_q)| (the retraction-target curve cover), and
    cusps is vol / q^(2n-1) (one modeled cusp; constants do not affect
    exponents).  Each entry is checked by `is_prime` and then for a
    repeat, in list order, so a sparse list of large primes costs its
    length, not its span.
    """
    qs = list(primes)
    seen: set[int] = set()
    for q in qs:
        if not is_prime(q):
            raise ValidationError(f"{q} is not prime")
        if q in seen:
            raise ValidationError(f"primes must be distinct, {q} repeats")
        seen.add(q)
    return list(map(DTowerDatum, *_d_tower_columns(n, g, qs)[:4]))


def d_tower_columns(
    n: int, g: int, lo: int, hi: int, cap: int = DEFAULT_PRIME_CAP
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The columns q, vol, b1, cusps and |PSL_2(F_q)| of `d_tower_series`
    over the primes in [lo, hi], from one sieve of `primes_in_range`.

    Refuses an hi above `cap` first, then a range with no prime.
    """
    primes = primes_in_range(lo, hi, cap)
    if not primes:
        raise ValidationError(f"no primes in [{lo}, {hi}]")
    return _d_tower_columns(n, g, primes)


def _d_tower_columns(
    n: int, g: int, qs: list[int]
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The D-tower columns over `qs`, which the caller has checked to be
    distinct primes; `qs` itself is the q column.  Each closed form is
    evaluated once per q, with c = vol / q^(2n-1):

    * n = 2: c = (q^2 - 1)(q^3 + 1) and vol = q^3 c;
    * n = 3: c = q (q^2 - 1)(q^3 + 1)(q^4 - 1) and vol = q^5 c;
    * |PSL_2(F_q)| = q(q^2 - 1) / gcd(2, q - 1).
    """
    if n not in (2, 3):
        raise ValidationError(f"only n = 2 and n = 3 are modeled, got {n}")
    if g < 2:
        raise ValidationError(f"retraction target has genus >= 2, got {g}")
    vol, b1, cusps, psl2 = [], [], [], []
    k = 2 * g - 2
    for q in qs:
        s = q * q
        if n == 2:
            c = (s - 1) * (s * q + 1)
            v = s * q * c
        else:
            c = q * (s - 1) * (s * q + 1) * (s * s - 1)
            v = s * s * q * c
        p = q * (s - 1) // gcd(2, q - 1)
        vol.append(v)
        b1.append(2 + k * p)
        cusps.append(c)
        psl2.append(p)
    return qs, vol, b1, cusps, psl2
