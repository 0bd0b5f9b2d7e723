"""Exact orders of finite classical groups over residue rings, with
independent brute-force oracles, and the derived congruence-tower data.

Formula paths are closed-form products; brute-force paths count
matrices over table-driven finite fields column by column, SL and SU
carrying the exterior product (the minors) of the chosen columns and
each unitary column walking the affine solution set of the constraints
linear in it.  The last unitary column is counted in bulk: its shared
constraints are solved once per prefix of m - 2 columns, a table marks
the isotropic points of their solution plane, and each candidate
c_(m-2) counts the marked points on its own line.  Both paths return
a `GroupOrder` tagged with its method, and the two must agree whenever
the brute-force search space fits under the cap.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product, repeat
from math import gcd
from operator import getitem
from typing import Optional, Sequence

from .errors import PRINTABLE_BITS, ResourceLimitError, ValidationError, reported
from .gf import PrimePowerField, field
from .primes import DEFAULT_PRIME_CAP, factorize, is_prime, prime_power_base, primes_in_range

#: Refuse brute-force searches whose raw matrix space exceeds this.  The
#: slowest configurations it admits are SL(5, 2) at about 0.7 s,
#: SL(4, 3) 0.3 s, SL(2, 128) 0.15 s, SL(3, 8) 0.1 s and U(2, 11) 0.013 s
#: per in-process call (2-vCPU VM, Python 3.11).
DEFAULT_BRUTE_CAP = 1 << 28

#: Refuse a formula order whose lower estimate of its bits,
#: m(m-1)/2 * (bits(q) - 1) + 1, is above this; the order itself has
#: up to about 3.2 times as many (at q = 3).  The largest orders it admits,
#: SL_632(F_3) and U_632(F_3) of about 634,000 bits, take about 1.1 s
#: to build and print in a fresh CLI process.
DEFAULT_ORDER_BITS_CAP = 200_000


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


def u_order(m: int, q: int) -> GroupOrder:
    """|U_m(F_q)| = q^(m(m-1)/2) * prod_(i=1..m) (q^i - (-1)^i)."""
    return _field_order(GroupFamily.U, m, q)


def su_order(m: int, q: int) -> GroupOrder:
    """|SU_m(F_q)| = |U_m(F_q)| / (q + 1), the product without its i = 1
    factor q + 1."""
    return _field_order(GroupFamily.SU, m, q)


def unitriangular_u_order(m: int, q: int) -> GroupOrder:
    """Order q^(m(m-1)/2) of the upper unitriangular subgroup of U_m(F_q)."""
    return _field_order(GroupFamily.UNITRIANGULAR_U, m, q)


def _field_count(family: GroupFamily, m: int, q: int) -> int:
    """q^(m(m-1)/2) * prod_i (q^i - s^i), s = 1 for SL and -1 for U and
    SU, i from 1 for U and from 2 otherwise; the unitriangular order is
    the power alone."""
    order = q ** (m * (m - 1) // 2)
    if family is not GroupFamily.UNITRIANGULAR_U:
        s = 1 if family is GroupFamily.SL else -1
        for i in range(1 if family is GroupFamily.U else 2, m + 1):
            order *= q**i - s**i
    return order


def _family(family: GroupFamily, m: int) -> GroupFamily:
    """`family`, a member or its name, as a `GroupFamily` that admits m x m
    matrices: SL2_ZN only m = 2."""
    try:
        family = GroupFamily(family)
    except ValueError:
        raise ValidationError(f"unknown family {family!r}") from None
    if family is GroupFamily.SL2_ZN and m != 2:
        raise ValidationError("SL2_ZN is only defined for m = 2")
    return family


def _field_order(
    family: GroupFamily, m: int, q: int, cap: Optional[int] = None
) -> GroupOrder:
    """The formula order of a field family, refused when its lower
    estimate of bits is above `cap`.

    q^(m(m-1)/2), the unitriangular order, divides the order of every
    field family (of SU too, as gcd(q, q + 1) = 1), so the order has at
    least m(m-1)/2 * (bits(q) - 1) + 1 bits; the refusal rests on that
    estimate, reported as `errors.reported` does, and comes before any
    product is built.
    """
    if m < 2:
        raise ValidationError(f"matrix size must be >= 2, got {m}")
    prime_power_base(q)
    bits = m * (m - 1) // 2 * (q.bit_length() - 1) + 1
    if cap is not None and bits > cap:
        bits = reported(bits, cap)
        raise ResourceLimitError(
            f"the order has at least {bits} bits, above the cap of {cap} bits",
            bits,
            cap,
        )
    return GroupOrder(family, m, q, _field_count(family, m, q), Method.FORMULA)


def order_formula(
    family: GroupFamily, m: int, q: int, cap: int = DEFAULT_ORDER_BITS_CAP
) -> GroupOrder:
    """Exact order by its closed form, for a `GroupFamily` or its name.

    Refuses a field-family order when its lower estimate of bits,
    m(m-1)/2 * (bits(q) - 1) + 1, is above `cap`; the order itself may
    have more.  The SL2_ZN order is below N^3 and has no cap.
    """
    family = _family(family, m)
    if family is GroupFamily.SL2_ZN:
        return sl2_order(q)
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
    add, mul, neg = f.add, f.mul, f.neg
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


def _affine_basis(f: PrimePowerField, m: int, equations: Sequence[tuple[Sequence[int], int]]
                  ) -> Optional[tuple[list[int], list[list[int]]]]:
    """The solutions v in F^m of a . v = b for each (a, b) in `equations`
    as a particular solution and a kernel basis, or None when they are
    inconsistent.

    Gauss-Jordan elimination over the field's tables brings the system to
    reduced row-echelon form (a, b).  The particular solution is b at the
    pivot coordinate of each row and 0 at every free coordinate; free
    coordinate k gives the basis vector that is 1 at k, 0 at the other
    free coordinates and -a_k at the pivot coordinate of each row.
    """
    add, mul, neg, inv = f.add, f.mul, f.neg, f.inv
    rows = [[*a, b] for a, b in equations]
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        for i in range(r, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        scale = mul[inv[rows[i][col]]]
        rows[i], rows[r] = rows[r], [scale[x] for x in rows[i]]
        for k, row in enumerate(rows):
            if k != r and row[col]:
                times = mul[neg[row[col]]]
                rows[k] = [add[x][times[y]] for x, y in zip(row, rows[r])]
        pivots.append(col)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    point = [0] * m
    for row, col in zip(rows, pivots):
        point[col] = row[m]
    basis = []
    for k in [c for c in range(m) if c not in pivots]:
        v = [0] * m
        v[k] = 1
        for row, col in zip(rows, pivots):
            v[col] = neg[row[k]]
        basis.append(v)
    return point, basis


@lru_cache(maxsize=None)
def _digits(size: int, n: int) -> list[list[int]]:
    """The n coordinate lists of F^n for a field of `size` elements, which
    counts through F^n with the first coordinate as the top digit."""
    return [sorted(list(range(size)) * size ** (n - 1 - k)) * size ** k for k in range(n)]


def _span(f: PrimePowerField, point: Sequence[int],
          basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """The points `point` + sum_k s_k basis[k] over every s in F^n, n =
    len(basis), as coordinate lists (the i-th lists coordinate i of every
    point), s counting as in `_digits`.  A coordinate that is s_k itself
    is the shared list of `_digits`."""
    add, mul, n = f.add, f.mul, len(basis)
    coords = []
    for j, start in enumerate(point):
        column = [v[j] for v in basis]
        if not start and column.count(0) == n - 1 and 1 in column:
            coords.append(_digits(f.size, n)[column.index(1)])
            continue
        values = [start]
        for c in column:  # mul[c] lists c * s for every s
            values = [add[x][y] for x in values for y in mul[c]]
        coords.append(values)
    return coords


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
    off the exterior product of the chosen columns.  So column t < m - 1
    walks the affine solution set of those equations, and only the
    quadratic <v, v> = J_tt is tested, over the coordinate lists: the
    coordinates j and m-1-j contribute Tr(conj(v_(m-1-j)) v_j), with
    Tr(x) = x + conj(x), and a middle one its norm conj(v_j) v_j.

    The last column w is counted for every candidate c_(m-2) at once.
    Its equations from c_0 .. c_(m-3) are shared, so they are solved
    once, to a plane p + s0 k0 + s1 k1 or to nothing, and a table marks
    the q^4 points s of F^2 whose w is isotropic.  Each candidate adds
    one equation in s, <c_(m-2), w> = J_(m-2)(m-1), whose coefficients
    are computed in bulk, as `_wedge` extends many columns at once, and
    the marked points on its line are counted.  SU's cofactor row is, in
    s, a multiple of that equation, so det w = 1 holds on the whole line
    or nowhere on it.  UNITRIANGULAR_U's pin w_(m-1) = 1 is left out: it
    is <c_0, w> = 1 for the pinned c_0 = e_0, which is c_0's shared row
    at m >= 3 and the candidate's own row at m = 2.  So the shared system
    is a plane or has no solution: a relation among the rows of c_0 ..
    c_(m-3) that involves c_0 contradicts the shared right-hand side; one
    whose lowest column is c_1 contradicts the candidates' own equations,
    so that no candidate gets here; and one whose lowest column is c_j,
    j >= 2, cannot hold, as <c_j, c_(m-1-j)> = 1 pairs c_j with a column
    of the prefix that is orthogonal to the others in the relation.
    """
    add, mul, neg, inv, size = f.add, f.mul, f.neg, f.inv, f.size
    conj = [f.pow(a, q) for a in range(size)]
    trace = [[add[x][conj[x]] for x in mul[conj[a]]] for a in range(size)]
    plan = _laplace_plan(m)
    chosen: list[tuple[int, ...]] = []

    def linear(t: int) -> list[tuple[list[int], int]]:
        # <u, v> = sum_k conj(u_k) v_(m-1-k) = sum_j conj(u_(m-1-j)) v_j
        equations = [([conj[u[m - 1 - j]] for j in range(m)], int(i + t == m - 1))
                     for i, u in enumerate(chosen)]
        if unitriangular and t < m - 1:
            equations += [([int(i == j) for i in range(m)], int(j == t)) for j in range(t, m)]
        return equations

    def norms(coords: list[list[int]]) -> list[int]:
        values = [trace[a][b] for a, b in zip(coords[m - 1], coords[0])]
        for j in range(1, m // 2):
            values = [add[x][trace[a][b]]
                      for x, a, b in zip(values, coords[m - 1 - j], coords[j])]
        if m % 2:
            values = [add[x][mul[conj[a]][a]] for x, a in zip(values, coords[m // 2])]
        return values

    def count(t: int, minors: Optional[Sequence[int]]) -> int:
        solved = _affine_basis(f, m, linear(t))
        if solved is None:
            return 0
        coords = _span(f, *solved)
        target = int(2 * t == m - 1)
        keep = [x == target for x in norms(coords)]
        coords = [list(compress(c, keep)) for c in coords]
        products = _wedge(f, plan[t], minors, coords) if det_one else None
        if t == m - 2:
            shared = _affine_basis(f, m, linear(m - 1))
            return 0 if shared is None else last(coords, products, *shared)
        found = 0
        for v, p in zip(zip(*coords), zip(*products) if det_one else repeat(None)):
            chosen.append(v)
            found += count(t + 1, p)
            chosen.pop()
        return found

    def last(coords: list[list[int]], products: Optional[list[list[int]]],
             point: list[int], basis: list[list[int]]) -> int:
        grid = _span(f, point, basis)
        hit = [x == 0 for x in norms(grid)]  # <w, w> = J_(m-1)(m-1) = 0
        rows = [hit[i:i + size] for i in range(0, len(hit), size)]  # rows[s0][s1]
        sums = list(map(sum, rows))
        total = sum(sums)

        def line(a0: int, a1: int, b: int) -> int:
            """The marked points s with a0 s0 + a1 s1 = b."""
            if a1:  # s1 = b / a1 - (a0 / a1) s0; mul[x] lists x * s0 for every s0
                x = inv[a1]
                return sum(map(getitem, rows,
                               map(add[mul[b][x]].__getitem__, mul[neg[mul[a0][x]]])))
            if a0:
                return sums[mul[b][inv[a0]]]
            return 0 if b else total

        # Each candidate's equations in s: a . (p + s0 k0 + s1 k1) = b gives
        # (a . k0) s0 + (a . k1) s1 = b - a . p, for a and b of every
        # candidate, through `_wedge` steps whose minors are p, k0, k1.
        vectors = point + basis[0] + basis[1]
        # a_j = conj(v_(m-1-j)), so a . x = sum_i conj(v_i) x_(m-1-i).
        dot, alpha0, alpha1 = _wedge(
            f, [[(i, r * m + m - 1 - i, False) for i in range(m)] for r in range(3)],
            vectors, [[conj[x] for x in c] for c in coords])
        rhs = add[int(m == 2)]  # J_(m-2)(m-1)
        beta = [rhs[neg[x]] for x in dot]
        if not det_one:
            return sum(map(line, alpha0, alpha1, beta))
        # SU: the cofactor row of w, read off the product of c_0 .. c_(m-2),
        # gives g0 s0 + g1 s1 = h.  c_0 is orthogonal to c_0 ..
        # c_(m-2), so it spans the common kernel of their hermitian rows and
        # lies in the cofactor row's kernel.  The cofactor row is therefore a
        # combination of the hermitian rows (0 for a dependent prefix):
        # (g0, g1) is a multiple of (a0, a1), and det w is the same on the
        # whole line.  It is tested at the line's point with s0 = 0 (s1 = 0
        # when a1 = 0).  A zero (a0, a1), from the zero c_0 at m = 2, comes
        # with b = 1 and has no point.
        dot, gamma0, gamma1 = _wedge(
            f, [[(k, r * m + j, negative) for j, k, negative in plan[m - 1][0]]
                for r in range(3)], vectors, products)
        found = 0
        for a0, a1, b, g0, g1, h in zip(alpha0, alpha1, beta, gamma0, gamma1,
                                        (add[1][neg[x]] for x in dot)):
            a, g = (a1, g1) if a1 else (a0, g0)
            if mul[h][a] == mul[g][b]:
                found += line(a0, a1, b)
        return found

    return count(0, (1,))


def brute_force_order(
    family: GroupFamily, m: int, q: int, cap: int = DEFAULT_BRUTE_CAP
) -> GroupOrder:
    """Exact order by enumeration, for a `GroupFamily` or its name; the
    independent oracle for the formulas.

    Refuses when the raw space of candidate matrices, q^(m^2) over the
    ground field ((q^2)^(m^2) in the unitary cases, N^4 for SL2_ZN),
    holds more than `cap` of them.  The space is not built when its
    lower bound on bits already settles the refusal, which reports the
    count as `errors.reported` does: exactly when it prints, else one
    the space reaches.
    """
    if cap < 1:
        raise ValidationError("cap must be positive")
    family = _family(family, m)
    if family is GroupFamily.SL2_ZN:
        if q < 2:
            raise ValidationError(f"modulus must be >= 2, got {q}")
        base, exponent = q, 4
    else:
        if m < 2:
            raise ValidationError(f"matrix size must be >= 2, got {m}")
        p, e = prime_power_base(q)
        base, exponent = (q if family is GroupFamily.SL else q * q), m * m
    lower = exponent * (base.bit_length() - 1) + 1  # bits of base**exponent, at least
    space = base**exponent if lower <= max(cap.bit_length(), PRINTABLE_BITS) else None
    if space is None or space > cap:
        shown = reported(space, cap)
        raise ResourceLimitError(
            f"raw search space {'' if shown == space else 'of at least '}{shown} "
            f"exceeds the cap {cap}",
            space=shown,
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
    return _field_count(GroupFamily.SU, n + 1, q) // q ** (2 * n - 1)


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
