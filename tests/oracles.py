"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion, invariant factors by gcds of minors, subgroup
orders by breadth-first closure, tower levels by one public index or
kernel call per cusp and fibration, weight-tuple validation by Fraction
comparisons and sums, the integrality condition by a direct double
loop, contractions by listing every partition into the right
number of blocks, field products by long division, and moduli, group
orders and primes by the plain searches below.  They are slow and only
meant for small inputs.  Text views come from the plain renderers: CSV
from `csv.writer`, tables by padding every cell with `str.ljust`.
"""

import csv
import io
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt
from typing import Iterator, Sequence

from cuspgrowth import (
    AbelianHom,
    BaseSpace,
    ContractionPartition,
    FiniteAbelianGroup,
    IntMatrix,
    LevelReport,
    ValidationError,
    WeightTuple,
    b1_bound_for,
    image_index,
    is_surjective,
    kernel_contains,
)
from cuspgrowth.gf import PrimePowerField


def det_cofactor(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def minor_gcd_diagonal(matrix: IntMatrix):
    """Expected Smith diagonal via gcds of k x k minors.

    d_k = g_k / g_(k-1) where g_k is the gcd of all k x k minors
    (g_0 = 1); once some g_k vanishes the remaining entries are zero.
    """
    r, c = matrix.rows, matrix.cols
    n = min(r, c)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rs in combinations(range(r), k):
            for cs in combinations(range(c), k):
                sub = [[matrix[i, j] for j in cs] for i in rs]
                g = gcd(g, det_cofactor(sub))
        if g == 0:
            diag.extend([0] * (n - k + 1))
            return tuple(diag)
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def subgroup_elements(group: FiniteAbelianGroup, generator_columns):
    """All elements of the subgroup generated by the given columns,
    by closure under addition.  Guarded to small groups."""
    assert group.order <= 10_000
    factors = group.invariant_factors
    identity = (0,) * len(factors)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    frontier = {identity}
    elements = {identity}
    gens = [tuple(g) for g in generator_columns]
    while frontier:
        new = set()
        for e in frontier:
            for g in gens:
                s = add(e, g)
                if s not in elements:
                    elements.add(s)
                    new.add(s)
        frontier = new
    return elements


def analyze_level(base: BaseSpace, rho: AbelianHom) -> LevelReport:
    """Covering data of the finite abelian cover defined by `rho`.

    Degree is the deck-group order; the cover is connected iff `rho` is
    surjective.  Each cusp's multiplicity is the index of the image of
    its sublattice; the total is their sum when the cover is connected.
    The b1 bound comes from the first declared fibration whose kernel
    lies inside ker(rho), if any.
    """
    if rho.source_rank != base.ambient_rank:
        raise ValidationError(
            f"homomorphism expects rank {rho.source_rank}, base has rank "
            f"{base.ambient_rank}"
        )
    degree = rho.target.order
    connected = is_surjective(rho)
    multiplicities = {
        cusp.name: image_index(rho, cusp.sublattice) for cusp in base.cusps
    }
    total = sum(multiplicities.values()) if connected else None
    bound = None
    via = None
    for fib in base.fibrations:
        if kernel_contains(rho, fib.kernel_sublattice):
            bound = b1_bound_for(fib)
            via = fib.name
            break
    return LevelReport(
        degree=degree,
        connected=connected,
        cusp_multiplicities=multiplicities,
        total_cusps=total,
        b1_bound=bound,
        factoring_fibration=via,
    )


def weight_tuple_error(ws):
    """The message `WeightTuple(ws)` must refuse with, or None when it
    must accept, by Fraction comparisons and a Fraction sum."""
    ws = [Fraction(w) for w in ws]
    if len(ws) < 4:
        return f"weight tuple must have length >= 4, got length {len(ws)}"
    for idx, w in enumerate(ws):
        if not 0 < w < 1:
            return f"weight {w} at index {idx} is not strictly between 0 and 1"
    if sum(ws) != 2:
        return f"weights must sum to exactly 2, got {sum(ws)}"
    return None


def int_condition_verdict(ws):
    """Direct double-loop evaluation of the integrality condition."""
    half = []
    fail = []
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            s = ws[i] + ws[j]
            if s >= 1:
                continue
            v = Fraction(1) / (1 - s)
            if v.denominator == 1:
                continue
            if ws[i] == ws[j] and v.denominator == 2:
                half.append(((i, j), v))
            else:
                fail.append(((i, j), v))
    if fail:
        return "FAIL", half, fail
    if half:
        return "HALF_INT", half, fail
    return "INT", half, fail


def partitions_into(indices: Sequence[int], k: int, max_sum: Fraction,
                    mu: WeightTuple) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all partitions of `indices` into exactly `k` nonempty blocks.

    Prunes any block whose running weight sum exceeds `max_sum` (block
    sums must land in the target multiset, all of whose entries are at
    most `max_sum`).
    """
    n = len(indices)
    blocks: list[list[int]] = []
    sums: list[Fraction] = []

    def recurse(pos: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == n:
            if len(blocks) == k:
                yield tuple(tuple(b) for b in blocks)
            return
        idx = indices[pos]
        w = mu[idx]
        # Place into an existing block.
        for b, block in enumerate(blocks):
            if sums[b] + w <= max_sum:
                block.append(idx)
                sums[b] += w
                yield from recurse(pos + 1)
                block.pop()
                sums[b] -= w
        # Or open a new block, if room remains.
        if len(blocks) < k and w <= max_sum:
            blocks.append([idx])
            sums.append(w)
            yield from recurse(pos + 1)
            blocks.pop()
            sums.pop()

    yield from recurse(0)


def admissible_contractions(mu: WeightTuple, nu: WeightTuple):
    """Every partition of `mu` contracting onto `nu`, in canonical block
    form: block sums equal nu as multisets, merged blocks sum below 1."""
    target = sorted(nu.weights)
    found = []
    for raw in partitions_into(range(len(mu)), len(nu), target[-1], mu):
        part = ContractionPartition(raw)
        if sorted(part.block_sums(mu)) != target:
            continue
        if any(len(b) >= 2 and sum(mu[i] for i in b) >= 1 for b in part.blocks):
            continue
        found.append(part.blocks)
    return found


# ---------------------------------------------------------------------------
# Field arithmetic, brute-force group orders and prime ranges as the
# library computed them before its table-driven kernels: field addition
# digit by digit, products of coefficient lists reduced by long division
# modulo the least monic irreducible found by trial division, the N^4
# loop over SL_2(Z/N), unitary columns tried against every vector, SL
# columns checked by a cofactor determinant at every leaf, and primes by
# trial division.  The group orders read the library's multiplication
# table, which `field_mul` and `least_irreducible` check.


def digit_add(f, a, b):
    p = f.p
    out = 0
    mult = 1
    for _ in range(f.n):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def digit_neg(f, a):
    p = f.p
    out = 0
    mult = 1
    for _ in range(f.n):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def digit_sub(f, a, b):
    return digit_add(f, a, digit_neg(f, b))


def poly_rem(p, a, divisor):
    """The remainder of the coefficient list `a` (little-endian) by the
    monic `divisor` over Z/p, of length len(divisor) - 1."""
    a = list(a) + [0] * len(divisor)
    d = len(divisor) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d + 1):
                a[i - d + j] -= c * divisor[j]
    return [x % p for x in a[:d]]


def field_mul(f, a, b, modulus):
    """a * b in Z/p[x] / (x^n + sum_i modulus[i] x^i), the base-p digits
    of a and b being their coefficients: the schoolbook product, reduced
    by long division."""
    p = f.p
    prod = [0] * (2 * f.n - 1)
    i = 0
    while a:
        a, x = divmod(a, p)
        j, c = i, b
        while c and x:
            c, y = divmod(c, p)
            prod[j] += x * y
            j += 1
        i += 1
    code = 0
    for c in reversed(poly_rem(p, prod, [*modulus, 1])):
        code = code * p + c
    return code


def least_irreducible(p, n):
    """The lower coefficients (c_0, ..., c_(n-1)) of the least monic
    irreducible polynomial of degree n over Z/p, counting c_0 + c_1 p +
    ... up: the first that no monic polynomial of degree 1 .. n // 2
    divides."""
    for code in range(p**n):
        coeffs = [code // p**i % p for i in range(n)]
        if all(any(poly_rem(p, [*coeffs, 1], [*(k // p**i % p for i in range(d)), 1]))
               for d in range(1, n // 2 + 1) for k in range(p**d)):
            return tuple(coeffs)


def field_det(f, cols):
    """Determinant over the field by cofactor expansion; m is tiny."""
    m = len(cols)
    rows = [tuple(cols[j][i] for j in range(m)) for i in range(m)]

    def expand(rs):
        k = len(rs)
        if k == 1:
            return rs[0][0]
        total = 0
        for j in range(k):
            c = rs[0][j]
            if c == 0:
                continue
            minor = [tuple(row[:j] + row[j + 1:]) for row in rs[1:]]
            term = f.mul[c][expand(minor)]
            total = digit_add(f, total, term) if j % 2 == 0 else digit_sub(f, total, term)
        return total

    return expand(rows)


def sl2_zn_count(n):
    return sum(
        1
        for a, b, c, d in product(range(n), repeat=4)
        if (a * d - b * c) % n == 1
    )


def count_sl(f, m):
    """Count m x m matrices over the field with determinant 1, building up
    columns and pruning on linear dependence."""
    vectors = list(product(range(f.size), repeat=m))
    count = 0
    chosen = []
    echelon = []

    def reduce(vec):
        v = list(vec)
        for row in echelon:
            pivot = next(i for i, x in enumerate(row) if x != 0)
            if v[pivot] != 0:
                c = v[pivot]
                v = [digit_sub(f, x, f.mul[c][y]) for x, y in zip(v, row)]
        return tuple(v)

    def normalize(vec):
        lead = next(x for x in vec if x != 0)
        inv = f.mul[lead].index(1)
        return tuple(f.mul[inv][x] for x in vec)

    def recurse():
        nonlocal count
        if len(chosen) == m:
            if field_det(f, chosen) == 1:
                count += 1
            return
        for vec in vectors:
            reduced = reduce(vec)
            if all(x == 0 for x in reduced):
                continue
            chosen.append(vec)
            echelon.append(normalize(reduced))
            recurse()
            chosen.pop()
            echelon.pop()

    recurse()
    return count


def count_unitary(f, m, q, det_one, unitriangular):
    """Count matrices preserving the antidiagonal hermitian form, trying
    every candidate column against all constraints."""
    conj = [f.pow(a, q) for a in range(f.size)]

    def herm(u, v):
        total = 0
        for k in range(m):
            total = digit_add(f, total, f.mul[conj[u[k]]][v[m - 1 - k]])
        return total

    def target(i, j):
        return 1 if i + j == m - 1 else 0

    if unitriangular:
        def candidates(t):
            free = list(product(range(f.size), repeat=t))
            return [head + (1,) + (0,) * (m - t - 1) for head in free]
    else:
        all_vectors = list(product(range(f.size), repeat=m))

        def candidates(t):
            return all_vectors

    count = 0
    chosen = []

    def recurse(t):
        nonlocal count
        if t == m:
            if not det_one or field_det(f, chosen) == 1:
                count += 1
            return
        for vec in candidates(t):
            ok = True
            for i in range(t):
                if herm(chosen[i], vec) != target(i, t):
                    ok = False
                    break
            if ok and herm(vec, vec) != target(t, t):
                ok = False
            if ok:
                chosen.append(vec)
                recurse(t + 1)
                chosen.pop()

    recurse(0)
    return count


def is_prime_trial(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def primes_trial_division(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1) if is_prime_trial(n)]


def group_order(family, m, q):
    """Order of a brute-force family by the kernels above."""
    if family == "SL2_ZN":
        return sl2_zn_count(q)
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 1
    while p**e < q:
        e += 1
    assert p**e == q
    if family == "SL":
        return count_sl(PrimePowerField(p, e), m)
    return count_unitary(PrimePowerField(p, 2 * e), m, q,
                         det_one=family == "SU", unitriangular=family == "UNITRIANGULAR_U")


def c_tower_report_json(levels) -> dict:
    """The `tower run --family C` JSON document, one object per level
    with its four fields named one by one."""
    return {
        "levels": [
            {
                "level": lv.level,
                "degree": lv.degree,
                "b1_surface": lv.b1_surface,
                "total_cusps": lv.total_cusps,
            }
            for lv in levels
        ]
    }


def csv_text(headers, rows) -> str:
    """CSV as `csv.writer` writes it on the running interpreter."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_table(headers, rows) -> str:
    """Columns padded cell by cell with `str.ljust`, two spaces apart,
    under a dash rule, each line stripped of trailing whitespace."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def tower_table(report) -> tuple[list, list]:
    """Headers and rows of the tower table, every value as it is, with
    the cusp columns in name order."""
    names = sorted(report.levels[0].cusp_multiplicities) if report.levels else []
    headers = (["level", "degree", "connected"] + names
               + ["total_cusps", "b1_bound", "fibration"])
    rows = [[j, lv.degree, lv.connected]
            + [lv.cusp_multiplicities[name] for name in names]
            + ["n/a" if lv.total_cusps is None else lv.total_cusps,
               "UNBOUNDED_BY_METHOD" if lv.b1_bound is None else lv.b1_bound,
               lv.factoring_fibration or "-"]
            for j, lv in enumerate(report.levels, start=1)]
    return headers, rows
