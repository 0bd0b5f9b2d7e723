"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion, invariant factors by gcds of minors, subgroup
orders by breadth-first closure, the integrality condition by a direct
double loop, and contractions by listing every partition into the
right number of blocks.  They are slow and only meant for small inputs.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterator, Sequence

from cuspgrowth import ContractionPartition, FiniteAbelianGroup, IntMatrix, WeightTuple


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
