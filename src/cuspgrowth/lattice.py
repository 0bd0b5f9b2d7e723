"""Exact integer-matrix algebra: Smith normal form, cokernels, finite
abelian groups, and indices of subgroup images.

Everything here is arbitrary-precision (plain Python ints) and pure;
values are immutable and safe to share between threads.  Degenerate
matrix shapes (zero rows or zero columns) are permitted so that empty
generating sets and homomorphisms to the trivial group have honest
representations.

One elimination, `_smith_eliminate`, works in place on plain lists of
rows, for `smith_normal_form` and `cokernel`.  An index needs none:
`_index` folds the factors' congruences one by one into the relation
lattice of the generators, kept modulo the exponent (Cohen, GTM 138,
section 2.4), in O(r c min(r, c)) for r factors and c generators.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .values import Value


class IntMatrix(Value):
    """An immutable integer matrix, row-major.

    `cols` is stored explicitly so zero-row matrices keep their width.
    The columns, and the least and greatest entry of each row, are
    computed once, on first use; they are not fields, so they enter
    neither `==`, `hash` nor `repr`.
    """

    __slots__ = ("entries", "cols", "__dict__")

    def __init__(self, entries: tuple[tuple[int, ...], ...], cols: int):
        if cols < 0:
            raise ValidationError("column count cannot be negative")
        normalized = []
        for r, row in enumerate(entries):
            row = tuple(row)
            if len(row) != cols:
                raise ValidationError(f"row {r} has {len(row)} entries, expected {cols}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValidationError(f"matrix entries must be ints, got {v!r}")
            normalized.append(row)
        object.__setattr__(self, "entries", tuple(normalized))
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValidationError("cannot infer width of a matrix with no rows")
            cols = len(rows[0])
        return cls(tuple(rows), cols)

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[int]], rows: Optional[int] = None) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValidationError("cannot infer height of a matrix with no columns")
            rows = len(columns[0])
        for c in columns:
            if len(c) != rows:
                raise ValidationError("columns have inconsistent heights")
        return cls(tuple(tuple(c[i] for c in columns) for i in range(rows)), len(columns))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.entries)) if self.entries else ((),) * self.cols

    @cached_property
    def _row_bounds(self) -> tuple[tuple[int, int], ...]:
        """(min, max) of each row, (0, 0) for an empty row."""
        return tuple((min(row, default=0), max(row, default=0)) for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(self._columns)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError(f"cannot multiply {self.shape} by {other.shape}")
        return IntMatrix.from_rows(_product_rows(self.entries, other._columns), other.cols)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValidationError(f"determinant needs a square matrix, got {self.shape}")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class SmithDecomposition(Value):
    """U @ A @ V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _smith_eliminate(m: list[list[int]], nrows: int, ncols: int) -> None:
    """Bring the top-left `nrows` x `ncols` block of `m` to Smith normal
    form, in place.

    Operations combine only rows, and only columns, of the block, but
    act on whole rows and whole columns of `m`.  So entries right of the
    block record the row operations and entries below it the column
    operations: [[A, I_r], [I_c]] becomes [[D, U], [V]] with U A V = D
    (rows below the block need only `ncols` entries).  Internal callers
    pass the bare block and take no transforms.

    Pivot selection: the nonzero entry of least absolute value in the
    active block, ties broken by lowest (row, col); this makes the
    output deterministic for a fixed input.  Diagonal entries come out
    nonnegative, each dividing the next, zeros trailing.
    """
    for s in range(min(nrows, ncols)):
        while True:
            pivot = None
            least = 0
            for i in range(s, nrows):
                row = m[i]
                for j in range(s, ncols):
                    x = abs(row[j])
                    if x and (pivot is None or x < least):
                        pivot, least = (i, j), x
            if pivot is None:
                return
            pi, pj = pivot
            if pi != s:
                m[s], m[pi] = m[pi], m[s]
            if pj != s:
                for row in m:
                    row[s], row[pj] = row[pj], row[s]
            if m[s][s] < 0:
                m[s] = [-x for x in m[s]]
            top = m[s]
            p = top[s]
            for i in range(s + 1, nrows):
                if m[i][s]:
                    t = m[i][s] // p
                    m[i] = [x - t * y for x, y in zip(m[i], top)]
            for j in range(s + 1, ncols):
                if top[j]:
                    t = top[j] // p
                    for row in m:
                        row[j] -= t * row[s]
            if any(m[i][s] for i in range(s + 1, nrows)) or any(top[s + 1:ncols]):
                continue
            # Row and column are clear; enforce divisibility of the rest.
            offender = next(
                (i for i in range(s + 1, nrows)
                 if any(x % p for x in m[i][s + 1:ncols])),
                None,
            )
            if offender is None:
                break
            m[s] = [x + y for x, y in zip(top, m[offender])]


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Runs `_smith_eliminate` on [[A, I_r], [I_c]] and slices U, D and V
    out of the result.
    """
    nrows, ncols = a.shape
    m = [list(row) + [int(i == j) for j in range(nrows)] for i, row in enumerate(a.entries)]
    m += [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    _smith_eliminate(m, nrows, ncols)
    return SmithDecomposition(
        u=IntMatrix.from_rows([row[ncols:] for row in m[:nrows]], nrows),
        d=IntMatrix.from_rows([row[:ncols] for row in m[:nrows]], ncols),
        v=IntMatrix.from_rows(m[nrows:], ncols),
    )


def _product_rows(rows: Iterable[Sequence[int]],
                  cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of `rows` @ B, as plain lists, for B given by its columns."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _index(factors: Sequence[int], image_rows: Iterable[Sequence[int]]) -> int:
    """Index in G = (+) Z/d_i, d_1 | ... | d_r, of the subgroup that the
    c columns g_j of `image_rows` (one row per factor) span.

    That is |G| / [Z^c : L] for L = {x : sum_j x_j g_j = 0 in G}, cut
    from Z^c by one congruence per factor.  Each fold is a Euclid pass
    leaving one generator of L with value v mod d_i and the rest with 0;
    it multiplies the index by g = gcd(d_i, v) and that generator by
    d_i / g.  e Z^c lies in L for e = d_r, so entries are kept mod e.
    For c >= r a generator x is held as its image sum_j x_j g_j, whose
    value is coordinate i, not row i dotted with x: O(r c min(r, c)).
    """
    rows = list(image_rows)
    c = len(rows[0]) if rows else 0
    if c < len(factors):
        gens = [[int(j == k) for j in range(c)] for k in range(c)]
        reads = [lambda x, row=row: sum(map(mul, row, x)) for row in rows]
    else:
        gens = [list(col) for col in zip(*rows)]
        reads = [itemgetter(i) for i in range(len(factors))]
    e = factors[-1] if factors else 1
    index = 1
    for d, read in zip(factors, reads):
        kept, pivot, p = [], None, 0
        for x in gens:
            v = read(x) % d
            if not v:
                kept.append(x)
            elif pivot is None:
                pivot, p = x, v
            elif v % p == 0:
                kept.append([(b - v // p * a) % e for a, b in zip(pivot, x)])
            else:
                # s p + t v = g = gcd(p, v): the unimodular pair
                # (s x_p + t x, (v/g) x_p - (p/g) x) has values (g, 0).
                g = gcd(p, v)
                s = pow(p // g, -1, v // g)
                t = (g - s * p) // v
                kept.append([(v // g * a - p // g * b) % e for a, b in zip(pivot, x)])
                pivot, p = [(s * a + t * b) % e for a, b in zip(pivot, x)], g
        g = gcd(d, p)
        index *= g
        if pivot is not None:
            kept.append([d // g * a % e for a in pivot])
        gens = [x for x in kept if any(x)]
    return index


def _kills(factors: Sequence[int], image_rows: Iterable[Sequence[int]]) -> bool:
    """True iff every column of `image_rows` is 0 in (+) Z/d_i."""
    return all(x % d == 0 for row, d in zip(image_rows, factors) for x in row)


class FiniteAbelianGroup(Value):
    """A finite abelian group given by its invariant factors.

    Canonical form: factors equal to 1 are dropped, the remaining ones
    satisfy d_1 | d_2 | ... and are all >= 2; the trivial group is the
    empty list.  A zero factor would make the quotient infinite and is
    rejected here: deck groups must be finite.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        factors = invariant_factors
        if (type(factors) is tuple and len(factors) == 1 and type(factors[0]) is int
                and factors[0] > 1):
            object.__setattr__(self, "invariant_factors", factors)
            return  # one factor above 1 is already canonical
        kept = []
        for d in factors:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValidationError(f"invariant factors must be ints, got {d!r}")
            if d == 0:
                raise ValidationError(
                    "zero invariant factor means an infinite quotient; "
                    "deck groups must be finite"
                )
            if d < 0:
                raise ValidationError(f"invariant factors must be positive, got {d}")
            if d > 1:
                kept.append(d)
        for a, b in zip(kept, kept[1:]):
            if b % a != 0:
                raise ValidationError(
                    f"invariant factors must form a divisor chain; {a} does not divide {b}"
                )
        object.__setattr__(self, "invariant_factors", tuple(kept))

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


class AbelianHom(Value):
    """A homomorphism Z^k -> G for a finite abelian group G.

    `images` has one row per invariant factor of the target and one
    column per standard generator of Z^k; entry (i, j) is the i-th
    coordinate of the image of e_j, reduced modulo d_i at construction
    (the given matrix is kept when it is already reduced).
    """

    __slots__ = ("target", "images")

    def __init__(self, target: FiniteAbelianGroup, images: IntMatrix):
        if images.rows != target.rank:
            raise ValidationError(
                f"images matrix has {images.rows} rows but the target "
                f"has {target.rank} invariant factors"
            )
        factors = target.invariant_factors
        if any(lo < 0 or hi >= d for (lo, hi), d in zip(images._row_bounds, factors)):
            images = IntMatrix(tuple(tuple(x % d for x in row)
                                     for row, d in zip(images.entries, factors)),
                               images.cols)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    @property
    def source_rank(self) -> int:
        return self.images.cols


def cokernel(target: FiniteAbelianGroup, generators: IntMatrix) -> FiniteAbelianGroup:
    """Quotient of `target` by the subgroup its `generators` columns span.

    `generators` must have one row per invariant factor of `target`;
    each column is a subgroup generator written in the target's
    coordinates.  Computed as the cokernel of the block matrix
    [diag(d_i) | generators] via Smith normal form.
    """
    if generators.rows != target.rank:
        raise ValidationError(
            f"generator matrix has {generators.rows} rows but the target "
            f"has {target.rank} invariant factors"
        )
    s = target.rank
    m = [[d if j == i else 0 for j in range(s)] + list(row)
         for i, (d, row) in enumerate(zip(target.invariant_factors, generators.entries))]
    _smith_eliminate(m, s, s + generators.cols)
    return FiniteAbelianGroup(tuple(m[i][i] for i in range(s)))


def _image_rows(rho: AbelianHom, sublattice: IntMatrix) -> list[list[int]]:
    """The images of the sublattice's generator columns, in the target's
    coordinates (unreduced): the rows of rho.images @ sublattice."""
    if sublattice.rows != rho.source_rank:
        raise ValidationError(
            f"sublattice has {sublattice.rows} rows but the homomorphism "
            f"expects {rho.source_rank}"
        )
    return _product_rows(rho.images.entries, sublattice._columns)


def image_index(rho: AbelianHom, sublattice: IntMatrix) -> int:
    """Index [G : rho(L)] of the image of a sublattice L of Z^k.

    `sublattice` has k rows; its columns generate L.  Equals |G| when
    the image is trivial, and 1 when the restriction is surjective.
    """
    return _index(rho.target.invariant_factors, _image_rows(rho, sublattice))


def is_surjective(rho: AbelianHom) -> bool:
    """True iff the homomorphism maps Z^k onto its target."""
    return _index(rho.target.invariant_factors, rho.images.entries) == 1


def kernel_contains(rho: AbelianHom, sublattice: IntMatrix) -> bool:
    """True iff every generator column of the sublattice maps to 0."""
    return _kills(rho.target.invariant_factors, _image_rows(rho, sublattice))
