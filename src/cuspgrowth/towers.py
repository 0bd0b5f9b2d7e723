"""Abelian covering towers of a cusped surface: degrees, connectivity,
cusp multiplicities, and first-betti-number bounds.

The model: the base has fundamental group abelianizing onto Z^k; each
boundary (cusp) curve contributes a sublattice of Z^k, and a finite
abelian cover is an `AbelianHom` from Z^k onto a deck group.  For an
abelian deck group the number of cusps over a boundary curve equals the
index of the image of its sublattice, so all counting happens in exact
integer arithmetic.  A fibration over a curve with finitely generated
fiber group caps b1 of every cover whose homomorphism kills the
fibration's kernel sublattice.

A tower costs one integer product per distinct images matrix: the
images times every cusp and kernel generator of the base, stacked once
per base, computed once per tower however many levels share it (every
level of an A or B tower does).  The analysis reads each level as a
pair (invariant factors, images rows) and nothing else, so
`a_tower_report` and `b_tower_report` feed it the moduli p, ..., p^depth
with their family's one images row and build no deck homomorphism; a
`TowerSpec` of those levels is built only by `build_a_tower` and
`build_b_tower`.  A cyclic level Z/d then reads only gcds kept with
that product: the gcd g of each cusp's slice, of the images row and of
each kernel's slice.  The cusp's index is gcd(d, g), the cover is
connected iff gcd(d, g) == 1 for the images row, and a kernel dies iff
d divides its g.  Levels with two or more invariant factors, or none,
take the indices and kernel tests of the cached product's slices from
`_index` and `_kills` instead.  `_index` folds one congruence per
factor into the relation lattice of a slice's columns, at most the base
rank of them, so a level costs time linear in its rows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, prod
from operator import mul
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import ResourceLimitError, ValidationError, quoted, reported
from .lattice import (
    AbelianHom,
    FiniteAbelianGroup,
    IntMatrix,
    _index,
    _kills,
    _product_rows,
    smith_normal_form,
)
from .primes import is_prime
from .values import Value


class CuspData(Value):
    """A boundary curve: its name and the sublattice of Z^k generated by
    the images of its fundamental group (columns = generators)."""

    __slots__ = ("name", "sublattice")

    def __init__(self, name: str, sublattice: IntMatrix):
        if smith_normal_form(sublattice).rank != sublattice.cols:
            raise ValidationError(
                f"cusp {quoted(name)}: sublattice generators are linearly dependent"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sublattice", sublattice)


class FibrationData(Value):
    """A fibration of the base over a curve group of free rank `target_rank`,
    with fiber a genus `fiber_genus` surface with `fiber_punctures` punctures.

    `kernel_sublattice` generates the part of Z^k killed by the induced
    map; covers whose homomorphism also kills it inherit the fibration.
    """

    __slots__ = ("name", "kernel_sublattice", "target_rank", "fiber_genus", "fiber_punctures")

    def __init__(self, name: str, kernel_sublattice: IntMatrix, target_rank: int,
                 fiber_genus: int, fiber_punctures: int):
        if target_rank < 1:
            raise ValidationError(f"fibration {quoted(name)}: target rank must be >= 1")
        if fiber_genus < 0 or fiber_punctures < 0:
            raise ValidationError(
                f"fibration {quoted(name)}: genus and puncture count must be >= 0"
            )
        if 2 * fiber_genus + fiber_punctures - 1 < 1:
            raise ValidationError(
                f"fibration {quoted(name)}: fiber must be hyperbolic or parabolic "
                "(2g + b - 1 >= 1)"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kernel_sublattice", kernel_sublattice)
        object.__setattr__(self, "target_rank", target_rank)
        object.__setattr__(self, "fiber_genus", fiber_genus)
        object.__setattr__(self, "fiber_punctures", fiber_punctures)


class BaseSpace(Value):
    """The covering-space bookkeeping of a cusped base: ambient rank k,
    cusp sublattices, and available fibrations."""

    __slots__ = ("ambient_rank", "cusps", "fibrations", "__dict__")

    def __init__(self, ambient_rank: int, cusps: tuple[CuspData, ...],
                 fibrations: tuple[FibrationData, ...] = ()):
        names = [c.name for c in cusps] + [f.name for f in fibrations]
        if len(set(names)) != len(names):
            raise ValidationError("cusp and fibration names must be distinct")
        for c in cusps:
            if c.sublattice.rows != ambient_rank:
                raise ValidationError(
                    f"cusp {quoted(c.name)} sublattice has {c.sublattice.rows} rows, "
                    f"expected {ambient_rank}"
                )
        for f in fibrations:
            if f.kernel_sublattice.rows != ambient_rank:
                raise ValidationError(
                    f"fibration {quoted(f.name)} kernel has {f.kernel_sublattice.rows} rows, "
                    f"expected {ambient_rank}"
                )
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "cusps", cusps)
        object.__setattr__(self, "fibrations", fibrations)

    @cached_property
    def _generators(self) -> tuple[tuple[tuple[int, ...], ...], list[slice], list[slice]]:
        """The generator columns of every cusp sublattice, then of every
        fibration kernel, side by side; and the slice of them that each
        cusp and each fibration owns."""
        lattices = [c.sublattice for c in self.cusps]
        lattices += [f.kernel_sublattice for f in self.fibrations]
        columns: list[tuple[int, ...]] = []
        spans = []
        for lattice in lattices:
            spans.append(slice(len(columns), len(columns) + lattice.cols))
            columns += lattice.columns()
        n = len(self.cusps)
        return tuple(columns), spans[:n], spans[n:]


def _hirzebruch() -> BaseSpace:
    # Blown-up abelian surface minus four elliptic curves; H_1 = Z^4 with
    # generators v1, v2 (first factor) and v3, v4 (second factor).
    e = IntMatrix.identity(4).columns()
    col = IntMatrix.from_columns
    return BaseSpace(
        ambient_rank=4,
        cusps=(
            CuspData("C0", col([e[0], e[1]])),
            CuspData("Cinf", col([e[2], e[3]])),
            CuspData("C1", col([(1, 0, 1, 0), (0, 1, 0, 1)])),
            CuspData("Czeta", col([(1, 0, 0, 1), (0, 1, -1, 1)])),
        ),
        fibrations=(
            # Projection to the first elliptic-curve factor: fiber is a
            # thrice-punctured elliptic curve.
            FibrationData(
                "proj1",
                col([e[2], e[3]]),
                target_rank=2,
                fiber_genus=1,
                fiber_punctures=3,
            ),
            # Coordinate-sum map (z, w) -> z + w: fiber is an elliptic
            # curve punctured at its four boundary intersections.
            FibrationData(
                "sum",
                col([(1, 0, -1, 0), (0, 1, 0, -1)]),
                target_rank=2,
                fiber_genus=1,
                fiber_punctures=4,
            ),
        ),
    )


#: Built-in base: Hirzebruch's cusped ball quotient (four boundary curves).
HIRZEBRUCH = _hirzebruch()


#: Default cap on the bit length of a deck-group order: of the top level
#: Z/p^depth of an A or B tower, and of every level of an analyzed spec.
DEFAULT_DECK_BITS_CAP = 10_000

#: Default cap on the depth of a family C tower.
DEFAULT_C_DEPTH_CAP = 100_000


class TowerSpec(Value):
    """A base space together with one deck homomorphism per level."""

    __slots__ = ("base", "levels")

    def __init__(self, base: BaseSpace, levels: tuple[AbelianHom, ...]):
        for idx, rho in enumerate(levels):
            if rho.source_rank != base.ambient_rank:
                raise ValidationError(
                    f"level {idx}: homomorphism expects rank {rho.source_rank}, "
                    f"base has rank {base.ambient_rank}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "levels", levels)


class LevelReport(Value):
    """Per-level covering data.

    `total_cusps` is None for disconnected covers (the count is only
    defined per connected component there).  `b1_bound` is None when no
    declared fibration factors through the level's homomorphism; the
    method then gives no bound.
    """

    __slots__ = ("degree", "connected", "cusp_multiplicities", "total_cusps", "b1_bound",
                 "factoring_fibration")

    def __init__(self, degree: int, connected: bool, cusp_multiplicities: dict[str, int],
                 total_cusps: Optional[int], b1_bound: Optional[int],
                 factoring_fibration: Optional[str]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "cusp_multiplicities", cusp_multiplicities)
        object.__setattr__(self, "total_cusps", total_cusps)
        object.__setattr__(self, "b1_bound", b1_bound)
        object.__setattr__(self, "factoring_fibration", factoring_fibration)


class TowerReport(Value):
    __slots__ = ("levels",)

    def __init__(self, levels: tuple[LevelReport, ...]):
        object.__setattr__(self, "levels", levels)


def b1_bound_for(fib: FibrationData) -> int:
    """Upper bound on b1 of any cover inheriting this fibration.

    The fiber group is generated by 2g + b - 1 elements when the fiber
    is punctured (b >= 1) and by 2g when it is closed; the bound adds
    the free rank of the fibration target.
    """
    g, b = fib.fiber_genus, fib.fiber_punctures
    fiber_generators = 2 * g + b - 1 if b >= 1 else 2 * g
    return fiber_generators + fib.target_rank


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
    return _analyze(base, ((rho.target.invariant_factors, rho.images.entries),))[0]


def analyze_tower(spec: TowerSpec) -> TowerReport:
    return TowerReport(tuple(_analyze(
        spec.base, ((rho.target.invariant_factors, rho.images.entries) for rho in spec.levels))))


def _analyze(base: BaseSpace,
             levels: Iterable[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]
             ) -> list[LevelReport]:
    """`analyze_level` of each level, given as the pair (invariant
    factors, images rows) of its homomorphism: the canonical factors of
    the deck group and one images row per factor, each as long as the
    base rank.  One product per distinct images matrix (see the module
    docstring)."""
    columns, cusp_spans, fibration_spans = base._generators
    names = [cusp.name for cusp in base.cusps]
    bounds = [(b1_bound_for(fib), fib.name) for fib in base.fibrations]
    # Keyed by the images matrix, which has one row per invariant factor:
    # for a cyclic level the gcds of its product, else the product rows.
    cache: dict[tuple[tuple[int, ...], ...], Any] = {}
    reports = []
    for factors, rows in levels:
        images = cache.get(rows)
        if images is None:
            images = _product_rows(rows, columns)
            if len(rows) == 1:
                (row,) = images
                images = (gcd(*rows[0]),
                          [gcd(*row[span]) for span in cusp_spans],
                          [gcd(*row[span]) for span in fibration_spans])
            cache[rows] = images
        if len(factors) == 1:
            (d,) = factors
            degree = d
            g_images, g_cusps, g_kernels = images
            connected = gcd(d, g_images) == 1
            indices = [gcd(d, g) for g in g_cusps]
            killed = next((i for i, g in enumerate(g_kernels) if g % d == 0), None)
        else:
            degree = prod(factors)
            connected = _index(factors, rows) == 1
            indices = [_index(factors, [row[span] for row in images])
                       for span in cusp_spans]
            killed = next((i for i, span in enumerate(fibration_spans)
                           if _kills(factors, [row[span] for row in images])), None)
        bound, via = (None, None) if killed is None else bounds[killed]
        reports.append(LevelReport(degree, connected, dict(zip(names, indices)),
                                   sum(indices) if connected else None, bound, via))
    return reports


#: The images row of each built-in prime-power family: A sends v1 to a
#: deck-group generator and v2, v3, v4 to 0, B sends every v_i to it.
_A_IMAGES = (1, 0, 0, 0)
_B_IMAGES = (1, 1, 1, 1)


def build_a_tower(p: int, depth: int, cap: int = DEFAULT_DECK_BITS_CAP) -> TowerSpec:
    """The tower sending v1 to a deck-group generator and v2, v3, v4 to 0,
    with deck groups Z/p^j for j = 1..depth.

    The images are compatible with the reduction maps Z/p^(j+1) -> Z/p^j,
    so consecutive levels form a tower of covers.  Refused when p^depth
    has more than `cap` bits.
    """
    return _cyclic_spec(_prime_powers(p, depth, cap), _A_IMAGES)


def build_b_tower(p: int, depth: int, cap: int = DEFAULT_DECK_BITS_CAP) -> TowerSpec:
    """The tower sending every v_i to the same deck-group generator,
    with deck groups Z/p^j for j = 1..depth.

    Requires p odd: modulo 2 the diagonal boundary curve maps into the
    proper subgroup generated by 2, its cusp splits, and the constant
    cusp count 4 is lost.  Refused when p^depth has more than `cap` bits.
    """
    return _cyclic_spec(_odd_prime_powers(p, depth, cap), _B_IMAGES)


def a_tower_report(p: int, depth: int, cap: int = DEFAULT_DECK_BITS_CAP) -> TowerReport:
    """`analyze_tower(build_a_tower(p, depth, cap))`, from the moduli
    alone: the same checks, refusals and report."""
    return _cyclic_report(_prime_powers(p, depth, cap), _A_IMAGES)


def b_tower_report(p: int, depth: int, cap: int = DEFAULT_DECK_BITS_CAP) -> TowerReport:
    """`analyze_tower(build_b_tower(p, depth, cap))`, from the moduli
    alone: the same checks, refusals and report."""
    return _cyclic_report(_odd_prime_powers(p, depth, cap), _B_IMAGES)


def _cyclic_spec(moduli: Iterable[int], images: tuple[int, ...]) -> TowerSpec:
    """The levels Z/m, one per modulus, over `HIRZEBRUCH`, each sending
    v_i to images[i] times a generator."""
    row = IntMatrix.from_rows([images])
    return TowerSpec(HIRZEBRUCH, tuple(AbelianHom(FiniteAbelianGroup((m,)), row)
                                       for m in moduli))


def _cyclic_report(moduli: Iterable[int], images: tuple[int, ...]) -> TowerReport:
    """`analyze_tower(_cyclic_spec(moduli, images))`, built from the
    (factors, rows) pairs of its levels."""
    rows = (images,)
    return TowerReport(tuple(_analyze(HIRZEBRUCH, (((m,), rows) for m in moduli))))


def _odd_prime_powers(p: int, depth: int, cap: int) -> Iterator[int]:
    """`_prime_powers` for the B tower, which refuses p = 2 first."""
    if p == 2:
        raise ValidationError(
            "the B tower requires an odd prime: for p = 2 the diagonal "
            "boundary curve C1 no longer surjects onto the deck group and "
            "its cusp splits (total becomes 5, not 4)"
        )
    return _prime_powers(p, depth, cap)


def _prime_powers(p: int, depth: int, cap: int) -> Iterator[int]:
    """The moduli p, p^2, ..., p^depth of a prime-power tower, each the
    previous one times p, after checking p, depth and cap.

    p, depth and cap must be ints (bool refused), and cap positive; cap
    is checked first.  The top order p^depth has at least
    depth * (b - 1) + 1 bits, for b the bit length of p.  When
    that bound is already above `cap`, the refusal reports it as
    `errors.reported` does, and p^depth is never computed.  The size
    check comes before the primality test, so that a huge p is refused
    by its size rather than by trial division; depth >= 1 is checked
    last.
    """
    _require_cap(cap)
    _require_int("p", p)
    _require_int("depth", depth)
    if p >= 2 and depth >= 1:
        bits = depth * (p.bit_length() - 1) + 1
        if bits <= cap:
            bits = (p**depth).bit_length()
        if bits > cap:
            bits = reported(bits, cap)
            raise ResourceLimitError(
                f"the top deck group Z/{p}^{depth} has an order of at least {bits} "
                f"bits, above the cap of {cap} bits",
                bits,
                cap,
            )
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    return accumulate(repeat(p, depth), mul)


def _require_int(what: str, value: Any) -> None:
    """Refuse a `value` that is not an int, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an int, got {type(value).__name__}")


def _require_cap(cap: Any) -> None:
    """Refuse a resource cap that is not a positive int, as the CLI does."""
    _require_int("cap", cap)
    if cap < 1:
        raise ValidationError("resource caps must be positive")


class CTowerLevel(Value):
    """One level of a cyclic-cover tower over a compact genus-g surface."""

    __slots__ = ("level", "degree", "b1_surface", "total_cusps")

    def __init__(self, level: int, degree: int, b1_surface: int, total_cusps: int):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "b1_surface", b1_surface)
        object.__setattr__(self, "total_cusps", total_cusps)


def c_tower_report(
    genus: int, cusp_divisors: Sequence[int], depth: int, cap: int = DEFAULT_C_DEPTH_CAP
) -> list[CTowerLevel]:
    """Cyclic covers of a compact genus-g base curve, g >= 2, pulled back
    to a cusped total space.

    Each cusp is modeled by the divisor d >= 0 such that its parabolic
    image in Z is d*Z (d = 0 for trivial image).  Level j is the degree-j
    cyclic cover: b1 of the surface is 2 + j*(2g - 2) by multiplicativity
    of the Euler characteristic, and the cusp over divisor d splits into
    gcd(d, j) cusps, with gcd(0, j) = j.  Refused past `cap` levels; `cap`
    must be a positive int.
    """
    _require_cap(cap)
    _require_int("genus", genus)
    _require_int("depth", depth)
    divisors = list(cusp_divisors)
    for d in divisors:
        _require_int("a cusp divisor", d)
    if depth > cap:
        raise ResourceLimitError(
            f"family C depth {depth} is above the cap of {cap} levels", depth, cap
        )
    if genus < 2:
        raise ValidationError(
            f"base curve must be a compact surface of genus >= 2, got genus {genus}"
        )
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    if any(d < 0 for d in divisors):
        raise ValidationError("cusp divisors must be nonnegative")
    report = []
    for j in range(1, depth + 1):
        report.append(
            CTowerLevel(
                level=j,
                degree=j,
                b1_surface=2 + j * (2 * genus - 2),
                total_cusps=sum(gcd(d, j) for d in divisors),
            )
        )
    return report
