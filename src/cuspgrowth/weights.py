"""Exact rational arithmetic for weight tuples.

A weight tuple is an ordered list of rationals mu = (mu_1, ..., mu_k),
each strictly between 0 and 1 and summing to exactly 2, with k >= 4.
Such a tuple of length n + 3 parametrises an n-dimensional moduli
construction; the integrality test here asks, for every index pair with
mu_i + mu_j < 1, whether (1 - mu_i - mu_j)^-1 is an integer, with a
half-integral relaxation allowed at pairs of equal weights.

All arithmetic in this module is exact, with no floating point.
Fractions appear only at the API boundary: the three search kernels
(`check_int`, `enumerate_tuples`, `find_contraction`) scale a tuple to
integer numerators over a common denominator d and work on those.  A
pair then passes when gap = d - a_i - a_j is at most 0 or divides d,
and is half-integral when a_i = a_j and gap divides 2d.  Validation
runs on numerators too: a `WeightTuple` tests each weight as
0 < numerator < denominator and the sum as sum(a_i) = 2d, and
`enumerate_tuples` builds one Fraction per numerator per call and
shares it among its hits.
`find_contraction` returns the lexicographically least admissible
partition and `enumerate_tuples` skips every prefix that already holds
a failing pair; both refuse searches beyond a cap.  Every function is
pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterator, Optional, Sequence

from .errors import PRINTABLE_BITS, ResourceLimitError, ValidationError, quoted, reported

#: Refuse `enumerate_tuples` searches whose raw candidate count exceeds this.
DEFAULT_ENUMERATION_CAP = 5_000_000

#: Refuse `find_contraction` searches that visit more nodes than this.
DEFAULT_CONTRACTION_CAP = 5_000_000


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """Parse an exact rational from a 'p/q' (or integer) string.

    Only ``[+-]?digits`` and ``[+-]?digits/digits`` are accepted, so
    decimal and exponent notation (which can ask for huge integers) never
    reach `Fraction`.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ValidationError(f"cannot parse exact rational from {quoted(text)}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse exact rational from {quoted(text)}") from exc


@dataclass(frozen=True)
class WeightTuple:
    """An ordered tuple of exact rational weights.

    Invariants, enforced at construction:

    * length at least 4,
    * every weight strictly between 0 and 1,
    * the weights sum to exactly 2.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) < 4:
            raise ValidationError(
                f"weight tuple must have length >= 4, got length {len(ws)}"
            )
        for idx, w in enumerate(ws):
            if not 0 < w.numerator < w.denominator:
                raise ValidationError(
                    f"weight {w} at index {idx} is not strictly between 0 and 1"
                )
        d = lcm(*(w.denominator for w in ws))
        if sum(_numerators(ws, d)) != 2 * d:
            raise ValidationError(f"weights must sum to exactly 2, got {sum(ws)}")

    @classmethod
    def parse(cls, text: str) -> "WeightTuple":
        """Build a tuple from a comma-separated list like '2/6,2/6,3/6,4/6,1/6'."""
        parts = [p for p in text.split(",") if p.strip()]
        return cls(tuple(parse_fraction(p) for p in parts))

    def sorted(self) -> "WeightTuple":
        """Canonical form: weights in ascending order."""
        return WeightTuple(tuple(sorted(self.weights)))

    def as_strings(self) -> list[str]:
        return [str(w) for w in self.weights]

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


class IntVerdict(str, enum.Enum):
    INT = "INT"
    HALF_INT = "HALF_INT"
    FAIL = "FAIL"


@dataclass(frozen=True)
class PairWitness:
    """An index pair {i, j} together with the offending value (1 - mu_i - mu_j)^-1."""

    i: int
    j: int
    value: Fraction


@dataclass(frozen=True)
class IntStatus:
    """Result of the integrality test on a weight tuple.

    `half_witnesses` lists the pairs that needed the half-integral
    relaxation; `fail_witnesses` lists the pairs that admit no such
    excuse.  INT means both lists are empty.
    """

    verdict: IntVerdict
    half_witnesses: tuple[PairWitness, ...] = ()
    fail_witnesses: tuple[PairWitness, ...] = ()

    def __post_init__(self):
        if self.verdict is IntVerdict.INT and self.half_witnesses:
            raise ValidationError("INT verdict cannot carry half-integral witnesses")
        if self.verdict is IntVerdict.FAIL and not self.fail_witnesses:
            raise ValidationError("FAIL verdict requires at least one witness")


def _numerators(ws: Sequence[Fraction], d: int) -> list[int]:
    """The integers a_i with w_i = a_i / d; `d` must be a common denominator."""
    return [w.numerator * (d // w.denominator) for w in ws]


def _pair_verdict(a: int, b: int, d: int) -> Optional[IntVerdict]:
    """Verdict of the pair (a/d, b/d), or None when it passes or is skipped.

    With gap = d - a - b, the value (1 - a/d - b/d)^-1 is d / gap: an
    integer when gap divides d, a half-integer when gap divides 2d.
    """
    gap = d - a - b
    if gap <= 0 or d % gap == 0:
        return None
    if a == b and 2 * d % gap == 0:
        return IntVerdict.HALF_INT
    return IntVerdict.FAIL


def _int_status(nums: Sequence[int], d: int) -> IntStatus:
    """`check_int` on numerators over the common denominator `d`."""
    half: list[PairWitness] = []
    fail: list[PairWitness] = []
    for i, j in combinations(range(len(nums)), 2):
        verdict = _pair_verdict(nums[i], nums[j], d)
        if verdict is not None:
            witness = PairWitness(i, j, Fraction(d, d - nums[i] - nums[j]))
            (half if verdict is IntVerdict.HALF_INT else fail).append(witness)
    if fail:
        verdict = IntVerdict.FAIL
    elif half:
        verdict = IntVerdict.HALF_INT
    else:
        verdict = IntVerdict.INT
    return IntStatus(verdict, tuple(half), tuple(fail))


def check_int(mu: WeightTuple) -> IntStatus:
    """Classify a weight tuple as INT, HALF_INT, or FAIL.

    For every unordered pair {i, j} with mu_i + mu_j < 1 the exact value
    v = (1 - mu_i - mu_j)^-1 is evaluated.  Pairs with mu_i + mu_j >= 1
    are skipped.  Non-integral v is tolerated only when mu_i = mu_j and
    v is a half-integer; such pairs are recorded as half-integral
    witnesses.  Any other non-integral value is a failure witness.

    The test runs on integer numerators a_i over d = lcm of the
    denominators: with gap = d - a_i - a_j > 0, v = d / gap.
    """
    d = lcm(*(w.denominator for w in mu.weights))
    return _int_status(_numerators(mu.weights, d), d)


@dataclass(frozen=True)
class ContractionPartition:
    """A partition of the index set {0, ..., k-1} of a source tuple.

    Stored in canonical form: each block ascending, blocks ordered by
    their smallest element.  Indices are 0-based.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canonical = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", canonical)
        seen: set[int] = set()
        for block in canonical:
            if not block:
                raise ValidationError("partition blocks must be nonempty")
            for idx in block:
                if idx in seen:
                    raise ValidationError(f"index {idx} appears in two blocks")
                seen.add(idx)

    def indices(self) -> set[int]:
        return {i for block in self.blocks for i in block}

    def block_sums(self, mu: WeightTuple) -> tuple[Fraction, ...]:
        return tuple(sum(mu[i] for i in block) for block in self.blocks)

    def validate_for(self, mu: WeightTuple) -> None:
        """Check this partition is admissible for `mu`.

        Blocks must cover the index set of `mu` exactly, and every block
        of size >= 2 must have weight sum strictly below 1.
        """
        if self.indices() != set(range(len(mu))):
            raise ValidationError(
                f"partition covers indices {sorted(self.indices())}, "
                f"expected 0..{len(mu) - 1}"
            )
        for block in self.blocks:
            if len(block) >= 2:
                total = sum(mu[i] for i in block)
                if total >= 1:
                    raise ValidationError(
                        f"block {block} has weight sum {total}; merged blocks "
                        "must sum strictly below 1"
                    )


def contract(mu: WeightTuple, partition: ContractionPartition) -> WeightTuple:
    """Contract `mu` along `partition`: block sums, sorted ascending.

    Each merged block of size >= 2 must sum strictly below 1, otherwise
    the contraction is inadmissible and a `ValidationError` names the
    block.  The result is again a valid weight tuple (the total weight 2
    is preserved).
    """
    partition.validate_for(mu)
    return WeightTuple(tuple(sorted(partition.block_sums(mu))))


def find_contraction(
    mu: WeightTuple,
    nu: WeightTuple,
    cap: int = DEFAULT_CONTRACTION_CAP,
) -> Optional[ContractionPartition]:
    """Search for a partition of `mu` contracting onto `nu`.

    Finds a partition of mu's indices into len(nu) blocks whose multiset
    of block sums equals the multiset of nu's weights, with every merged
    block summing strictly below 1.  Returns the lexicographically least
    such partition (in canonical block order), or None if none exists.

    The search runs on integer numerators over the common denominator
    d of both tuples and builds the partition block by block.  The block
    holding the smallest unused index is grown in lexicographic
    (preorder) order and closes only when its sum is an unused target
    value; every target is below d, so merged blocks sum below d.  The
    first complete partition is therefore the lex-least one.  States
    (remaining weights, remaining targets) shown to have no completion
    are remembered as multisets, so equal weights are not searched
    twice.  Every partial block visited counts as one node; past `cap`
    nodes the search is refused with a `ResourceLimitError` whose
    `space` is the node count reached.  The search keeps its own stack,
    so long tuples do not meet Python's recursion limit.
    """
    if len(nu) > len(mu):
        raise ValidationError(
            f"target tuple is longer than the source ({len(nu)} > {len(mu)})"
        )
    d = lcm(*(w.denominator for w in (*mu.weights, *nu.weights)))
    source = _numerators(mu.weights, d)
    k = len(source)
    used = [False] * k
    nodes = 0

    def closing_blocks(first: int, targets: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
        # The blocks holding `first` whose sum is a value in `targets`,
        # with that sum, in lexicographic order.  A yielded block's
        # indices stay marked in `used` until the next block is asked for.
        nonlocal nodes
        largest = targets[-1]
        block, total = [first], source[first]
        used[first] = True
        while True:
            nodes += 1
            if nodes > cap:
                raise ResourceLimitError(
                    f"contraction search visited more than the configured cap of {cap} nodes",
                    space=nodes,
                    cap=cap,
                )
            if total in targets:
                yield tuple(block), total
            # Preorder successor: append the least fitting index after the
            # last one, or else move the last index on, backtracking.
            j = block[-1] + 1
            while True:
                j = next((i for i in range(j, k)
                          if not used[i] and total + source[i] <= largest), None)
                if j is not None:
                    break
                last = block.pop()
                used[last] = False
                if not block:
                    return
                total -= source[last]
                j = last + 1
            block.append(j)
            used[j] = True
            total += source[j]

    # One level per open subproblem: its block source and its memo state
    # (remaining weights, remaining targets).  Both sides sum to the same
    # total, so no unused index is left exactly when no target is.
    levels: list[tuple[Iterator, tuple[tuple[int, ...], tuple[int, ...]]]] = []
    blocks: list[tuple[int, ...]] = []
    infeasible: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    targets = sorted(_numerators(nu.weights, d))
    while True:
        first = next((i for i in range(k) if not used[i]), None)
        if first is None:
            return ContractionPartition(tuple(blocks))
        state = (tuple(sorted(source[i] for i in range(k) if not used[i])), tuple(targets))
        if state not in infeasible:
            levels.append((closing_blocks(first, targets), state))
        while True:
            if not levels:
                return None
            candidates, level_state = levels[-1]
            del blocks[len(levels) - 1:]
            hit = next(candidates, None)
            if hit is not None:
                break
            infeasible.add(level_state)
            levels.pop()
        block, total = hit
        blocks.append(block)
        targets = list(level_state[1])
        targets.remove(total)


def enumerate_tuples(
    length: int,
    max_denominator: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[tuple[WeightTuple, IntStatus]]:
    """All sorted weight tuples with denominators dividing `max_denominator`
    whose verdict is INT or HALF_INT.

    Tuples are emitted in ascending lexicographic order of their
    numerator vectors, deduplicated up to reordering (only the sorted
    form is generated).  Refuses to run when the raw search space
    exceeds `cap`.  A prefix holding a failing pair is skipped with its
    whole subtree, since the failure stays in every extension.
    """
    if length < 4:
        raise ValidationError(f"length must be >= 4, got {length}")
    if max_denominator < 2:
        raise ValidationError(f"max denominator must be >= 2, got {max_denominator}")
    # The raw space is the multisets of `length` of the d - 1 numerators:
    # C(n, length) = C(n, k) for n = d + length - 2 and k = min(length, d - 2),
    # at least (n // k)^k.  That bound on its bits settles a refusal before
    # a huge binomial is built.
    n, k = max_denominator + length - 2, min(length, max_denominator - 2)
    lower = k * ((n // k).bit_length() - 1) + 1 if k else 1
    space = comb(n, k) if lower <= max(cap.bit_length(), PRINTABLE_BITS) else None
    if space is None or space > cap:
        shown = reported(space, cap)
        raise ResourceLimitError(
            f"raw search space {'' if shown == space else 'of at least '}{shown} "
            f"exceeds the configured cap {cap}",
            space=shown,
            cap=cap,
        )

    d = max_denominator
    # fails[b]: bit a is set when the pair (a/d, b/d) fails.  A FAIL pair
    # stays in every extension of a prefix, so a candidate whose bit is
    # set in the prefix's mask is skipped together with its subtree.
    # Only partners with gap = d - a - b > 0 can fail.
    fails = [0] + [
        sum(1 << a for a in range(1, d - b) if _pair_verdict(a, b, d) is IntVerdict.FAIL)
        for b in range(1, d)
    ]
    fraction_of = [Fraction(a, d) for a in range(d)]
    results: list[tuple[WeightTuple, IntStatus]] = []
    numerators: list[int] = []

    def recurse(start: int, remaining: int, slots: int, forbidden: int) -> None:
        # Nondecreasing continuation: feasibility bounds for the tail sum.
        if remaining < start * slots or remaining > (d - 1) * slots:
            return
        if slots == 1:
            if not forbidden >> remaining & 1:
                nums = numerators + [remaining]
                mu = WeightTuple(tuple(fraction_of[a] for a in nums))
                results.append((mu, _int_status(nums, d)))
            return
        for a in range(start, d):
            if a * slots > remaining:
                break
            if forbidden >> a & 1:
                continue
            numerators.append(a)
            recurse(a, remaining - a, slots - 1, forbidden | fails[a])
            numerators.pop()

    recurse(1, 2 * d, length, 0)
    return results
