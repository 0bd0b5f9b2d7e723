"""Exact primality, factoring and prime ranges.

`is_prime` is a deterministic strong-probable-prime test below the last
of `_SPRP_BOUNDS` and bounded trial division above it; `factorize` is
bounded trial division; `prime_power_base` splits q = p^e by exact
integer roots; `primes_in_range` sieves a segment under a cap.  Every
other module decides primality through this one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt, log2

from .errors import ResourceLimitError, ValidationError

#: Refuse prime ranges reaching past this: the sieve holds one byte per
#: odd integer of its range.  `d_tower_columns` and `exponent_checks`
#: sieve their range once under it, and then take about 1.5 microseconds
#: per prime: a whole `congruence exponents` process over the primes
#: 5..10^6 takes about 0.5 s, and to 10^7 about 1.5 s at a peak RSS near
#: 355 MiB, nearly all of it the per-prime series (2-vCPU VM, Python
#: 3.11).  A list given to `d_tower_series` is checked by `is_prime` and
#: has no cap.
DEFAULT_PRIME_CAP = 10**6

#: Trial division gives up past this divisor.  `factorize` refuses a
#: cofactor above its square (about 10^12) with no smaller factor, and
#: `is_prime` such an n at or above the last of `_SPRP_BOUNDS`.
MAX_TRIAL_DIVISOR = 1 << 20


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
            # The float guess and the mod-2^64 check only bound the cost;
            # x**k == r decides.  On a 4,300-digit q this loop takes 0.05 s,
            # `_iroot` for every k 0.4 s, and float-free Newton about 5 s.
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
    odd = list(compress(range(lo | 1, hi + 1, 2), _prime_flags(lo, hi)))
    return [2] + odd if lo == 2 <= hi else odd


def _prime_flags(lo: int, hi: int) -> bytearray:
    """One byte per odd integer of [lo, hi], lo >= 2, from the least
    (lo | 1) up: 1 at each prime, else 0.  Each odd prime d <= sqrt(hi)
    clears its odd multiples from max(d^2, lo) on, every d-th byte."""
    first = lo | 1
    if hi < first:
        return bytearray()
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    segment = bytearray([1]) * ((hi - first) // 2 + 1)
    for d in range(3, root + 1, 2):
        if small[d]:
            small[d * d::2 * d] = bytes(len(range(d * d, root + 1, 2 * d)))
            start = max(d * d, -(-lo // d) * d)
            if start % 2 == 0:  # the next multiple is odd
                start += d
            i = (start - first) // 2
            segment[i::d] = bytes(len(range(i, len(segment), d)))
    return segment
