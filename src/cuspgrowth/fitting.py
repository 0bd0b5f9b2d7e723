"""Log-log power-law exponent fitting, and the exponent checks of the
congruence D-tower model.

Fits are floating point over exact counts; `primes` seeds integer roots
from floats but confirms each exactly.  The fit is least squares of log
y against log x (natural logs), turning a power law y = C * x^a into
slope a and intercept log C.  `exponent_checks` sieves its prime range
once and fits over the columns of the D-tower kernel in `counts`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .counts import _d_tower_columns
from .errors import ValidationError
from .primes import DEFAULT_PRIME_CAP, primes_in_range


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 2:
            raise ValidationError("a fit needs at least 2 points")
        if self.residual < 0:
            raise ValidationError("residual cannot be negative")


def fit_exponent(pairs: Sequence[tuple[int, int]]) -> ExponentFit:
    """Least-squares slope of log y against log x.

    All inputs must be positive; the residual is the sum of squared
    log-scale errors, zero (up to rounding) on a pure power law.
    """
    if len(pairs) < 2:
        raise ValidationError(f"need at least 2 points, got {len(pairs)}")
    for x, y in pairs:
        if x <= 0 or y <= 0:
            raise ValidationError(f"points must be positive, got ({x}, {y})")
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    mx, dx = _centre(lx)
    my, dy = _centre(ly)
    slope = _slope(dx, _spread(dx), dy)
    intercept = my - slope * mx
    residual = sum((b - intercept - slope * a) ** 2 for a, b in zip(lx, ly))
    return ExponentFit(slope=slope, intercept=intercept, residual=max(residual, 0.0),
                       points_used=len(pairs))


def _centre(logs: list[float]) -> tuple[float, list[float]]:
    """The mean of `logs` and each value's deviation from it."""
    mean = sum(logs) / len(logs)
    return mean, [a - mean for a in logs]


def _spread(dx: list[float]) -> float:
    """The sum of squared deviations of a centred x column, refused at 0."""
    sxx = sum(d ** 2 for d in dx)
    if sxx == 0:
        raise ValidationError("all x values coincide; the slope is undefined")
    return sxx


def _slope(dx: list[float], sxx: float, dy: list[float]) -> float:
    """sxy / sxx over centred columns, each term (x - mx) * (y - my)."""
    return sum(map(operator.mul, dx, dy)) / sxx


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be positive and finite, got {tolerance}")


def match_verdict(slope: float, target: float, tolerance: float) -> str:
    """MATCH when the slope is within `tolerance` of the target."""
    _check_tolerance(tolerance)
    return "MATCH" if abs(slope - target) <= tolerance else "MISMATCH"


def exponent_checks(n: int, genus: int, lo: int, hi: int,
                    tolerance: Optional[float] = None,
                    cap: int = DEFAULT_PRIME_CAP) -> list[dict]:
    """Fitted growth exponents of the n-dimensional D tower over the
    primes in [lo, hi], each checked against its model target.

    One record per check, with the fitted slope, its point count, the
    target, the tolerance (per check unless `tolerance` overrides all)
    and a MATCH/MISMATCH verdict.  For n = 3 the cusps-vs-volume record
    also carries the stated vol^(2/5) rate and whether the fit diverges
    from it.  The range is sieved once by `primes_in_range`, which
    refuses an hi above `cap`; then come a range of fewer than 2 primes,
    the tolerance, and n and the genus, in that order.

    Each slope is `fit_exponent`'s on the same pairs, bit for bit, but
    every column is logged and centred once, not once per check.
    """
    primes = primes_in_range(lo, hi, cap)
    if len(primes) < 2:
        raise ValidationError(f"need at least 2 primes in [{lo}, {hi}], got {len(primes)}")
    if tolerance is not None:
        _check_tolerance(tolerance)  # before the series, which can take seconds
    columns = _d_tower_columns(n, genus, primes)
    dq, dvol, db1, dcusps, dpsl2 = (_centre([math.log(v) for v in col])[1]
                                    for col in columns)
    sqq, svol = _spread(dq), _spread(dvol)

    m = n + 1
    vol_exponent = m * m - 1
    # The modeled parabolic image has order q^(2n-1), so the cusp index
    # grows like q^(vol_exponent - (2n - 1)): q^5 for n = 2, q^10 for n = 3.
    cusp_exponent = vol_exponent - (2 * n - 1)
    checks: list[tuple[str, float, float, float]] = [
        (f"su{m}_order_vs_q", _slope(dq, sqq, dvol), float(vol_exponent),
         0.05 if n == 2 else 0.1),
        ("psl2_order_vs_q", _slope(dq, sqq, dpsl2), 3.0, 0.05),
        ("cusp_index_vs_q", _slope(dq, sqq, dcusps), float(cusp_exponent), 0.05),
        ("b1_vs_vol", _slope(dvol, svol, db1), 3.0 / vol_exponent, 0.02),
        ("cusps_vs_vol", _slope(dvol, svol, dcusps), cusp_exponent / vol_exponent, 0.02),
    ]
    out = []
    for name, slope, target, tol in checks:
        if tolerance is not None:
            tol = tolerance
        record = {
            "name": name,
            "slope": slope,
            "points": len(primes),
            "target": target,
            "tolerance": tol,
            "verdict": match_verdict(slope, target, tol),
        }
        if name == "cusps_vs_vol" and n == 3:
            # The parabolic-image model grows like vol^(2/3) here; the
            # frequently stated rate for n = 3 is vol^(2/5).  The two do
            # not agree, and the divergence is reported, never silently
            # reconciled in either direction.
            stated = 2.0 / 5.0
            stated_verdict = match_verdict(slope, stated, tol)
            record["stated_rate"] = stated
            record["stated_rate_verdict"] = (
                "MATCHES_STATED_RATE" if stated_verdict == "MATCH"
                else "DIVERGES_FROM_STATED_RATE"
            )
            record["note"] = (
                "the parabolic-image model computes cusp growth ~ vol^(2/3) "
                "for n = 3, which diverges from the stated vol^(2/5) rate; "
                "the computed exponent is reported and the difference flagged"
            )
        out.append(record)
    return out
