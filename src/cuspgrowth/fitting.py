"""Log-log power-law exponent fitting, and the exponent checks of the
congruence D-tower model.

This is the only module that touches floating point; everything
upstream is exact.  The fit is ordinary least squares of log y against
log x (natural logs), which turns a power law y = C * x^a into slope a
and intercept log C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .counts import d_tower_rows
from .errors import ValidationError


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
    n = len(pairs)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValidationError("all x values coincide; the slope is undefined")
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = sum((b - intercept - slope * a) ** 2 for a, b in zip(lx, ly))
    return ExponentFit(slope=slope, intercept=intercept, residual=max(residual, 0.0),
                       points_used=n)


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be positive and finite, got {tolerance}")


def match_verdict(slope: float, target: float, tolerance: float) -> str:
    """MATCH when the slope is within `tolerance` of the target."""
    _check_tolerance(tolerance)
    return "MATCH" if abs(slope - target) <= tolerance else "MISMATCH"


def exponent_checks(n: int, genus: int, primes: Sequence[int],
                    tolerance: Optional[float] = None) -> list[dict]:
    """Fitted growth exponents of the n-dimensional D tower over `primes`,
    each checked against its model target.

    One record per check, with the fitted slope, its point count, the
    target, the tolerance (per check unless `tolerance` overrides all)
    and a MATCH/MISMATCH verdict.  For n = 3 the cusps-vs-volume record
    also carries the stated vol^(2/5) rate and whether the fit diverges
    from it.
    """
    if tolerance is not None:
        _check_tolerance(tolerance)  # before the series, which can take seconds
    rows = d_tower_rows(n, genus, primes)
    series = [d for d, _ in rows]
    vol_vs_q = [(d.q, d.vol_proxy) for d in series]
    psl2_vs_q = [(d.q, psl2) for d, psl2 in rows]
    cusp_vs_q = [(d.q, d.cusp_proxy) for d in series]
    b1_vs_vol = [(d.vol_proxy, d.b1_proxy) for d in series]
    cusp_vs_vol = [(d.vol_proxy, d.cusp_proxy) for d in series]

    m = n + 1
    vol_exponent = m * m - 1
    # The modeled parabolic image has order q^(2n-1), so the cusp index
    # grows like q^(vol_exponent - (2n - 1)): q^5 for n = 2, q^10 for n = 3.
    cusp_exponent = vol_exponent - (2 * n - 1)
    checks: list[tuple[str, list, float, float]] = [
        (f"su{m}_order_vs_q", vol_vs_q, float(vol_exponent), 0.05 if n == 2 else 0.1),
        ("psl2_order_vs_q", psl2_vs_q, 3.0, 0.05),
        ("cusp_index_vs_q", cusp_vs_q, float(cusp_exponent), 0.05),
        ("b1_vs_vol", b1_vs_vol, 3.0 / vol_exponent, 0.02),
        ("cusps_vs_vol", cusp_vs_vol, cusp_exponent / vol_exponent, 0.02),
    ]
    out = []
    for name, pairs, target, tol in checks:
        if tolerance is not None:
            tol = tolerance
        fit = fit_exponent(pairs)
        record = {
            "name": name,
            "slope": fit.slope,
            "points": fit.points_used,
            "target": target,
            "tolerance": tol,
            "verdict": match_verdict(fit.slope, target, tol),
        }
        if name == "cusps_vs_vol" and n == 3:
            # The parabolic-image model grows like vol^(2/3) here; the
            # frequently stated rate for n = 3 is vol^(2/5).  The two do
            # not agree, and the divergence is reported, never silently
            # reconciled in either direction.
            stated = 2.0 / 5.0
            stated_verdict = match_verdict(fit.slope, stated, tol)
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
