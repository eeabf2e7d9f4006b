"""Order statistics and the regression verdict used by the benchmark.

Kept free of any ``repro`` import so the ledger tools (``--compare``) and the
unit tests run without the system under test on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return result


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0-100) as the Harrell-Davis estimate: a
    weighted mean of all order statistics, the weights a Beta density centred
    on the percentile's rank.  ``None`` for an empty sample.

    A replayed trace is a fixed population of a few dozen requests of very
    different cost, so the usual two-neighbour interpolation jumps whenever
    two requests near the rank swap places — on 12 rounds of one plan it
    spread ``first_page_ms_p90`` by 12 %, this estimate by 3.5 %."""
    if not values:
        return None
    ordered = sorted(values)
    count = len(ordered)
    if count == 1 or q <= 0.0 or q >= 100.0:
        return ordered[0 if q <= 0.0 or count == 1 else -1]
    a = (count + 1) * q / 100.0
    b = (count + 1) * (1.0 - q / 100.0)
    total = 0.0
    below = 0.0
    for index, value in enumerate(ordered):
        upto = beta_cdf(a, b, (index + 1) / count)
        total += (upto - below) * value
        below = upto
    return total


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (the contract's spread rule); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: Sequence[Optional[float]]) -> Optional[Dict[str, float]]:
    """Median, quartiles, extremes and sample count of one metric's rounds;
    ``None`` when no round defined the metric."""
    present: List[float] = [value for value in values if value is not None]
    if not present:
        return None
    q1, median, q3 = quartiles(present)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(present),
        "max": max(present),
        "n": len(present),
    }


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median (absolute distance
    when the median is 0, where a share is undefined)."""
    width = summary["q3"] - summary["q1"]
    return width / abs(summary["median"]) if summary["median"] else width


def verdict(
    base: Optional[Dict[str, float]],
    new: Optional[Dict[str, float]],
    bound: float,
    better: str,
    absolute: bool = False,
) -> Tuple[str, Optional[float]]:
    """``(verdict, worsening)`` of ``new`` against ``base`` for one metric.

    ``worsening`` is the share of the base median by which the new median is
    worse (positive = worse; an absolute difference when ``absolute`` or the
    base is 0).  Following the choosing-metrics rule: ``ok`` when it stays
    within ``bound``; otherwise ``regressed`` — except that a pairing whose
    run-to-run spread (either side) is wider than the bound is ``unresolved``
    unless every new run reads better than every base run.
    """
    if base is None or new is None:
        return "undefined", None
    sign = 1.0 if better == "lower" else -1.0
    difference = sign * (new["median"] - base["median"])
    relative = not absolute and base["median"] != 0
    worsening = difference / abs(base["median"]) if relative else difference
    widths = [
        spread(side) if relative else side["q3"] - side["q1"] for side in (base, new)
    ]
    if max(widths) > bound:
        all_better = (
            new["max"] < base["min"] if better == "lower" else new["min"] > base["max"]
        )
        if not all_better:
            return "unresolved", worsening
    return ("ok" if worsening <= bound else "regressed"), worsening
