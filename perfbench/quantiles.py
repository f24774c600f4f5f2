"""Harrell-Davis quantile estimator.

A percentile read off one or two order statistics moves with the noise of
those few jobs.  The Harrell-Davis estimate is a weighted mean of all order
statistics, with Beta(p(n+1), (1-p)(n+1)) weights concentrated around rank
pn, so it moves far less from run to run (Harrell and Davis, Biometrika 69,
1982).
"""

from __future__ import annotations

import math


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def clamp(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / clamp(1.0 + num * d)
        c = clamp(1.0 + num / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))
