"""Statistics helpers: means and 95 % confidence intervals.

Figure 4 reports average response times "with corresponding 95%
confidence intervals (shown as error bars)"; these helpers compute the
same quantities with the exact Student-t critical value.  The quantile
is computed here from the standard library alone, by inverting the
regularised incomplete beta function, so importing the package pulls
in no numerical stack.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

_Z_975 = 1.959963984540054  # the standard normal 0.975 quantile
_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularised incomplete beta
    function I_x(a, b), by the modified Lentz method.  It converges
    fastest for x < (a + 1) / (a + b + 2), which near the 95 % t
    quantile (t^2 above about 3) always holds."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    fraction = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for numerator in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                          -(a + m) * (a + b + m) * x
                          / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            delta = c * d
            fraction *= delta
        if abs(delta - 1.0) < 1e-16:
            return fraction
    raise ArithmeticError(f"incomplete beta did not converge at x={x!r}")


@functools.lru_cache(maxsize=None)
def t_critical_95(dof: int) -> float:
    """Two-sided 95 % Student-t critical value: the t with upper tail
    P(T > t) = 0.025.

    The tail is 0.5 * I_x(dof/2, 1/2) with x = dof / (dof + t^2);
    Newton's method on t, started from the Cornish-Fisher expansion
    around the normal quantile and kept inside a shrinking bracket,
    converges to within a few ulps.
    """
    if dof <= 0:
        raise ValueError("need at least two samples for an interval")
    a = dof / 2.0
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    log_density_peak = -log_beta - 0.5 * math.log(dof)
    z = _Z_975
    t = (z + (z ** 3 + z) / (4 * dof)
         + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * dof ** 2))
    low, high = 0.0, math.inf
    for _ in range(200):
        t2 = t * t
        share = t2 / (dof + t2)
        tail = 0.5 * math.exp(a * math.log1p(-share)
                              + 0.5 * math.log(share) - log_beta) \
            * _beta_fraction(a, 0.5, dof / (dof + t2)) / a
        if tail > 0.025:
            low = t
        else:
            high = t
        density = math.exp(log_density_peak
                           - (dof + 1) / 2.0 * math.log1p(t2 / dof))
        step = t + (tail - 0.025) / density
        if not low < step < high:
            step = 2.0 * t if high == math.inf else (low + high) / 2.0
        if abs(step - t) <= 1e-15 * t:
            return step
        t = step
    return t


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation."""
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values) /
                     (len(values) - 1))


class MeanCI:
    """A sample mean with its 95 % confidence half-width."""

    __slots__ = ("mean", "half_width", "count")

    def __init__(self, mean_value: float, half_width: float, count: int):
        self.mean = mean_value
        self.half_width = half_width
        self.count = count

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __repr__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f} (n={self.count})"


def mean_ci95(values: Sequence[float]) -> Optional[MeanCI]:
    """Mean with 95 % CI, or None for an empty sample.

    A single observation yields a zero-width interval (the paper plots
    singletons without error bars).
    """
    if not values:
        return None
    if len(values) == 1:
        return MeanCI(values[0], 0.0, 1)
    center = mean(values)
    spread = sample_std(values)
    half = t_critical_95(len(values) - 1) * spread / math.sqrt(len(values))
    return MeanCI(center, half, len(values))


def proportion(numerator: int, denominator: int) -> float:
    """A percentage-safe ratio (0.0 when the denominator is zero)."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
