"""Small statistical helpers shared by the sampling modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with a positive integer dof.

    For an integer dof the tail is erfc(sqrt(x/2)) when dof is odd, plus
    the finite sum of (x/2)^a e^(-x/2) / Gamma(a+1) over a = 0, 1, ...,
    dof/2 - 1 (even dof) or a = 1/2, 3/2, ..., dof/2 - 1 (odd dof)
    (Abramowitz & Stegun 26.4.4-5).  Each term is formed in log space, so
    e^(-x/2) cannot underflow before its large cofactor is applied.  The
    log-terms are concave in a, so only a window of 40 sqrt(x/2) + 40 on
    either side of the largest term is summed: every term outside it is
    below e^-800 times that largest one.
    """
    if math.isnan(x):
        raise ValueError("the chi-square statistic is nan")
    if dof < 1:
        raise ValueError("the chi-square law needs a positive integer dof")
    half = x / 2
    if half <= 0.0:  # x <= 0, or so small that x/2 rounds to 0
        return 1.0
    if half == math.inf:
        return 0.0
    log_half = math.log(half)
    odd = dof % 2
    count = dof // 2  # terms a = i + odd/2 for i = 0 .. count-1
    peak = min(max(round(half - odd / 2), 0), count - 1)
    width = math.ceil(40 * math.sqrt(half)) + 40
    window = range(max(peak - width, 0), min(peak + width + 1, count))
    terms = (math.exp(a * log_half - half - math.lgamma(a + 1))
             for a in (i + odd / 2 for i in window))
    head = math.erfc(math.sqrt(half)) if odd else 0.0
    return min(1.0, math.fsum((head, *terms)))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    pooled: int  # number of low-expectation categories merged into one

    @property
    def too_small(self) -> bool:
        """True when pooling merged several categories into a single bucket:
        nothing is left to test, and the p-value of 1 carries no evidence."""
        return self.dof == 0 and self.pooled > 1


def chi_square_gof(observed: np.ndarray, probs: np.ndarray) -> ChiSquareResult:
    """Goodness-of-fit test of observed counts against exact category probs.

    Categories whose expected count falls below 5 are pooled into a single
    bucket before computing the statistic, the standard fix for sparse
    cells.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if observed.shape != probs.shape:
        raise ValueError("observed and probs must have the same shape")
    if not (np.isfinite(observed).all() and np.isfinite(probs).all()):
        raise ValueError("observed and probs must be finite")
    total = observed.sum()
    expected = probs * total
    keep = expected >= 5.0
    pooled = int((~keep).sum())
    if pooled:
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
    else:
        obs, exp = observed, expected
    if len(obs) < 2:
        return ChiSquareResult(0.0, 0, 1.0, pooled)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    return ChiSquareResult(stat, dof, chi2_sf(stat, dof), pooled)
