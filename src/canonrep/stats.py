"""Small statistical helpers shared by the sampling modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps


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


def chi_square_gof(
    observed: np.ndarray, probs: np.ndarray, min_expected: float = 5.0
) -> ChiSquareResult:
    """Goodness-of-fit test of observed counts against exact category probs.

    Categories whose expected count falls below ``min_expected`` are pooled
    into a single bucket before computing the statistic, the standard fix
    for sparse cells.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if observed.shape != probs.shape:
        raise ValueError("observed and probs must have the same shape")
    total = observed.sum()
    expected = probs * total
    keep = expected >= min_expected
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
    return ChiSquareResult(stat, dof, float(_sps.chi2.sf(stat, dof)), pooled)
