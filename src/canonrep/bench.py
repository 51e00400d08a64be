"""Sampling, interleaved sums, and decoupling ratio estimation.

Monte Carlo lives here; every statistical estimate is backed at desk
scale by an exact enumeration of the finite pair law (rational
arithmetic), so the sampler is only trusted where the oracle agrees.

Sampling is deterministic given (seed, path index): each path draws from
its own counter-based stream, so path m can be regenerated in isolation
and paths may be evaluated concurrently as long as results are ordered
by index.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DegenerateBatch
from .harmonic import compile_disk, walk_uniforms
from .jsonio import representation_to_json
from .martingale import (
    DecoupledRepresentation,
    construct_ci_copy,
    verify_zero_sections,
)
from .process import ONE, ZERO
from .representation import CellRepresentation
# path_stream stays importable from here; bench/spans.py wraps it in this namespace
from .rng import GENERATOR_ID, path_stream, path_uniforms  # noqa: F401


def _rep_id(rep: CellRepresentation) -> str:
    blob = json.dumps(representation_to_json(rep), sort_keys=True).encode()
    return "rep:" + hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# batches

@dataclass
class SampleBatch:
    """Sampled value paths of a representation, (count, depth, dim) floats."""

    paths: np.ndarray
    seed: int
    source: str
    generator: str = GENERATOR_ID


@dataclass
class PairSampleBatch:
    """Sampled (direct, decoupled copy) paths on the product square."""

    direct: np.ndarray
    decoupled: np.ndarray
    seed: int
    source: str
    generator: str = GENERATOR_ID


def sample_paths(
    source: Union[CellRepresentation, DecoupledRepresentation],
    count: int,
    seed: int,
) -> Union[SampleBatch, PairSampleBatch]:
    """Draw ``count`` paths; decoupled input yields a pair batch.

    Path m consumes only the stream keyed by (seed, m): its first
    ``depth`` uniforms drive the history walk and, for decoupled input,
    the next ``depth`` uniforms drive the copy.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    decoupled = isinstance(source, DecoupledRepresentation)
    rep = source.base if decoupled else source
    depth = rep.depth
    u = path_uniforms(seed, 0, count, 2 * depth if decoupled else depth)
    direct, copy = walk_uniforms(
        compile_disk(rep), u[:, :depth], u[:, depth:] if decoupled else None
    )
    if decoupled:
        return PairSampleBatch(direct, copy, seed, _rep_id(rep))
    return SampleBatch(direct, seed, _rep_id(rep))


# ---------------------------------------------------------------------------
# interleaved martingale identities

def interleave_paths(batch: PairSampleBatch) -> np.ndarray:
    """Per path the length-2N sequence (d+e, d-e, d+e, ...), exact in floats
    whenever the source values are dyadic."""
    d, e = batch.direct, batch.decoupled
    count, depth, dim = d.shape
    r = np.empty((count, 2 * depth, dim))
    r[:, 0::2] = d + e
    r[:, 1::2] = d - e
    return r


def recover_sums(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the interleaving pathwise: (sum of d, sum of e).

    sum_d is half the plain sum, sum_e half the alternating sum; both
    reproduce the original path sums exactly on dyadic inputs.
    """
    r = np.asarray(r, dtype=float)
    sum_d = r.sum(axis=-2) / 2
    sum_e = (r[..., 0::2, :].sum(axis=-2) - r[..., 1::2, :].sum(axis=-2)) / 2
    return sum_d, sum_e


def sign_transform(paths: np.ndarray, signs) -> np.ndarray:
    """Per path the signed sum over steps, signs in {-1, +1}."""
    paths = np.asarray(paths, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (paths.shape[-2],):
        raise ValueError(
            f"expected {paths.shape[-2]} signs, got {signs.shape}"
        )
    return (paths * signs[:, None]).sum(axis=-2)


# ---------------------------------------------------------------------------
# norms and ratios

def lp_norm(sums: np.ndarray, p: float) -> tuple[float, float]:
    """Empirical L_p norm of Euclidean path sums, with delta-method SE.

    An all-zero batch is degenerate: the estimate and its standard error
    are both zero.  A standard error needs at least two samples.
    """
    if not (1 < p < math.inf):  # false for nan too
        raise ValueError("p must be finite and exceed 1")
    sums = np.asarray(sums, dtype=float)
    if sums.size == 0:
        raise ValueError("empty batch")
    y = np.linalg.norm(sums, axis=-1) ** p
    if y.size < 2:
        raise ValueError("a standard error needs at least two samples")
    m = float(y.mean())
    if m == 0.0:
        return 0.0, 0.0
    est = m ** (1.0 / p)
    se_m = float(y.std(ddof=1)) / math.sqrt(y.size)
    return est, se_m * est / (p * m)


@dataclass
class RatioReport:
    """Decoupling ratio estimate with a 5-sigma propagated interval."""

    ratio: float
    stderr: float
    ci_low: float
    ci_high: float
    p: float
    samples: int
    seed: int
    exact_ratio: Optional[float]
    norm_direct: tuple[float, float]
    norm_decoupled: tuple[float, float]
    sums: tuple[np.ndarray, np.ndarray]  # per-path sums (direct, decoupled)
    generator: str = GENERATOR_ID


CI_SIGMAS = 5.0


def decoupling_ratio(
    rep: CellRepresentation,
    p: float,
    count: int,
    seed: int,
    exact_depth_limit: int = 4,
) -> RatioReport:
    """Monte Carlo estimate of |sum e|_p / |sum d|_p for the decoupled copy.

    The exact enumeration oracle fills in ``exact_ratio`` whenever p is an
    even integer and the tree is small enough to enumerate.  The report
    keeps the per-path sums it was computed from, so they can be written
    out without sampling again.
    """
    verify_zero_sections(rep).require_zero()
    batch = sample_paths(construct_ci_copy(rep), count, seed)
    sums_d = batch.direct.sum(axis=1)
    sums_e = batch.decoupled.sum(axis=1)
    est_d, se_d = lp_norm(sums_d, p)
    est_e, se_e = lp_norm(sums_e, p)
    if est_d == 0.0 or est_e == 0.0:
        raise DegenerateBatch("all path sums are zero on at least one side")
    ratio = est_e / est_d
    stderr = ratio * math.hypot(se_e / est_e, se_d / est_d)
    if not (math.isfinite(ratio) and math.isfinite(stderr)):
        raise DegenerateBatch(f"p-th powers of the path sums overflow floats at p={p:g}")

    exact = None
    if (
        float(p).is_integer()
        and int(p) % 2 == 0
        and rep.depth <= exact_depth_limit
    ):
        exact = exact_moment_ratio(rep, int(p))[0]

    return RatioReport(
        ratio=ratio,
        stderr=stderr,
        ci_low=ratio - CI_SIGMAS * stderr,
        ci_high=ratio + CI_SIGMAS * stderr,
        p=p,
        samples=count,
        seed=seed,
        exact_ratio=exact,
        norm_direct=(est_d, se_d),
        norm_decoupled=(est_e, se_e),
        sums=(sums_d, sums_e),
    )


def exact_moment_ratio(
    rep: CellRepresentation, p: int
) -> tuple[float, Fraction, Fraction]:
    """Exact (ratio, p-th moment of |sum e|, p-th moment of |sum d|).

    Enumerates the finite pair law of the decoupled copy in rational
    arithmetic; p must be a positive even integer so powers of Euclidean
    norms stay rational.
    """
    if p <= 0 or p % 2:
        raise ValueError("exact enumeration needs a positive even integer p")
    half = p // 2
    zero = (ZERO,) * rep.dimension
    moment_d = ZERO
    moment_e = ZERO

    def norm_pow(v) -> Fraction:
        return sum((c * c for c in v), ZERO) ** half

    def rec(node, prob, sd, se):
        nonlocal moment_d, moment_e
        for xcell in node.cells:
            sd2 = tuple(a + b for a, b in zip(sd, xcell.value))
            for ycell in node.cells:
                q = prob * xcell.interval.length * ycell.interval.length
                se2 = tuple(a + b for a, b in zip(se, ycell.value))
                if xcell.child is None:
                    moment_d += q * norm_pow(sd2)
                    moment_e += q * norm_pow(se2)
                else:
                    rec(xcell.child, q, sd2, se2)

    rec(rep.root, ONE, zero, zero)
    if moment_d == 0:
        raise DegenerateBatch("direct path sums have zero p-th moment")
    ratio = float(moment_e / moment_d) ** (1.0 / p)
    return ratio, moment_e, moment_d
