"""Sampling, interleaved sums, and decoupling ratio estimation.

Monte Carlo lives here; every even-p estimate is backed by an exact
rational oracle over the laws of the path sums, so the sampler is only
trusted where it agrees.  The oracle is ``None`` for odd or fractional p,
above ``MAX_ORACLE_SUMS`` stored sums or ``MAX_ORACLE_BITS`` bits per
power, and when the exact ratio overflows floats.

Sampling is deterministic given (seed, path index): each path draws from
its own counter-based stream, so path m can be regenerated in isolation
and paths may be evaluated concurrently as long as results are ordered
by index.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DegenerateBatch, SizeGuard
from .harmonic import compile_disk, walk_uniforms
from .jsonio import representation_to_json
from .martingale import verify_zero_sections
from .process import ONE, ZERO, distinct_nodes
from .representation import CellRepresentation
# path_stream stays bound here: bench/test_harness.py checks that the tracer
# wraps it in this namespace and restores it
from .rng import GENERATOR_ID, path_stream, path_uniforms  # noqa: F401


def _rep_id(rep: CellRepresentation) -> str:
    blob = json.dumps(representation_to_json(rep), sort_keys=True).encode()
    return "rep:" + hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# batches

@dataclass
class PairSampleBatch:
    """Sampled (direct, decoupled copy) paths on the product square."""

    direct: np.ndarray
    decoupled: np.ndarray
    seed: int
    source: str
    generator: str = GENERATOR_ID


def sample_paths(rep: CellRepresentation, count: int, seed: int) -> PairSampleBatch:
    """Draw ``count`` paths of ``rep`` and of its decoupled copy.

    Path m consumes only the stream keyed by (seed, m): its first
    ``depth`` uniforms x drive the history walk, whose cells give the
    direct values, and the next ``depth`` uniforms y pick the copy's cell
    at each node the walk reaches.  A row's first ``depth`` uniforms do
    not depend on its width, so ``direct`` has the bytes of a walk that
    draws only those.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    depth = rep.depth
    u = path_uniforms(seed, 0, count, 2 * depth)
    direct, copy = walk_uniforms(compile_disk(rep), u[:, :depth], u[:, depth:])
    return PairSampleBatch(direct, copy, seed, _rep_id(rep))


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


# ---------------------------------------------------------------------------
# norms and ratios

def lp_norm(sums: np.ndarray, p: float) -> tuple[float, float]:
    """Empirical L_p norm of Euclidean path sums, with delta-method SE.

    An all-zero batch is degenerate: the estimate and its standard error
    are both zero.  A standard error needs at least two samples.  Raises
    DegenerateBatch when the p-th powers or their spread overflow floats.
    """
    if not (1 < p < math.inf):  # false for nan too
        raise ValueError("p must be finite and exceed 1")
    sums = np.asarray(sums, dtype=float)
    if sums.size == 0:
        raise ValueError("empty batch")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        y = np.linalg.norm(sums, axis=-1) ** p
        if y.size < 2:
            raise ValueError("a standard error needs at least two samples")
        m = float(y.mean())
        sd = float(y.std(ddof=1))
    if not (math.isfinite(m) and math.isfinite(sd)):
        raise DegenerateBatch(f"p-th powers of the path sums overflow floats at p={p:g}")
    if m == 0.0:
        return 0.0, 0.0
    est = m ** (1.0 / p)
    se_m = sd / math.sqrt(y.size)
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
) -> RatioReport:
    """Monte Carlo estimate of |sum e|_p / |sum d|_p for the decoupled copy.

    The exact oracle fills in ``exact_ratio`` whenever p is an even integer
    and it passes its size guards.  The report
    keeps the per-path sums it was computed from, so they can be written
    out without sampling again.
    """
    verify_zero_sections(rep).require_zero()
    batch = sample_paths(rep, count, seed)
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
    if float(p).is_integer() and int(p) % 2 == 0:
        try:
            exact = exact_moment_ratio(rep, int(p))[0]
        except SizeGuard:
            pass

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


# Sums the exact oracle may build, each distinct node's laws counted once: at
# 20-45 us per sum it gives up within about 12 s, and every tree of depth <= 7,
# branching <= 4 and dimension 1 tried fits.
MAX_ORACLE_SUMS = 2**18
# Bits of the largest p-th power the oracle may form, p/2 times the bits of
# the largest squared norm: summing the powers costs a gcd of that size per
# sum, so at this cap the 4,183 sums of a depth-6, branching-3 tree take
# about 2 s, while p = 1e12 is refused before any power is formed.
MAX_ORACLE_BITS = 2**14


def exact_moment_ratio(
    rep: CellRepresentation, p: int
) -> tuple[float, Fraction, Fraction]:
    """Exact (ratio, p-th moment of |sum e|, p-th moment of |sum d|).

    One backward pass over the distinct nodes builds, at each, the exact
    laws of the remaining direct sum and of the remaining copy sum, merging
    equal sums.  The copy's cell at a node is independent of the x-cell
    that picks the child, so its law is the x-mixture of the children's
    copy laws convolved with the node's own cell law.  p must be a positive
    even integer so powers of Euclidean norms stay rational.  Raises
    SizeGuard when the laws would take more than ``MAX_ORACLE_SUMS`` sums,
    when a p-th power would need more than ``MAX_ORACLE_BITS`` bits, or
    when the ratio of the moments lies outside the normal float range.
    """
    if p <= 0 or p % 2:
        raise ValueError("the exact oracle needs a positive even integer p")
    origin = (ZERO,) * rep.dimension
    ended = {origin: ONE}  # law of the sum after the last step
    stored = 0

    def shift(law: dict, step, weight: Fraction, into: dict) -> None:
        for s, q in law.items():
            t = tuple(a + b for a, b in zip(s, step))
            into[t] = into.get(t, ZERO) + weight * q

    # the laws (direct sums, copy sums) below each distinct node, children
    # first; a child's are dropped once the last node above it has read them
    nodes = distinct_nodes(rep.root)
    last_reader = {id(br.child): node for node in nodes for br in node.branches}
    laws: dict[int, tuple[dict, dict]] = {}
    for node in nodes:
        direct: dict = {}
        mixed: dict = {}  # x-mixture of the children's copy laws
        for br in node.branches:
            sub_d, sub_e = (ended, ended) if br.child is None else laws[id(br.child)]
            shift(sub_d, br.value, br.prob, direct)
            shift(sub_e, origin, br.prob, mixed)
        for br in node.branches:
            if last_reader[id(br.child)] is node:
                laws.pop(id(br.child), None)
        copy: dict = {}
        for br in node.branches:
            shift(mixed, br.value, br.prob, copy)
        stored += len(direct) + len(copy)
        if stored > MAX_ORACLE_SUMS:
            raise SizeGuard(
                f"the exact oracle needs more than {MAX_ORACLE_SUMS} path sums",
                limit=MAX_ORACLE_SUMS,
            )
        laws[id(node)] = direct, copy

    def squared_norms(law: dict) -> list:
        return [(q, sum((c * c for c in s), ZERO)) for s, q in law.items()]

    norms_d, norms_e = (squared_norms(law) for law in laws[id(rep.root)])
    bits = p // 2 * max(
        n.numerator.bit_length() + n.denominator.bit_length() for _, n in norms_d + norms_e
    )
    if bits > MAX_ORACLE_BITS:
        raise SizeGuard(
            f"the exact oracle's p-th powers would need more than {MAX_ORACLE_BITS} bits",
            bits=bits,
            limit=MAX_ORACLE_BITS,
        )
    moment_d, moment_e = (_power_sum(norms, p // 2) for norms in (norms_d, norms_e))
    if moment_d == 0:
        raise DegenerateBatch("direct path sums have zero p-th moment")
    exact = moment_e / moment_d
    if exact > sys.float_info.max or 0 < exact < sys.float_info.min:
        raise SizeGuard("the exact moment ratio lies outside the normal float range")
    ratio = float(exact) ** (1.0 / p)
    return ratio, moment_e, moment_d


def _power_sum(norms: list, m: int) -> Fraction:
    """Sum of q * n**m, in integers over lcm(q dens) * lcm(n dens)**m: a running
    Fraction sum would take a gcd that size on every term."""
    dq, dn = (math.lcm(*(x.denominator for x in xs)) for xs in zip(*norms))
    return Fraction(sum(q.numerator * (dq // q.denominator) * (
        n.numerator * (dn // n.denominator)) ** m for q, n in norms), dq * dn**m)
