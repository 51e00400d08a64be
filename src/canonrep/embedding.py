"""Continuous-time embedding of a zero-mean process in planar Brownian
motion.

Each step of the representation occupies one unit block of time.  Inside
block n, a planar Brownian motion runs from the disk center; its position
is read through the harmonic extension of the node's boundary data, the
block's contribution freezes at the boundary value once the motion exits
the disk, and the time change t -> t/(1-t) squeezes the almost-surely
finite exit into the unit block.  At integer times the accumulated sums
therefore reproduce the discrete sequence in law, because the exit angle
from the center is exactly uniform and the arcs carry the cell law.

Two schemes:

* ``exit_sample``: no paths; exit angles are drawn from the exact exit
  law (uniform from the center), one uniform per block from the path's
  master stream.  O(depth) per path.  Grid values between integer times
  are the start-of-block sums (intra-block dynamics are not simulated).
* ``euler``: discretized Brownian paths on a uniform grid in block
  time, with per-step variance taken from the time change.  Boundary
  crossing is resolved by linear interpolation of the crossing step and
  projection onto the circle.  Blocks that never exit before the time
  change exceeds ``phi_cap`` are censored: they restart with a fresh
  sub-stream and are counted in the report.

Randomness: path m owns the counter-based stream keyed by (seed, m);
the euler scheme carves it into per-block sub-streams, so any path can
be regenerated in isolation and paths may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NoDiskExit, SizeGuard, StepTooCoarse, XOutOfRange
from .harmonic import TAU, DiskNode, compile_disk, harmonic_extension, walk_uniforms
from .martingale import verify_zero_sections
from .representation import CellRepresentation
from .rng import GENERATOR_ID, path_stream, path_uniforms

_CHUNK = 4096
MIN_STEPS_BEFORE_EXIT = 1000
MAX_STEPS_PER_BLOCK = 10**7  # one block's step arrays stay within a few hundred MiB
_MAX_ATTEMPTS = 64


def phi(t):
    """Time change mapping block time [0,1) onto inner time [0,inf), elementwise."""
    return t / (1.0 - t)


def phi_inverse(s: float) -> float:
    return s / (1.0 + s)


@dataclass(frozen=True)
class BrownianConfig:
    """Simulation knobs for the Brownian embedding."""

    dt_base: float = 5e-5
    boundary_eps: float = 0.01
    seed: int = 0
    scheme: str = "exit_sample"
    phi_cap: float = 1e4

    def __post_init__(self):
        # chained comparisons are false for nan, so every check fails closed
        if not (0.0 < self.dt_base < math.inf):
            raise ValueError("dt_base must be positive and finite")
        if not (0.0 < self.boundary_eps < 0.1):
            raise ValueError("boundary_eps must lie in (0, 0.1)")
        if self.scheme not in ("exit_sample", "euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.phi_cap < math.inf):
            raise ValueError("phi_cap must be positive and finite")


@dataclass
class EmbeddedPath:
    """One simulated trajectory sampled on a grid.

    ``increments`` holds the exact per-block boundary values (so integer-
    time differences of the trajectory are available without float
    cancellation); ``exit_times`` are absolute times, NaN under
    ``exit_sample`` where no clock is simulated.
    """

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray
    exit_points: np.ndarray
    exit_times: np.ndarray
    restarts: int
    coarse_blocks: int
    scheme: str
    seed: int
    path_index: int
    generator: str = GENERATOR_ID


@dataclass
class IncrementBatch:
    """Exact per-block increments for many paths (no grid values)."""

    increments: np.ndarray  # (count, depth, dim)
    exit_angles: np.ndarray  # (count, depth)
    restarts: int
    coarse_blocks: int
    total_blocks: int
    seed: int
    scheme: str
    generator: str = GENERATOR_ID


def _coarse_guard(coarse: int, total: int) -> None:
    """Raise StepTooCoarse when at least 1% of ``total`` euler blocks exited
    in fewer than the minimum number of steps."""
    if total and coarse / total >= 0.01:
        raise StepTooCoarse(
            f"{coarse} of {total} blocks exited in fewer than "
            f"{MIN_STEPS_BEFORE_EXIT} steps",
            coarse=coarse,
            total=total,
        )


def _step_sigmas(cfg: BrownianConfig) -> np.ndarray:
    """Per-step standard deviations induced by the time change."""
    t_cap = phi_inverse(cfg.phi_cap)
    n_steps = max(int(t_cap / cfg.dt_base), 1)
    if n_steps > MAX_STEPS_PER_BLOCK:
        raise SizeGuard(
            f"dt {cfg.dt_base:g} needs {n_steps} euler steps per block, "
            f"more than {MAX_STEPS_PER_BLOCK}",
            steps=n_steps,
        )
    if n_steps * cfg.dt_base >= 1.0:
        raise SizeGuard(
            f"cap {cfg.phi_cap:g} puts the last euler step at block time 1, "
            f"where the time change is infinite",
            cap=cfg.phi_cap,
        )
    t = np.arange(n_steps + 1) * cfg.dt_base
    return np.sqrt(np.diff(phi(t)))


# ---------------------------------------------------------------------------
# one euler block

@dataclass
class _BlockResult:
    angle: float
    steps: int  # steps taken before the exit was declared
    rel_time: float  # block-relative exit time
    attempts: int
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)


def _euler_block(
    rng_factory, sigmas: np.ndarray, dt: float, wanted: list[int]
) -> _BlockResult:
    """Run euler attempts for one block until the motion exits the disk.

    ``wanted`` are position indices (position m lives at block time m*dt)
    to record from the successful attempt, pre-exit only.
    """
    total_steps = len(sigmas)
    for attempt in range(_MAX_ATTEMPTS):
        rng = rng_factory(attempt)
        px, py = 0.0, 0.0
        positions: dict[int, tuple[float, float]] = {}
        for m in wanted:
            if m == 0:
                positions[0] = (0.0, 0.0)
        j0 = 0
        while j0 < total_steps:
            j1 = min(j0 + _CHUNK, total_steps)
            steps = rng.standard_normal((j1 - j0, 2)) * sigmas[j0:j1, None]
            xs = px + np.cumsum(steps[:, 0])
            ys = py + np.cumsum(steps[:, 1])
            hit = xs * xs + ys * ys >= 1.0
            k = int(np.argmax(hit)) if hit.any() else -1
            limit = k if k >= 0 else j1 - j0
            for m in wanted:
                i = m - 1 - j0
                if 0 <= i < limit:
                    positions[m] = (float(xs[i]), float(ys[i]))
            if k >= 0:
                qx = float(xs[k - 1]) if k > 0 else px
                qy = float(ys[k - 1]) if k > 0 else py
                dx = float(xs[k]) - qx
                dy = float(ys[k]) - qy
                a = dx * dx + dy * dy
                b = 2.0 * (qx * dx + qy * dy)
                c0 = qx * qx + qy * qy - 1.0
                frac = (-b + math.sqrt(b * b - 4.0 * a * c0)) / (2.0 * a)
                ex, ey = qx + frac * dx, qy + frac * dy
                norm = math.hypot(ex, ey)
                angle = math.atan2(ey / norm, ex / norm) % TAU
                steps_taken = j0 + k + 1
                return _BlockResult(
                    angle=angle,
                    steps=steps_taken,
                    rel_time=(j0 + k + frac) * dt,
                    attempts=attempt + 1,
                    positions=positions,
                )
            px, py = float(xs[-1]), float(ys[-1])
            j0 = j1
    raise NoDiskExit(
        f"no disk exit in {_MAX_ATTEMPTS} attempts; raise phi_cap or dt_base",
        attempts=_MAX_ATTEMPTS,
    )


# ---------------------------------------------------------------------------
# full paths

def _grid_by_block(grid: np.ndarray, depth: int) -> list[list[tuple[int, float]]]:
    """Split absolute grid times into (grid index, block-relative time)."""
    per_block: list[list[tuple[int, float]]] = [[] for _ in range(depth)]
    for i, t in enumerate(grid):
        if not (0.0 <= t < depth):
            raise XOutOfRange(f"grid time {t} outside [0, {depth})")
        n = min(int(t), depth - 1)
        per_block[n].append((i, t - n))
    return per_block


@dataclass
class _PathRange:
    """Paths ``start .. stop - 1`` of a batch, before any guard."""

    increments: np.ndarray  # (paths, depth, dim)
    angles: np.ndarray  # (paths, depth)
    exit_times: Optional[np.ndarray]  # (paths, depth); None under exit_sample
    values: Optional[np.ndarray]  # (paths, grid points, dim); None without a grid
    restarts: int = 0
    coarse: int = 0


def _simulate_range(
    rep: CellRepresentation,
    root: DiskNode,
    cfg: BrownianConfig,
    start: int,
    stop: int,
    per_block: Optional[list[list[tuple[int, float]]]] = None,
) -> _PathRange:
    """Simulate paths ``start`` to ``stop - 1`` of the checked tree ``rep``
    compiled to ``root`` and, given a grid split by ``_grid_by_block``,
    their grid values.  Path m draws only from the streams keyed by
    (cfg.seed, m), so a range has the bytes the same paths have inside
    any larger batch.  The caller applies the coarse-step guard.
    """
    depth, dim = rep.depth, rep.dimension
    count = max(stop - start, 0)
    n_grid = sum(len(block) for block in per_block) if per_block is not None else 0
    if cfg.scheme == "euler":
        out = _PathRange(
            np.empty((count, depth, dim)),
            np.empty((count, depth)),
            np.empty((count, depth)),
            np.empty((count, n_grid, dim)) if per_block is not None else None,
        )
        sigmas = _step_sigmas(cfg)
        for i in range(count):
            _euler_path(root, cfg, sigmas, start + i, per_block, out, i)
        return out

    us = path_uniforms(cfg.seed, start, stop, depth)
    increments, _ = walk_uniforms(root, us)
    values = None
    if per_block is not None:
        # start-of-block sums for all paths at once, accumulated from zero
        # as (0 + x_1) + x_2 + ..., so the bytes match a per-path running
        # sum, signed zeros included
        values = np.empty((count, n_grid, dim))
        partial = np.zeros((count, dim))
        for n, block in enumerate(per_block):
            for gi, _rel in block:
                values[:, gi] = partial
            partial = partial + increments[:, n]
    return _PathRange(increments, np.multiply(us, TAU, out=us), None, values)


def _euler_path(
    root: DiskNode,
    cfg: BrownianConfig,
    sigmas: np.ndarray,
    path_index: int,
    per_block: Optional[list[list[tuple[int, float]]]],
    out: _PathRange,
    row: int,
) -> None:
    """Fill row ``row`` of ``out`` with path ``path_index`` under the euler
    scheme and add its restarts and coarse blocks to ``out``."""
    node: Optional[DiskNode] = root
    partial = np.zeros(out.increments.shape[2])
    for n in range(out.increments.shape[1]):
        wanted_rel = per_block[n] if per_block is not None else []
        wanted = sorted(
            {min(int(rel / cfg.dt_base), len(sigmas)) for _gi, rel in wanted_rel}
        )
        res = _euler_block(
            lambda attempt, n=n: path_stream(
                cfg.seed, path_index, sub=n * _MAX_ATTEMPTS + attempt
            ),
            sigmas,
            cfg.dt_base,
            wanted,
        )
        out.restarts += res.attempts - 1
        if res.steps < MIN_STEPS_BEFORE_EXIT:
            out.coarse += 1
        cell = int(np.searchsorted(node.bounds, res.angle / TAU, side="right"))
        increment = node.values[cell]
        out.increments[row, n] = increment
        out.angles[row, n] = res.angle
        out.exit_times[row, n] = n + res.rel_time
        for gi, rel in wanted_rel:
            if rel < res.rel_time:
                m = min(int(rel / cfg.dt_base), len(sigmas))
                px, py = res.positions[m]
                z = complex(px, py)
                r = abs(z)
                cap = 1.0 - cfg.boundary_eps
                if r >= cap:
                    z *= cap * (1.0 - 1e-12) / r
                out.values[row, gi] = partial + harmonic_extension(
                    node.arcs, z, cfg.boundary_eps
                )
            else:
                out.values[row, gi] = partial + increment
        partial = partial + increment
        node = node.children[cell]


def simulate_F(
    rep: CellRepresentation,
    grid,
    cfg: BrownianConfig,
    path_index: int = 0,
) -> EmbeddedPath:
    """Simulate one trajectory of the embedding, sampled on ``grid``.

    Grid times live in [0, depth).  The trajectory value at a grid time
    is the sum of the frozen boundary values of completed blocks plus, in
    the running block, the harmonic extension at the current Brownian
    position (euler) or zero (exit_sample, which starts every block at
    the center where zero-mean boundary data extends to zero).
    """
    verify_zero_sections(rep).require_zero()
    grid = np.asarray(grid, dtype=float)
    path = _simulate_range(
        rep, compile_disk(rep), cfg, path_index, path_index + 1,
        _grid_by_block(grid, rep.depth),
    )
    _coarse_guard(path.coarse, rep.depth)
    return EmbeddedPath(
        times=grid,
        values=path.values[0],
        increments=path.increments[0],
        exit_points=path.angles[0],
        exit_times=(
            np.full(rep.depth, math.nan) if path.exit_times is None else path.exit_times[0]
        ),
        restarts=path.restarts,
        coarse_blocks=path.coarse,
        scheme=cfg.scheme,
        seed=cfg.seed,
        path_index=path_index,
    )


def simulate_increments(
    rep: CellRepresentation, count: int, cfg: BrownianConfig
) -> IncrementBatch:
    """Exact per-block increments for ``count`` paths (fast, no grid).

    Raises StepTooCoarse when at least 1% of all simulated euler blocks
    exited in fewer than the minimum number of steps.
    """
    verify_zero_sections(rep).require_zero()
    return _simulate_batch(rep, count, cfg, None, 0)[0]


def simulate_grid_batch(
    rep: CellRepresentation, grid, count: int, cfg: BrownianConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Trajectory values on a common grid for many paths.

    Returns (values (count, len(grid), dim), increments (count, depth,
    dim), restarts).  StepTooCoarse aggregates over all blocks of the
    whole batch.
    """
    verify_zero_sections(rep).require_zero()
    batch, values = _simulate_batch(rep, count, cfg, np.asarray(grid, dtype=float), count)
    return values, batch.increments, batch.restarts


def _stack(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Rows of ``head`` then ``tail``, without a copy when one is empty."""
    if len(head) and len(tail):
        return np.concatenate([head, tail])
    return tail if len(tail) else head


def _simulate_batch(
    rep: CellRepresentation,
    count: int,
    cfg: BrownianConfig,
    grid: Optional[np.ndarray],
    grid_count: int,
) -> tuple[IncrementBatch, Optional[np.ndarray]]:
    """``simulate_increments(rep, count, cfg)`` and, given a grid, the
    values of ``simulate_grid_batch(rep, grid, grid_count, cfg)``, with
    every path simulated once: the first ``grid_count`` paths on the grid,
    the rest without.  ``rep`` must already be checked zero-mean.

    The coarse-step guard runs as those two run it, in this order: over
    all ``count * depth`` blocks, then over the grid paths' blocks.
    """
    root = compile_disk(rep)
    per_block = None if grid is None else _grid_by_block(grid, rep.depth)
    head = _simulate_range(rep, root, cfg, 0, grid_count, per_block)
    tail = _simulate_range(rep, root, cfg, grid_count, count)
    coarse = head.coarse + tail.coarse
    _coarse_guard(coarse, count * rep.depth)
    _coarse_guard(head.coarse, grid_count * rep.depth)
    batch = IncrementBatch(
        increments=_stack(head.increments, tail.increments),
        exit_angles=_stack(head.angles, tail.angles),
        restarts=head.restarts + tail.restarts,
        coarse_blocks=coarse,
        total_blocks=count * rep.depth,
        seed=cfg.seed,
        scheme=cfg.scheme,
    )
    return batch, head.values


# ---------------------------------------------------------------------------
# martingale diagnostics

@dataclass
class SlopeFit:
    t_from: float
    t_to: float
    coordinate: int
    slope: Optional[float]
    stderr: Optional[float]
    bins: int
    note: str = ""


@dataclass
class MartingaleReport:
    checkpoints: np.ndarray
    means: np.ndarray  # (checkpoints, dim)
    stderrs: np.ndarray
    max_mean_over_se: float
    slopes: list[SlopeFit]

    def mean_ok(self, sigmas: float = 5.0) -> bool:
        return bool(self.max_mean_over_se <= sigmas)

    def slopes_ok(self, sigmas: float = 5.0, atol: float = 1e-9) -> bool:
        # atol absorbs float rounding when the fit is exact (stderr ~ 0)
        fitted = [s for s in self.slopes if s.slope is not None]
        return all(abs(s.slope - 1.0) <= sigmas * s.stderr + atol for s in fitted)


def martingale_check(
    values: np.ndarray,
    times,
    checkpoints=None,
    min_paths: int = 10**4,
    n_bins: int = 10,
) -> MartingaleReport:
    """Numerical martingale diagnostics for a batch of trajectories.

    ``values`` is (paths, len(times), dim).  Reports the largest
    |mean| / SE over checkpoints, and for each consecutive checkpoint
    pair the binned conditional-mean regression slope of the later value
    on the earlier one (a martingale has slope one).
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if values.ndim != 3 or values.shape[1] != len(times):
        raise ValueError("values must be (paths, len(times), dim)")
    if values.shape[0] < min_paths:
        raise ValueError(
            f"need at least {min_paths} paths, got {values.shape[0]}"
        )
    if checkpoints is None:
        checkpoints = times
    checkpoints = np.asarray(checkpoints, dtype=float)
    idx = []
    for t in checkpoints:
        matches = np.nonzero(np.isclose(times, t))[0]
        if len(matches) == 0:
            raise ValueError(f"checkpoint {t} is not a grid time")
        idx.append(int(matches[0]))

    n_paths = values.shape[0]
    sub = values[:, idx, :]
    means = sub.mean(axis=0)
    stderrs = sub.std(axis=0, ddof=1) / math.sqrt(n_paths)
    ratio = 0.0
    for mean, se in zip(means.ravel(), stderrs.ravel()):
        if se > 0:
            ratio = max(ratio, float(abs(mean) / se))
        elif mean != 0.0:
            ratio = math.inf
    slopes: list[SlopeFit] = []
    for a, b in zip(range(len(idx) - 1), range(1, len(idx))):
        for coord in range(values.shape[2]):
            x = sub[:, a, coord]
            y = sub[:, b, coord]
            slopes.append(
                _binned_slope(x, y, checkpoints[a], checkpoints[b], coord, n_bins)
            )
    return MartingaleReport(checkpoints, means, stderrs, ratio, slopes)


def _binned_slope(
    x: np.ndarray, y: np.ndarray, t_from: float, t_to: float, coord: int, n_bins: int
) -> SlopeFit:
    uniq = np.unique(x)
    if len(uniq) == 1:
        return SlopeFit(t_from, t_to, coord, None, None, 0, "constant conditioning value")
    edges = np.unique(np.quantile(x, np.linspace(0, 1, n_bins + 1)))
    if len(uniq) <= max(n_bins, 256) or len(edges) < 3:
        # frozen or lattice-valued conditioning: one bin per distinct value
        which = np.searchsorted(uniq, x)
        n_total = len(uniq)
    else:
        which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)
        n_total = len(edges) - 1
    counts = np.bincount(which, minlength=n_total).astype(float)
    keep = counts > 0
    xbar = np.bincount(which, weights=x, minlength=n_total)[keep] / counts[keep]
    ybar = np.bincount(which, weights=y, minlength=n_total)[keep] / counts[keep]
    w = counts[keep]
    xw = float((w * xbar).sum() / w.sum())
    yw = float((w * ybar).sum() / w.sum())
    sxx = float((w * (xbar - xw) ** 2).sum())
    if sxx == 0.0:
        return SlopeFit(t_from, t_to, coord, None, None, int(keep.sum()), "no spread")
    slope = float((w * (xbar - xw) * (ybar - yw)).sum() / sxx)
    intercept = yw - slope * xw
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float((resid**2).sum()) / dof / float(((x - x.mean()) ** 2).sum()))
    return SlopeFit(t_from, t_to, coord, slope, stderr, int(keep.sum()))
