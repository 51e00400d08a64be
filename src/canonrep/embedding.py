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
* ``euler``: Brownian paths in Gaussian steps of adaptive length, all
  blocks of a chunk of paths at once.  A step's inner-time variance is
  that of one ``dt_base`` step of block time under the time change, or
  ``(d / KAPPA)**2`` at distance d from the circle if larger, so steps
  are fine only near the circle.  A step exits where it crosses the
  circle, or where the Brownian bridge over it would have crossed the
  tangent line (a test on one uniform), and the exit point is projected
  onto the circle.  A grid time reads the position at the last multiple
  of ``dt_base`` at or before it, drawn from the Brownian bridge over the
  step that contains it, so the grid leaves the exits unchanged.  Blocks
  that never exit before the time change exceeds ``phi_cap`` are
  censored: they restart with a fresh sub-stream and are counted in the
  report.

Randomness: path m owns the counter-based streams keyed by (seed, m).
The euler scheme gives each block and attempt a sub-stream, whose
Philox block k drives step k, and each block one more for its grid
positions, so any path can be regenerated in isolation and paths may run
concurrently.  Live blocks draw ahead together, more steps as fewer
remain, without changing a byte; the bytes depend on numpy's SIMD
kernels for log1p, exp and arctan2.  The grid values add no such
dependence: one array harmonic extension per node and level reads them
at the grid positions, and its bytes depend on the libm's ``atan2`` and
``hypot``, not on numpy's SIMD loops (see ``harmonic``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoDiskExit, SizeGuard, StepTooCoarse, XOutOfRange
from .harmonic import TAU, DiskNode, compile_disk, harmonic_extension, walk_uniforms
from .martingale import verify_zero_sections
from .representation import CellRepresentation
from .rng import _BLOCKS_PER_PASS, _MASK64, GENERATOR_ID, _philox_passes, path_uniforms
# path_stream stays bound here: bench/test_harness.py checks that the tracer
# wraps it in this namespace and restores it
from .rng import path_stream  # noqa: F401

KAPPA = 4.0  # far from the circle an euler step's inner-time std is 1/KAPPA of the distance to it
MIN_STEPS_BEFORE_EXIT = 1000  # in steps of dt_base
MAX_STEPS_PER_BLOCK = 10**7  # steps of dt_base up to the censoring horizon
_MAX_ATTEMPTS = 64
_PATHS_PER_CHUNK = 1 << 11  # bounds the euler state arrays, under 1 KiB per block
_GRID_SLOTS_PER_CHUNK = 1 << 18  # bounds the grid positions and their normals
_DRAW_STEPS = 4  # fewest Philox blocks drawn per live euler block at a time
_MAX_DRAW_STEPS = 64  # most Philox blocks drawn per live euler block at a time
_GRID_BIT = np.uint64(1 << 63)  # set in the sub-stream of grid positions
BOUNDARY_EPS = 0.01  # euler grid positions are pulled this far inside the circle
MARTINGALE_BINS = 10


def phi(t):
    """Time change mapping block time [0,1) onto inner time [0,inf), elementwise."""
    return t / (1.0 - t)


def phi_inverse(s: float) -> float:
    return s / (1.0 + s)


@dataclass(frozen=True)
class BrownianConfig:
    """Simulation knobs for the Brownian embedding."""

    dt_base: float = 5e-5
    seed: int = 0
    scheme: str = "exit_sample"
    phi_cap: float = 1e4

    def __post_init__(self):
        # chained comparisons are false for nan, so every check fails closed
        if not (0.0 < self.dt_base < math.inf):
            raise ValueError("dt_base must be positive and finite")
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
    """Exact per-block increments for many paths and, given a grid, the
    trajectory values of the first paths on it."""

    increments: np.ndarray  # (count, depth, dim)
    exit_angles: np.ndarray  # (count, depth)
    exit_times: Optional[np.ndarray]  # (count, depth); None under exit_sample
    values: Optional[np.ndarray]  # (grid paths, grid points, dim); None without a grid
    restarts: int
    coarse_blocks: int
    total_blocks: int
    seed: int
    scheme: str
    generator: str = GENERATOR_ID
    steps: int = 0  # euler steps over all attempts, two normals each


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


def _horizon_steps(cfg: BrownianConfig) -> int:
    """Steps of ``dt_base`` up to the censoring horizon of an euler attempt,
    the last whole one before the time change reaches ``phi_cap``."""
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
    return n_steps


# ---------------------------------------------------------------------------
# euler exits, all blocks of a chunk of paths at once


def _normals(w0, w1, w2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two Box-Muller normals and one uniform (numpy's doubles from the top
    53 bits) from three words of Philox blocks, in place to bound scratch."""
    radius, turn, u = ((w >> np.uint64(11)).astype(np.float64) * 2.0**-53 for w in (w0, w1, w2))
    np.sqrt(np.log1p(np.negative(radius, out=radius), out=radius) * -2.0, out=radius)
    turn *= TAU
    x = np.cos(turn)
    x *= radius
    np.sin(turn, out=turn)
    turn *= radius
    return x, turn, u


def _draw(seed: int, index: np.ndarray, blocks: int, sub, first, out: np.ndarray) -> None:
    """``out[:, c, i]`` <- ``_normals`` of Philox block ``first[i] + c``,
    c < blocks, of ``path_stream(seed, index[i], sub[i])``."""
    for part, words in _philox_passes(seed, index, blocks, sub, first):
        for plane, v in zip(out, _normals(*words[:3])):
            plane[:, part] = v


@dataclass
class _Exits:
    angles: np.ndarray  # (rows,) exit angle in [0, 2pi)
    rel_times: np.ndarray  # (rows,) block-relative exit time
    attempts: np.ndarray  # (rows,) attempts, the last one successful
    steps: int  # euler steps taken over all attempts
    positions: Optional[np.ndarray]  # (rows, slots) complex, read only before the exit


def _euler_exits(
    seed: int,
    index: np.ndarray,
    block: np.ndarray,
    dt: float,
    t_end: float,
    slots: Optional[np.ndarray] = None,
) -> _Exits:
    """First exits from the unit disk of planar Brownian motions started at
    the center, one per row: row i is block ``block[i]`` of path
    ``index[i]``.

    Step k of attempt a draws block k of
    ``path_stream(seed, index, block * 64 + a)``: two normals for the move
    and one uniform for the bridge test.  A step from block time t at
    distance d from the circle has inner-time variance
    ``h = max(phi(t + dt) - phi(t), (d / KAPPA)**2)``, cut at ``t_end``:
    fine near the circle, coarse far from it, and exact for Brownian
    motion either way.  A step ends the block when it lands outside the
    circle (exit where the segment crosses it), or when its uniform falls
    below ``exp(-2 d0 d1 / h)``, the chance that the Brownian bridge over
    the step crosses the tangent line (exit where the reflected bridge's
    mean path, from d0 to -d1, crosses it).  Every rule commutes with
    rotations, so exit angles from the center stay exactly uniform.  An
    attempt still inside at ``t_end`` restarts on the next sub-stream.

    ``slots`` (depth, k + 1) holds per block the ascending block times
    whose positions are wanted, padded with 1.0, which no step reaches.
    The position at slot j is drawn from the Brownian bridge over the step
    that contains it, pinned at the slot before when that lies in the same
    step, with the normals of block j of ``path_stream(seed, index,
    2**63 + block * 64)``; so the exits do not depend on the slots.
    Raises NoDiskExit when a row runs out of attempts.
    """
    rows = index.size
    angles = np.empty(rows)
    rel_times = np.empty(rows)
    attempts = np.empty(rows, dtype=np.int64)
    base = block.astype(np.uint64) * np.uint64(_MAX_ATTEMPTS)
    positions = None
    if slots is not None:
        n_slots = slots.shape[1] - 1
        draws = np.empty((3, n_slots, rows))  # freed by the first refill
        _draw(seed, index, n_slots, base | _GRID_BIT, 0, draws)
        noise = (draws[0] + 1j * draws[1]).T
        positions = np.zeros((rows, n_slots), dtype=complex)
        slot = np.zeros(rows, dtype=np.int64)
        wanted = slots[block, 0]
    # the rows still inside the disk, compacted as rows exit, with their
    # position, block time, distance to the circle and inner time
    live = np.arange(rows)
    sub = base.copy()
    x, y, t, s = np.zeros(rows), np.zeros(rows), np.zeros(rows), np.zeros(rows)
    d = np.ones(rows)
    # draws[k, c, at[i]] holds row live[i]'s draw k for its step step[i] + c;
    # every row reads column col, and all are refilled in place when it runs out
    step = np.zeros(rows, dtype=np.uint64)
    col = width = 0
    buffer = np.empty((3, max(_DRAW_STEPS * rows, _BLOCKS_PER_PASS)))
    steps = 0
    while live.size:
        if col == width:
            step += np.uint64(col)
            width = min(max(_DRAW_STEPS, _BLOCKS_PER_PASS // live.size), _MAX_DRAW_STEPS)
            draws = buffer[:, :width * live.size].reshape(3, width, live.size)
            _draw(seed, index[live], width, sub, step, draws)
            at = np.arange(live.size)
            col = 0
        gx, gy, gu = draws[:, col].take(at, axis=1)
        col += 1
        steps += live.size

        coarse = s + (d / KAPPA) ** 2
        t1 = np.minimum(np.maximum(t + dt, coarse / (1.0 + coarse)), t_end)
        s1 = t1 / (1.0 - t1)
        h = s1 - s
        sd = np.sqrt(h)
        x1 = x + sd * gx
        y1 = y + sd * gy
        d1 = 1.0 - np.hypot(x1, y1)
        # d1 <= 0 (outside) puts the bound at 1 or more, so that ends the block too
        ends = gu < np.exp(-2.0 * d * d1 / h)

        if slots is not None:
            over = np.flatnonzero(wanted <= t1)
            if over.size:
                sa, za = s[over], x[over] + 1j * y[over]
            while over.size:
                ids, j = live[over], slot[over]
                sg, sb = phi(wanted[over]), s1[over]
                w = (sg - sa) / (sb - sa)
                za = za + w * (x1[over] + 1j * y1[over] - za) + np.sqrt(w * (sb - sg)) * noise[ids, j]
                positions[ids, j] = za
                sa = sg
                slot[over] += 1
                wanted[over] = slots[block[ids], slot[over]]
                more = wanted[over] <= t1[over]
                over, sa, za = over[more], sa[more], za[more]

        done = np.flatnonzero(ends)
        if done.size:
            ids = live[done]
            px, py = x[done], y[done]
            dx, dy = x1[done] - px, y1[done] - py
            qa = dx * dx + dy * dy
            qb = 2.0 * (px * dx + py * dy)
            qc = px * px + py * py - 1.0
            e0, e1 = d[done], d1[done]
            frac = np.where(
                e1 <= 0.0,
                (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa),
                e0 / (e0 + np.maximum(e1, 0.0)),
            )
            angles[ids] = np.arctan2(py + frac * dy, px + frac * dx) % TAU
            t0 = t[done]
            rel_times[ids] = t0 + frac * (t1[done] - t0)
            attempts[ids] = (sub[done] - base[ids]).astype(np.int64) + 1

        x, y, t, d, s = x1, y1, t1, d1, s1
        censored = np.flatnonzero(~ends & (t1 >= t_end)) if t1.max() >= t_end else done[:0]
        if censored.size:
            sub[censored] += np.uint64(1)
            if np.any(sub[censored] - base[live[censored]] >= _MAX_ATTEMPTS):
                raise NoDiskExit(
                    f"no disk exit in {_MAX_ATTEMPTS} attempts; raise phi_cap or dt_base",
                    attempts=_MAX_ATTEMPTS,
                )
            # a restart draws from step 0 of its next sub-stream: refill now
            step += np.uint64(col)
            step[censored] = 0
            col = width = 0
            x[censored] = y[censored] = t[censored] = s[censored] = 0.0
            d[censored] = 1.0
            if slots is not None:
                slot[censored] = 0
                wanted[censored] = slots[block[live[censored]], 0]
        if done.size:
            keep = ~ends
            live, sub, step, at, x, y, t, d, s = (
                v[keep] for v in (live, sub, step, at, x, y, t, d, s)
            )
            if slots is not None:
                slot, wanted = slot[keep], wanted[keep]
    return _Exits(angles, rel_times, attempts, steps, positions)


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


def _block_sums(increments: np.ndarray) -> np.ndarray:
    """(paths, depth + 1, dim) start-of-block sums of (paths, depth, dim)
    increments, accumulated from zero as (0 + x_1) + x_2 + ..., so the bytes
    match a per-path running sum, signed zeros included."""
    sums = np.zeros((increments.shape[0], increments.shape[1] + 1, increments.shape[2]))
    for n in range(increments.shape[1]):
        sums[:, n + 1] = sums[:, n] + increments[:, n]
    return sums


def _simulate_range(
    rep: CellRepresentation,
    root: DiskNode,
    cfg: BrownianConfig,
    start: int,
    stop: int,
    per_block: Optional[list[list[tuple[int, float]]]] = None,
) -> IncrementBatch:
    """Simulate paths ``start`` to ``stop - 1`` of the checked tree ``rep``
    compiled to ``root`` and, given a grid split by ``_grid_by_block``,
    their grid values.  Path m draws only from the streams keyed by
    (cfg.seed, m), so a range has the bytes the same paths have inside
    any larger batch.  The caller applies the coarse-step guard.
    """
    depth, dim = rep.depth, rep.dimension
    count = max(stop - start, 0)
    n_grid = sum(len(block) for block in per_block) if per_block is not None else 0
    values = np.empty((count, n_grid, dim)) if per_block is not None else None
    if cfg.scheme == "euler":
        out = IncrementBatch(
            np.empty((count, depth, dim)), np.empty((count, depth)),
            np.empty((count, depth)), values, 0, 0, count * depth, cfg.seed, cfg.scheme,
        )
        _euler_range(root, cfg, start, per_block, out)
        return out

    us = path_uniforms(cfg.seed, start, stop, depth)
    increments, _ = walk_uniforms(root, us)
    if per_block is not None:
        sums = _block_sums(increments)
        for n, block in enumerate(per_block):
            for gi, _rel in block:
                values[:, gi] = sums[:, n]
    return IncrementBatch(
        increments, np.multiply(us, TAU, out=us), None, values, 0, 0, count * depth,
        cfg.seed, cfg.scheme,
    )


def _pull_inside(z: np.ndarray, cap: float) -> np.ndarray:
    """The complex array ``z``, with each point at distance ``cap`` or more
    from the center scaled in place to just inside it.  ``z *= f`` is
    spelled as the two real products CPython's complex-by-float product
    makes, so a point gets the bytes of the scalar statement."""
    x, y = z.real, z.imag
    r = np.hypot(x, y)
    far = r >= cap
    f = cap * (1.0 - 1e-12) / r[far]
    fx, fy = x[far], y[far]
    x[far], y[far] = fx * f - fy * 0.0, fx * 0.0 + fy * f
    return z


def _euler_range(
    root: DiskNode,
    cfg: BrownianConfig,
    start: int,
    per_block: Optional[list[list[tuple[int, float]]]],
    out: IncrementBatch,
) -> None:
    """Fill ``out`` with paths ``start`` onwards under the euler scheme, all
    blocks of ``_PATHS_PER_CHUNK`` paths at a time, and add their restarts,
    coarse blocks and steps to its counters."""
    count, depth = out.exit_angles.shape
    n_steps = _horizon_steps(cfg)
    chunk, slots = _PATHS_PER_CHUNK, None
    grid = per_block is not None and any(per_block)
    if grid:
        # a grid time reads the position at the last multiple of dt_base at
        # or before it; per block the distinct ones, ascending, padded with
        # 1.0, which no step reaches
        marks = [[min(int(rel / cfg.dt_base), n_steps) for _gi, rel in block]
                 for block in per_block]
        distinct = [sorted(set(ms)) for ms in marks]
        width = max(map(len, distinct))
        slots = np.ones((depth, width + 1))
        slot_of = []
        for n, (ms, block) in enumerate(zip(distinct, marks)):
            slots[n, :len(ms)] = np.array(ms) * cfg.dt_base
            where = {m: j for j, m in enumerate(ms)}
            slot_of.append([where[m] for m in block])
        chunk = min(chunk, max(_GRID_SLOTS_PER_CHUNK // (depth * width), 1))
    first = np.uint64(start & _MASK64)
    cap = 1.0 - BOUNDARY_EPS
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        index = np.repeat(first + np.arange(lo, hi, dtype=np.uint64), depth)  # wraps mod 2^64
        exits = _euler_exits(
            cfg.seed, index, np.tile(np.arange(depth), hi - lo), cfg.dt_base,
            n_steps * cfg.dt_base, slots,
        )
        angles = exits.angles.reshape(hi - lo, depth)
        rel = exits.rel_times.reshape(hi - lo, depth)
        visited = [] if grid else None
        out.increments[lo:hi], _ = walk_uniforms(root, angles / TAU, visited=visited)
        out.exit_angles[lo:hi] = angles
        out.exit_times[lo:hi] = rel + np.arange(depth)
        out.restarts += int(exits.attempts.sum()) - exits.attempts.size
        out.coarse_blocks += int(np.count_nonzero(rel / cfg.dt_base < MIN_STEPS_BEFORE_EXIT))
        out.steps += exits.steps
        if not grid:
            continue
        # after the block's exit a grid time reads the block's end sum; before
        # it, the start sum plus the extension at the position, at the node
        sums = _block_sums(out.increments[lo:hi])
        values = out.values[lo:hi]
        for n, block in enumerate(per_block):
            for gi, _t in block:
                values[:, gi] = sums[:, n + 1]
        positions = exits.positions.reshape(hi - lo, depth, width)
        for node, idx, n in visited:
            # one extension for all grid columns of the node's level, each
            # with the paths still inside the disk at its time
            cols = []
            for (gi, t), j in zip(per_block[n], slot_of[n]):
                pre = idx[t < rel[idx, n]]
                if pre.size:
                    cols.append((gi, pre, j))
            if not cols:
                continue
            z = np.concatenate([positions[pre, n, j] for _gi, pre, j in cols])
            ext = harmonic_extension(node, _pull_inside(z, cap), BOUNDARY_EPS)
            at = 0
            for gi, pre, _j in cols:
                values[pre, gi] = sums[pre, n] + ext[at:at + pre.size]
                at += pre.size


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
    _coarse_guard(path.coarse_blocks, path.total_blocks)
    return EmbeddedPath(
        times=grid,
        values=path.values[0],
        increments=path.increments[0],
        exit_points=path.exit_angles[0],
        exit_times=(
            np.full(rep.depth, math.nan) if path.exit_times is None else path.exit_times[0]
        ),
        restarts=path.restarts,
        coarse_blocks=path.coarse_blocks,
        scheme=cfg.scheme,
        seed=cfg.seed,
        path_index=path_index,
    )


def _stack(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Rows of ``head`` then ``tail``, without a copy when one is empty."""
    if len(head) and len(tail):
        return np.concatenate([head, tail])
    return tail if len(tail) else head


def simulate_increments(
    rep: CellRepresentation,
    count: int,
    cfg: BrownianConfig,
    grid=None,
    grid_count: int = 0,
) -> IncrementBatch:
    """Exact per-block increments of ``count`` paths and, given ``grid``,
    the trajectory values of the first ``grid_count`` of them on it.

    Every path is simulated once, in path order, and path m draws only
    from the streams keyed by (cfg.seed, m): the increments, angles and
    counters do not depend on the grid, and ``values`` (None without a
    grid) are those of ``simulate_grid_batch(rep, grid, grid_count, cfg)``.
    Raises StepTooCoarse when at least 1% of all simulated euler blocks
    exited in fewer than the minimum number of steps, and then when 1% of
    the grid paths' blocks did.
    """
    if not 0 <= grid_count <= count:
        raise ValueError("grid_count must lie between 0 and count")
    verify_zero_sections(rep).require_zero()
    root = compile_disk(rep)
    per_block = None if grid is None else _grid_by_block(np.asarray(grid, dtype=float), rep.depth)
    head = _simulate_range(rep, root, cfg, 0, grid_count, per_block)
    tail = _simulate_range(rep, root, cfg, grid_count, count)
    coarse = head.coarse_blocks + tail.coarse_blocks
    _coarse_guard(coarse, count * rep.depth)
    _coarse_guard(head.coarse_blocks, head.total_blocks)
    return IncrementBatch(
        increments=_stack(head.increments, tail.increments),
        exit_angles=_stack(head.exit_angles, tail.exit_angles),
        exit_times=None if tail.exit_times is None else _stack(head.exit_times, tail.exit_times),
        values=head.values,
        restarts=head.restarts + tail.restarts,
        coarse_blocks=coarse,
        total_blocks=count * rep.depth,
        seed=cfg.seed,
        scheme=cfg.scheme,
        steps=head.steps + tail.steps,
    )


def simulate_grid_batch(
    rep: CellRepresentation, grid, count: int, cfg: BrownianConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Trajectory values on a common grid for many paths: the (values
    (count, len(grid), dim), increments (count, depth, dim), restarts) of
    ``simulate_increments(rep, count, cfg, grid, count)``."""
    batch = simulate_increments(rep, count, cfg, grid, count)
    return batch.values, batch.increments, batch.restarts


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

    def mean_ok(self) -> bool:
        return bool(self.max_mean_over_se <= 5.0)

    def slopes_ok(self) -> bool:
        # 1e-9 absorbs float rounding when the fit is exact (stderr ~ 0)
        fitted = [s for s in self.slopes if s.slope is not None]
        return all(abs(s.slope - 1.0) <= 5.0 * s.stderr + 1e-9 for s in fitted)


def martingale_check(
    values: np.ndarray, times, min_paths: int = 10**4
) -> MartingaleReport:
    """Numerical martingale diagnostics for a batch of trajectories.

    ``values`` is (paths, len(times), dim), and every grid time is a
    checkpoint.  Reports the largest |mean| / SE over checkpoints, and for
    each consecutive checkpoint pair the binned conditional-mean
    regression slope of the later value on the earlier one (a martingale
    has slope one).
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if values.ndim != 3 or values.shape[1] != len(times):
        raise ValueError("values must be (paths, len(times), dim)")
    if values.shape[0] < min_paths:
        raise ValueError(
            f"need at least {min_paths} paths, got {values.shape[0]}"
        )
    n_paths = values.shape[0]
    # (times, paths, dim): the paths of one grid time lie together, so the
    # sums over paths are numpy's pairwise sums, which the report bytes keep
    by_time = np.ascontiguousarray(values.transpose(1, 0, 2))
    means = by_time.mean(axis=1)
    stderrs = by_time.std(axis=1, ddof=1) / math.sqrt(n_paths)
    ratio = 0.0
    for mean, se in zip(means.ravel(), stderrs.ravel()):
        if se > 0:
            ratio = max(ratio, float(abs(mean) / se))
        elif mean != 0.0:
            ratio = math.inf
    slopes: list[SlopeFit] = []
    for a in range(len(times) - 1):
        for coord in range(values.shape[2]):
            x = by_time[a, :, coord]
            y = by_time[a + 1, :, coord]
            slopes.append(_binned_slope(x, y, times[a], times[a + 1], coord))
    return MartingaleReport(times, means, stderrs, ratio, slopes)


def _binned_slope(
    x: np.ndarray, y: np.ndarray, t_from: float, t_to: float, coord: int
) -> SlopeFit:
    uniq = np.unique(x)
    if len(uniq) == 1:
        return SlopeFit(t_from, t_to, coord, None, None, 0, "constant conditioning value")
    edges = np.unique(np.quantile(x, np.linspace(0, 1, MARTINGALE_BINS + 1)))
    if len(uniq) <= 256 or len(edges) < 3:
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
