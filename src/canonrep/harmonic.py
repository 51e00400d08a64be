"""Harmonic measure on the unit disk and piecewise-constant boundary data.

A representation node becomes boundary data on the circle by the angle
change theta = 2*pi*x: each cell turns into an arc carrying the cell's
value.  The harmonic extension of that data at an interior point is the
expectation of the boundary value at the Brownian exit point, so an
arc's harmonic measure is the exit probability through it.  A ``DiskNode``
is a node compiled to floats: the tree walk searches its cell ends, and
the harmonic extension reads its cells as arcs.

The measure of an arc seen from z is computed conformally: the Mobius
map w -> (w - z) / (1 - conj(z) w) sends z to the origin and the arc to
another arc whose normalized length is the answer.  From the origin the
measure of an arc is exactly its length over 2*pi, so exit angles from
the center are uniform.

One kernel serves ``harmonic_measure`` and ``harmonic_extension``, for
one point or a 1-D array of points at once.  It works on the real and
imaginary parts as float64 arrays and spells out the formulas CPython
uses for complex numbers: ``-`` and ``*`` part by part, Smith's division
with both branches chosen by ``np.where``, ``abs`` as ``np.hypot`` (the
platform's ``hypot``), and the phase as ``math.atan2`` per arc end.  +,
-, * and / are correctly rounded in every numpy loop, but numpy's complex
ufuncs and ``np.arctan2`` have SIMD loops that may differ from them in
the last bit, so the array kernel gives the bytes of a loop of scalar
``cmath`` calls on any dispatch; the bytes still depend on the libm.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from .errors import TooCloseToBoundary
from .process import Node, distinct_nodes
from .representation import CellRepresentation, cell_bounds

TAU = 2.0 * math.pi

DEFAULT_BOUNDARY_EPS = 1e-6


class DiskNode:
    """A representation node compiled to floats, which is its boundary data.

    ``bounds`` are the interior cell ends (search them with ``side="right"``
    for the half-open cells), ``angles`` all cell ends times 2*pi (cell i
    is the arc from ``angles[i]`` to ``angles[i + 1]``) and ``points``
    their points on the unit circle as a complex array, ``values`` holds
    one row per cell and ``children`` the compiled sub-partitions (None at
    the last level).
    """

    __slots__ = ("bounds", "angles", "points", "values", "children")

    def __init__(self, node: Node, children: list[Optional[DiskNode]]):
        ends = cell_bounds(node)
        self.bounds = np.array([float(c) for c in ends[1:-1]])
        self.angles = tuple(TAU * float(c) for c in ends)
        self.points = np.array([cmath.exp(1j * a) for a in self.angles])
        self.values = np.array([[float(c) for c in br.value] for br in node.branches])
        self.children = children


def compile_disk(rep: CellRepresentation) -> DiskNode:
    """The representation compiled to floats, one DiskNode per distinct node."""
    compiled: dict[int, DiskNode] = {}
    for node in distinct_nodes(rep.root):
        compiled[id(node)] = DiskNode(node, [
            compiled[id(br.child)] if br.child is not None else None
            for br in node.branches
        ])
    return compiled[id(rep.root)]


def walk_uniforms(
    root: DiskNode, xs: np.ndarray, ys: Optional[np.ndarray] = None, visited: Optional[list] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Cell values along the paths that uniforms drive through the tree.

    Row m of ``xs`` (paths, depth) walks path m: at level k it reads the
    cell holding ``xs[m, k]`` and descends into that cell's child.  Row m
    of ``ys``, if given, reads the cell holding ``ys[m, k]`` at the same
    nodes (the decoupled copy).  Returns (paths, depth, dim) values for
    ``xs`` and for ``ys`` (None without it); ``visited`` gets (node, path
    indices, level) per node.  All paths sitting at one node are searched
    in one numpy call, so the Python work follows the nodes, not the paths.
    """
    count, depth = xs.shape
    dim = root.values.shape[1]
    direct = np.empty((count, depth, dim))
    copy = np.empty((count, depth, dim)) if ys is not None else None
    # depth first over (node, indices of the paths at it, its level); an
    # explicit stack, since a closure calling itself is a reference cycle
    # that would keep xs and ys alive until the cyclic collector runs
    stack = [(root, np.arange(count), 0)] if count else []
    while stack:
        node, idx, k = stack.pop()
        if visited is not None:
            visited.append((node, idx, k))
        cells = np.searchsorted(node.bounds, xs[idx, k], side="right")
        direct[idx, k] = node.values[cells]
        if copy is not None:
            copy[idx, k] = node.values[np.searchsorted(node.bounds, ys[idx, k], side="right")]
        if k + 1 < depth:
            for c, child in enumerate(node.children):
                sub = idx[cells == c]
                if sub.size:
                    stack.append((child, sub, k + 1))
    return direct, copy


def _arc_measures(z: np.ndarray, angles, points: np.ndarray, boundary_eps: float) -> np.ndarray:
    """(len(z), arcs) harmonic measures, from each point of the 1-D complex
    array ``z``, of the arcs between consecutive ``angles``, whose ends on
    the circle are the complex array ``points``.  Raises TooCloseToBoundary
    when any point lies within ``boundary_eps`` of the circle."""
    r = np.hypot(z.real, z.imag)
    near = r >= 1.0 - boundary_eps
    if near.any():
        raise TooCloseToBoundary(f"|z| = {r[near][0]} within {boundary_eps} of the circle")
    x, y = z.real[:, None], z.imag[:, None]
    cx, cy = x, -y  # conj(z)
    wx, wy = points.real, points.imag
    # (w - z) / (1 - conj(z) w) part by part, as CPython's complex - and *
    # give them, the float 1 read as 1 + 0j
    ax, ay = wx - x, wy - y
    bx = 1.0 - (cx * wx - cy * wy)
    by = 0.0 - (cx * wy + cy * wx)
    # Smith's quotient: divide through by the part of b larger in size
    first = np.abs(bx) >= np.abs(by)
    big, small = np.where(first, bx, by), np.where(first, by, bx)
    u, v = np.where(first, ax, ay), np.where(first, ay, ax)
    ratio = small / big
    denom = big + small * ratio
    qx = (u + v * ratio) / denom
    qy = np.where(first, v - u * ratio, u * ratio - v) / denom
    # libm's atan2 per end; np.arctan2's SIMD loops differ in the last bit
    ends = np.fromiter(map(math.atan2, qy.ravel().tolist(), qx.ravel().tolist()), float, qx.size)
    measures = np.remainder(np.diff(ends.reshape(qx.shape), axis=1), TAU) / TAU
    spans = np.diff(angles)
    measures[(z.real == 0.0) & (z.imag == 0.0)] = spans / TAU
    measures[:, spans == TAU] = 1.0
    return measures


def _as_points(z) -> np.ndarray:
    """``z``, one point or a 1-D array of points, as a complex array."""
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise ValueError(f"z must be one point or a 1-D array of points, got shape {z.shape}")
    return z


def harmonic_measure(z, arc, boundary_eps: float = DEFAULT_BOUNDARY_EPS):
    """Probability that Brownian motion from z exits through the arc.

    ``arc`` is an (angle_lo, angle_hi) pair with 0 <= hi - lo <= 2*pi.
    From the center the result is exactly the arc length over 2*pi.  One
    point gives a float, a 1-D array of points an array of measures.
    """
    lo, hi = arc
    if hi < lo:
        raise ValueError(f"arc has hi {hi} < lo {lo}")
    span = hi - lo
    if span > TAU:
        raise ValueError(f"arc span {span} exceeds the full circle")
    z = _as_points(z)
    ends = np.array([cmath.exp(1j * lo), cmath.exp(1j * hi)])
    measures = _arc_measures(z.reshape(-1), (lo, hi), ends, boundary_eps)[:, 0]
    return float(measures[0]) if z.ndim == 0 else measures


def harmonic_extension(
    node: DiskNode, z, boundary_eps: float = DEFAULT_BOUNDARY_EPS
) -> np.ndarray:
    """Harmonic extension of a node's boundary data at the interior point
    ``z``, shape (dim,), or at each of a 1-D array of points, shape
    (points, dim)."""
    z = _as_points(z)
    measures = _arc_measures(z.reshape(-1), node.angles, node.points, boundary_eps)
    out = np.zeros((measures.shape[0], node.values.shape[1]))
    for value, measure in zip(node.values, measures.T):
        out += value * measure[:, None]
    return out[0] if z.ndim == 0 else out
