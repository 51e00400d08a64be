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
    their points on the unit circle, ``values`` holds one row per cell and
    ``children`` the compiled sub-partitions (None at the last level).
    """

    __slots__ = ("bounds", "angles", "points", "values", "children")

    def __init__(self, node: Node, children: list[Optional[DiskNode]]):
        ends = cell_bounds(node)
        self.bounds = np.array([float(c) for c in ends[1:-1]])
        self.angles = tuple(TAU * float(c) for c in ends)
        self.points = tuple(cmath.exp(1j * a) for a in self.angles)
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


def _inside(z, boundary_eps: float) -> complex:
    """``z`` as a complex number, refused within ``boundary_eps`` of the circle."""
    z = complex(z[0], z[1]) if isinstance(z, (tuple, list, np.ndarray)) else complex(z)
    r = abs(z)
    if r >= 1.0 - boundary_eps:
        raise TooCloseToBoundary(f"|z| = {r} within {boundary_eps} of the circle")
    return z


def _measures(z: complex, angles, points) -> list[float]:
    """Harmonic measures from the checked point ``z`` of the arcs between
    ``angles`` (circle ``points``), with one phase per end."""
    ends = [cmath.phase((w - z) / (1.0 - z.conjugate() * w)) for w in points] if z else None
    return [1.0 if hi - lo == TAU else (hi - lo) / TAU if ends is None
            else (ends[i + 1] - ends[i]) % TAU / TAU
            for i, (lo, hi) in enumerate(zip(angles, angles[1:]))]


def harmonic_measure(z, arc, boundary_eps: float = DEFAULT_BOUNDARY_EPS) -> float:
    """Probability that Brownian motion from z exits through the arc.

    ``arc`` is an (angle_lo, angle_hi) pair with 0 <= hi - lo <= 2*pi.
    From the center the result is exactly the arc length over 2*pi.
    """
    lo, hi = arc
    if hi < lo:
        raise ValueError(f"arc has hi {hi} < lo {lo}")
    span = hi - lo
    if span > TAU:
        raise ValueError(f"arc span {span} exceeds the full circle")
    z = _inside(z, boundary_eps)
    return _measures(z, (lo, hi), (cmath.exp(1j * lo), cmath.exp(1j * hi)))[0]


def harmonic_extension(
    node: DiskNode, z, boundary_eps: float = DEFAULT_BOUNDARY_EPS
) -> np.ndarray:
    """Harmonic extension of a node's boundary data at an interior point."""
    z = _inside(z, boundary_eps)
    out = np.zeros(node.values.shape[1])
    for value, measure in zip(node.values, _measures(z, node.angles, node.points)):
        out += value * measure
    return out
