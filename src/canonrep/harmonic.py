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
measure of an arc is exactly its length over 2*pi, and exit sampling
inverts the same map, so sampling needs no rejection anywhere.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from .errors import TooCloseToBoundary
from .process import Node, ValuePath
from .representation import CellRepresentation, cell_bounds, locate_node

TAU = 2.0 * math.pi

DEFAULT_BOUNDARY_EPS = 1e-6


class DiskNode:
    """A representation node compiled to floats, which is its boundary data.

    ``bounds`` are the interior cell ends (search them with ``side="right"``
    for the half-open cells), ``angles`` all cell ends times 2*pi (cell i
    is the arc from ``angles[i]`` to ``angles[i + 1]``), ``values`` holds
    one row per cell and ``children`` the compiled sub-partitions (None at
    the last level).
    """

    __slots__ = ("bounds", "angles", "values", "children")

    def __init__(self, node: Node, children: list[Optional[DiskNode]]):
        ends = cell_bounds(node)
        self.bounds = np.array([float(c) for c in ends[1:-1]])
        self.angles = tuple(TAU * float(c) for c in ends)
        self.values = np.array([[float(c) for c in br.value] for br in node.branches])
        self.children = children


def _compile(node: Node, compiled: dict[int, DiskNode]) -> DiskNode:
    disk = compiled.get(id(node))
    if disk is None:
        disk = compiled[id(node)] = DiskNode(node, [
            _compile(br.child, compiled) if br.child is not None else None
            for br in node.branches
        ])
    return disk


def compile_disk(rep: CellRepresentation) -> DiskNode:
    """The representation compiled to floats, one DiskNode per distinct node."""
    return _compile(rep.root, {})


def arc_function(rep: CellRepresentation, prefix: ValuePath) -> DiskNode:
    """Boundary data of the node reached by a realizable value prefix."""
    return _compile(locate_node(rep, prefix), {})


def walk_uniforms(
    root: DiskNode, xs: np.ndarray, ys: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Cell values along the paths that uniforms drive through the tree.

    Row m of ``xs`` (paths, depth) walks path m: at level k it reads the
    cell holding ``xs[m, k]`` and descends into that cell's child.  Row m
    of ``ys``, if given, reads the cell holding ``ys[m, k]`` at the same
    nodes (the decoupled copy).  Returns (paths, depth, dim) values for
    ``xs`` and for ``ys`` (None without it).  All paths sitting at one
    node are searched in one numpy call, so the Python work follows the
    visited nodes, not the paths.
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


def _as_complex(z) -> complex:
    if isinstance(z, complex):
        return z
    if isinstance(z, (tuple, list, np.ndarray)):
        return complex(z[0], z[1])
    return complex(z)


def _boundary_angle(z: complex, theta: float) -> float:
    w = cmath.exp(1j * theta)
    return cmath.phase((w - z) / (1.0 - z.conjugate() * w))


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
    z = _as_complex(z)
    r = abs(z)
    if r >= 1.0 - boundary_eps:
        raise TooCloseToBoundary(f"|z| = {r} within {boundary_eps} of the circle")
    if span == TAU:
        return 1.0
    if r == 0.0:
        return span / TAU
    delta = (_boundary_angle(z, hi) - _boundary_angle(z, lo)) % TAU
    return delta / TAU


def harmonic_extension(
    node: DiskNode, z, boundary_eps: float = DEFAULT_BOUNDARY_EPS
) -> np.ndarray:
    """Harmonic extension of a node's boundary data at an interior point."""
    out = np.zeros(node.values.shape[1])
    for lo, hi, value in zip(node.angles, node.angles[1:], node.values):
        out += value * harmonic_measure(z, (lo, hi), boundary_eps)
    return out


def exit_angle(z, u: float) -> float:
    """Exit angle with uniform driver u in [0, 1): closed-form inverse CDF.

    Pushes the uniform angle 2*pi*u through the inverse Mobius map, so
    the distribution over any arc equals its harmonic measure from z.
    """
    z = _as_complex(z)
    w = cmath.exp(1j * TAU * u)
    t = (w + z) / (1.0 + z.conjugate() * w)
    return cmath.phase(t) % TAU


def sample_exit(z, rng: np.random.Generator) -> float:
    """Draw one Brownian exit angle from z (exact, no path simulation)."""
    return exit_angle(z, float(rng.random()))
