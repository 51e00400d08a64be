"""Shared fixtures: small hand-built processes used across the suite."""

import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from canonrep import (
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    iter_prefix_laws,
    joint_law,
)
from canonrep.harmonic import TAU
from canonrep.process import distinct_nodes
from canonrep.representation import Interval, cell_bounds


def leaf(*pairs):
    return Node(tuple(Branch(v, p, None) for v, p in pairs))


def cells(node: Node) -> list[tuple[Interval, Branch]]:
    """Each branch of a representation node with its cell, from ``cell_bounds``."""
    ends = cell_bounds(node)
    return [(Interval(lo, hi), br) for lo, hi, br in zip(ends, ends[1:], node.branches)]


def unshared(node: Node) -> Node:
    """A copy of the tree under ``node`` in which no two branches share a node."""
    return Node(tuple(
        Branch(br.value, br.prob, None if br.child is None else unshared(br.child))
        for br in node.branches
    ))


def step_marginal_law(p: FiniteProcess, step: int) -> dict:
    """Unconditional law of the value at 1-based step ``step``."""
    out: dict = {}
    for path, prob in joint_law(p).items():
        v = path[step - 1]
        out[v] = out.get(v, F(0)) + prob
    return out


def map_values(root: Node, fn) -> Node:
    """The tree with every value v replaced by fn(v), shared nodes kept shared."""
    mapped: dict[int, Node] = {}
    for node in distinct_nodes(root):
        mapped[id(node)] = Node(tuple(
            Branch(fn(br.value), br.prob, mapped[id(br.child)] if br.child else None)
            for br in node.branches
        ))
    return mapped[id(root)]


def pair_from_identical(p: FiniteProcess) -> PairProcess:
    """Pair a process with itself pathwise (both components move together)."""
    return PairProcess(
        FiniteProcess(2 * p.dimension, p.depth, map_values(p.root, lambda v: v + v)),
        p.dimension,
    )


def swap_components(pq: PairProcess) -> PairProcess:
    """Exchange the two components of a pair process."""
    d = pq.component_dim
    root = map_values(pq.process.root, lambda v: v[d:] + v[:d])
    return PairProcess(FiniteProcess(pq.process.dimension, pq.process.depth, root), d)


def component_conditional_means(pq: PairProcess, which: int) -> CheckResult:
    """Exact zero-mean check for one component under the pair filtration:
    ``is_mds`` on the coordinates of component ``which`` (0 or 1)."""
    d = pq.component_dim
    part = slice(None, d) if which == 0 else slice(d, None)
    zero = (F(0),) * d
    for prefix, law in iter_prefix_laws(pq.process, len):
        mean = zero
        for v, q in law.items():
            mean = tuple(m + q * c for m, c in zip(mean, v[part]))
        if mean != zero:
            return CheckResult(False, {"prefix": prefix, "mean": mean})
    return CheckResult(True, None)


def reference_measures(z: complex, angles) -> list[float]:
    """Harmonic measures from the point ``z`` of the arcs between consecutive
    ``angles``, one scalar ``cmath`` formula per arc end: the loop whose
    bytes the array kernel in ``canonrep.harmonic`` reproduces."""
    z = complex(z)
    points = [cmath.exp(1j * a) for a in angles]
    ends = [cmath.phase((w - z) / (1.0 - z.conjugate() * w)) for w in points] if z else None
    return [1.0 if hi - lo == TAU else (hi - lo) / TAU if ends is None
            else (ends[i + 1] - ends[i]) % TAU / TAU
            for i, (lo, hi) in enumerate(zip(angles, angles[1:]))]


def reference_extension(node, z: complex) -> np.ndarray:
    """Harmonic extension of a ``DiskNode``'s boundary data at ``z``, its
    cells summed in order from ``reference_measures``."""
    out = np.zeros(node.values.shape[1])
    for value, measure in zip(node.values, reference_measures(z, node.angles)):
        out += value * measure
    return out


def v1(x):
    return (F(x),)


@pytest.fixture
def fair_coin():
    """One fair +-1 step."""
    return FiniteProcess(1, 1, leaf((v1(-1), F(1, 2)), (v1(1), F(1, 2))))


@pytest.fixture
def skew_mds():
    """One zero-mean step with atoms +1 (2/3) and -2 (1/3)."""
    return FiniteProcess(1, 1, leaf((v1(1), F(2, 3)), (v1(-2), F(1, 3))))


@pytest.fixture
def coin_product():
    """Two independent fair coins."""
    step2 = leaf((v1(-1), F(1, 2)), (v1(1), F(1, 2)))
    root = Node(
        (
            Branch(v1(-1), F(1, 2), step2),
            Branch(v1(1), F(1, 2), step2),
        )
    )
    return FiniteProcess(1, 2, root)


@pytest.fixture
def sign_flip():
    """First step +-1 fair; second step is the first times a fresh fair sign."""
    after_minus = leaf((v1(1), F(1, 2)), (v1(-1), F(1, 2)))
    after_plus = leaf((v1(-1), F(1, 2)), (v1(1), F(1, 2)))
    root = Node(
        (
            Branch(v1(-1), F(1, 2), after_minus),
            Branch(v1(1), F(1, 2), after_plus),
        )
    )
    return FiniteProcess(1, 2, root)


@pytest.fixture
def copy_chain():
    """First step 0/1 fair; second step repeats the first deterministically."""
    repeat0 = leaf((v1(0), F(1)))
    repeat1 = leaf((v1(1), F(1)))
    root = Node(
        (
            Branch(v1(0), F(1, 2), repeat0),
            Branch(v1(1), F(1, 2), repeat1),
        )
    )
    return FiniteProcess(1, 2, root)
