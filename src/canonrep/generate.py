"""Deterministic random fixtures: finite processes with exact rational laws.

The generator is seeded and platform-stable (random.Random), so a fixture
is reproducible byte for byte.  The zero-mean variant solves the last
atom of every node from the others, keeping conditional means exactly
zero in rational arithmetic.  The dyadic variant builds symmetric nodes
(value pairs v, -v with equal dyadic probabilities), which keeps every
value and probability exactly representable in binary floats.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .errors import SizeGuard
from .process import Branch, FiniteProcess, Node, PairProcess, Value

MAX_DEPTH = 8
MAX_BRANCHING = 8


def _guard(depth: int, branching: int, dimension: int) -> None:
    if not (1 <= depth <= MAX_DEPTH):
        raise SizeGuard(f"depth {depth} outside 1..{MAX_DEPTH}")
    if not (1 <= branching <= MAX_BRANCHING):
        raise SizeGuard(f"branching {branching} outside 1..{MAX_BRANCHING}")
    if dimension < 1:
        raise SizeGuard(f"dimension {dimension} must be at least 1")


def _random_probs(rng: Random, k: int) -> list[Fraction]:
    if k == 1:
        return [Fraction(1)]
    total = k * rng.randint(2, 8) + rng.randint(0, 5)
    cuts = sorted(rng.sample(range(1, total), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [Fraction(p, total) for p in parts]


def _random_value(rng: Random, dimension: int) -> Value:
    return tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(dimension)
    )


def _distinct_values(rng: Random, k: int, dimension: int) -> list[Value]:
    """``k`` distinct random values, redrawing repeats."""
    values: list[Value] = []
    while len(values) < k:
        v = _random_value(rng, dimension)
        if v not in values:
            values.append(v)
    return values


def _tree(depth: int, draw) -> Node:
    """A depth-``depth`` tree, depth first: every node's atoms are the
    (value, prob) pairs ``draw(level)`` returns before any of its children
    is built, and each branch's subtree is built before the next branch's."""

    def build(level: int) -> Node:
        atoms = draw(level)
        last = level + 1 == depth
        return Node(tuple(Branch(v, p, None if last else build(level + 1)) for v, p in atoms))

    return build(0)


def _random_node_law(
    rng: Random, branching: int, dimension: int, mds: bool
) -> list[tuple[Value, Fraction]]:
    """One random conditional law of up to ``branching`` atoms.

    The drawn atoms are distinct, but with ``mds`` the last atom is then
    solved so the mean is exactly zero, and it can equal a drawn one; the
    law then has fewer distinct values than branches (representations
    merge them).  That is common: 1,807 of the 3,000 ``mds`` trees of seeds
    0-2,999 (depth 4 or 5, branching 4, dimension 1) have such a node.
    The draw stays as it is: the benchmark's fixtures come from it.
    """
    k = rng.randint(1, branching)
    if mds and k == 1:
        values: list[Value] = [(Fraction(0),) * dimension]
    else:
        values = _distinct_values(rng, k, dimension)
    probs = _random_probs(rng, k)
    if mds and k > 1:
        # solve the last atom coordinatewise so the mean vanishes
        rest = [
            -sum((p * v[i] for p, v in zip(probs, values[:-1])), Fraction(0))
            / probs[-1]
            for i in range(dimension)
        ]
        values[-1] = tuple(rest)
    return list(zip(values, probs))


def random_process(
    depth: int,
    branching: int,
    dimension: int,
    seed: int,
    mds: bool = False,
) -> FiniteProcess:
    """Random fixture; with ``mds`` every conditional mean is exactly zero."""
    _guard(depth, branching, dimension)
    rng = Random(seed)
    root = _tree(depth, lambda level: _random_node_law(rng, branching, dimension, mds))
    return FiniteProcess(dimension, depth, root)


def random_independent_process(
    depth: int,
    branching: int,
    dimension: int,
    seed: int,
    mds: bool = False,
) -> FiniteProcess:
    """Random fixture with one conditional law per level, shared by all
    histories (independent steps).

    This is the finite class whose decoupled copy has the same joint law
    as the source, so these fixtures exercise the full law-equality
    statement about decoupled copies.
    """
    _guard(depth, branching, dimension)
    rng = Random(seed)
    levels = [_random_node_law(rng, branching, dimension, mds) for _ in range(depth)]
    return FiniteProcess(dimension, depth, _tree(depth, lambda level: levels[level]))


def random_tangent_pair(
    depth: int,
    branching: int,
    dimension: int,
    seed: int,
) -> PairProcess:
    """Random tangent pair built from probability-preserving permutations.

    Every node draws equal-probability atoms and couples the second
    component as a random permutation of the first, so the two components
    share each conditional law exactly while being pathwise dependent
    (the negated coin is the two-atom case).
    """
    _guard(depth, branching, dimension)
    rng = Random(seed)

    def draw(level: int) -> list[tuple[Value, Fraction]]:
        k = rng.randint(1, branching)
        values = _distinct_values(rng, k, dimension)
        order = list(range(k))
        rng.shuffle(order)
        return [(values[i] + values[order[i]], Fraction(1, k)) for i in range(k)]

    return PairProcess(FiniteProcess(2 * dimension, depth, _tree(depth, draw)), dimension)


def random_dyadic_mds(
    depth: int,
    pair_count: int,
    dimension: int,
    seed: int,
) -> FiniteProcess:
    """Zero-mean fixture whose values and probabilities are all dyadic.

    Each node holds ``pair_count`` symmetric value pairs (v, -v) with
    equal probabilities 1 / (2 * pair_count); pair_count must be a power
    of two so the probabilities stay dyadic.
    """
    _guard(depth, 2 * pair_count, dimension)
    if pair_count & (pair_count - 1):
        raise SizeGuard(f"pair_count {pair_count} must be a power of two")
    rng = Random(seed)
    prob = Fraction(1, 2 * pair_count)

    def dyadic_vec() -> Value:
        return tuple(
            Fraction(rng.randint(1, 8), 1 << rng.randint(0, 3))
            for _ in range(dimension)
        )

    def draw(level: int) -> list[tuple[Value, Fraction]]:
        values: list[Value] = []
        while len(values) < 2 * pair_count:
            v = dyadic_vec()
            neg = tuple(-c for c in v)
            if v not in values and neg not in values:
                values.extend([v, neg])
        return [(v, prob) for v in sorted(values)]

    return FiniteProcess(dimension, depth, _tree(depth, draw))
