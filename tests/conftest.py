"""Shared fixtures: small hand-built processes used across the suite."""

from fractions import Fraction as F

import pytest

from canonrep import Branch, FiniteProcess, Node, joint_law
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
