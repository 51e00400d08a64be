"""Zero-mean-section representations and decoupled tangent copies.

A martingale-difference process (zero conditional mean at every prefix)
is represented so that every node partition integrates to the zero
vector: sum over cells of length times value is exactly zero.  A
representation is a process tree whose branch probabilities are its cell
lengths, so that sum is read off each node's branches.

The decoupled copy lives on the product square [0,1]^N x [0,1]^N and is
read straight off the representation d: e_n(x, y) = d_n(x_1, ..., x_{n-1},
y_n), so the direct sequence reads its own coordinates and the copy
re-reads the same history but feeds a fresh coordinate into the last
slot of each step.  The copy is tangent to the direct sequence and is
conditionally independent given the first coordinate block, which is the
canonical way to decouple.  No object stands for the copy:
``pair_law(r)`` builds its exact joint law with the direct sequence, and
``bench.sample_paths(r, ...)`` samples both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotMartingaleDifference
from .process import (
    ZERO,
    Branch,
    FiniteProcess,
    Node,
    PairProcess,
    distinct_nodes,
    fmt_prefix,
    is_mds,
)
from .representation import CellRepresentation, canonical_representation


@dataclass(frozen=True)
class ZeroSectionReport:
    """Section integrals of a representation, summarized.

    ``max_abs`` is the largest coordinate-wise absolute deviation from
    zero across all nodes (an exact rational); it is zero exactly when
    the representation has zero-mean sections everywhere.
    """

    max_abs: Fraction

    def require_zero(self) -> None:
        """Raise NotMartingaleDifference unless every section integral is zero."""
        if self.max_abs != 0:
            raise NotMartingaleDifference(
                f"max section deviation {self.max_abs}", max_abs=self.max_abs
            )


def verify_zero_sections(r: CellRepresentation) -> ZeroSectionReport:
    """Integrate every node partition exactly and report the largest deviation.

    Each distinct node is integrated once, however many prefixes reach it
    (``canonical_representation`` shares equal subtrees).
    """
    worst = ZERO
    for node in distinct_nodes(r.root):
        mean = [ZERO] * r.dimension
        for br in node.branches:
            for i, c in enumerate(br.value):
                mean[i] += br.prob * c
        worst = max(worst, max((abs(c) for c in mean), default=ZERO))
    return ZeroSectionReport(worst)


def represent_mds(p: FiniteProcess) -> CellRepresentation:
    """Canonical representation of a martingale-difference process.

    Rejects inputs with a nonzero conditional mean anywhere, and verifies
    on the way out that every section integral of the result is exactly
    zero.
    """
    r = canonical_representation(p)  # validates p before any mean is taken
    check = is_mds(p)
    if not check.ok:
        raise NotMartingaleDifference(
            f"nonzero conditional mean at {fmt_prefix(check.witness['prefix'])}",
            **check.witness,
        )
    verify_zero_sections(r).require_zero()
    return r


def pair_law(r: CellRepresentation) -> PairProcess:
    """Exact joint law of (direct, decoupled copy) of ``r`` as a 2d-valued
    pair process.

    The tree is adapted to the pair filtration: at each node the branch
    over (direct value, copy value) has probability length(x cell) times
    length(y cell), and the child continues along the x cell (the copy's
    history is driven by the direct coordinates).  Each distinct node of
    ``r`` gives one pair node, so the pair tree shares what ``r`` shares.
    """
    dim = r.dimension
    built: dict[int, Node] = {}
    for node in distinct_nodes(r.root):
        branches = []
        for x in node.branches:
            child = built[id(x.child)] if x.child is not None else None
            for y in node.branches:
                branches.append(Branch(x.value + y.value, x.prob * y.prob, child))
        built[id(node)] = Node(tuple(branches))
    process = FiniteProcess(2 * dim, r.depth, built[id(r.root)])
    return PairProcess(process, dim)
