"""Zero-mean-section representations and decoupled tangent copies.

A martingale-difference process (zero conditional mean at every prefix)
is represented so that every node partition integrates to the zero
vector: sum over cells of length times value is exactly zero.  A
representation is a process tree whose branch probabilities are its cell
lengths, so that sum is read off each node's branches.

The decoupled copy lives on the product square [0,1]^N x [0,1]^N: the
direct sequence reads its own coordinates, the copy re-reads the same
history but feeds a fresh coordinate into the last slot of each step.
The copy is tangent to the direct sequence and is conditionally
independent given the first coordinate block, which is the canonical way
to decouple.  The copy is a lazy view over the base tree; only
``pair_law`` materializes the exact joint law, by enumerating history
cell chains and, per chain, an independent cell per step for the copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotMartingaleDifference, XOutOfRange
from .process import (
    ZERO,
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    ValuePath,
    _zero_mean_check,
    fmt_prefix,
    is_mds,
)
from .representation import CellRepresentation, _locate_cell, canonical_representation


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
    seen: set[int] = set()
    stack = [r.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        mean = [ZERO] * r.dimension
        for br in node.branches:
            for i, c in enumerate(br.value):
                mean[i] += br.prob * c
            if br.child is not None:
                stack.append(br.child)
        worst = max(worst, max((abs(c) for c in mean), default=ZERO))
    return ZeroSectionReport(worst)


def represent_mds(p: FiniteProcess) -> CellRepresentation:
    """Canonical representation of a martingale-difference process.

    Rejects inputs with a nonzero conditional mean anywhere, and verifies
    on the way out that every section integral of the result is exactly
    zero.
    """
    check = is_mds(p)
    if not check.ok:
        raise NotMartingaleDifference(
            f"nonzero conditional mean at {fmt_prefix(check.witness['prefix'])}",
            **check.witness,
        )
    r = canonical_representation(p)
    verify_zero_sections(r).require_zero()
    return r


@dataclass(frozen=True)
class DecoupledRepresentation:
    """Lazy decoupled view of a representation on the product square.

    ``evaluate_pair((x_1..x_N), (y_1..y_N))`` walks the history with the
    x coordinates; at step n the direct sequence reads the cell at x_n
    and the copy reads the cell at y_n of the same node.
    """

    base: CellRepresentation

    def evaluate_pair(self, xs, ys) -> tuple[ValuePath, ValuePath]:
        xs = [Fraction(x) for x in xs]
        ys = [Fraction(y) for y in ys]
        depth = self.base.depth
        if len(xs) != depth or len(ys) != depth:
            raise XOutOfRange(
                f"expected {depth} coordinates in each block, got "
                f"{len(xs)} and {len(ys)}"
            )
        for k, t in enumerate(xs + ys):
            if not (0 < t < 1):
                raise XOutOfRange(f"coordinate {k + 1} = {t} outside (0,1)")
        node = self.base.root
        direct, copy = [], []
        for x, y in zip(xs, ys):
            xcell = _locate_cell(node, x)
            ycell = _locate_cell(node, y)
            direct.append(xcell.value)
            copy.append(ycell.value)
            node = xcell.child
        return tuple(direct), tuple(copy)


def construct_ci_copy(r: CellRepresentation) -> DecoupledRepresentation:
    """Wrap a representation as its canonical decoupled tangent copy."""
    return DecoupledRepresentation(r)


def pair_law(d: DecoupledRepresentation) -> PairProcess:
    """Exact joint law of (direct, copy) as a 2d-valued pair process.

    The tree is adapted to the pair filtration: at each node the branch
    over (direct value, copy value) has probability length(x cell) times
    length(y cell), and the child continues along the x cell (the copy's
    history is driven by the direct coordinates).  Each distinct base node
    gives one pair node, so the pair tree shares what the base shares.
    """
    dim = d.base.dimension
    built: dict[int, Node] = {}

    def build(node: Node) -> Node:
        pair = built.get(id(node))
        if pair is None:
            branches = []
            for x in node.branches:
                child = build(x.child) if x.child is not None else None
                for y in node.branches:
                    branches.append(Branch(x.value + y.value, x.prob * y.prob, child))
            pair = built[id(node)] = Node(tuple(branches))
        return pair

    process = FiniteProcess(2 * dim, d.base.depth, build(d.base.root))
    return PairProcess(process, dim)


def component_conditional_means(pq: PairProcess, which: int) -> CheckResult:
    """Exact zero-mean check for one component under the pair filtration."""
    d = pq.component_dim
    return _zero_mean_check(pq.process, slice(None, d) if which == 0 else slice(d, None))
