"""Canonical representation of a finite process on the unit cube.

Each step of a finite process becomes a piecewise-constant function of one
coordinate of [0,1]^N: the node's conditional law is laid out as a
partition of [0,1) into half-open cells whose lengths are the conditional
probabilities, with values in strictly ascending canonical order (the
increasing rearrangement of the conditional law).  Laying cells out this
way is exactly what preserves the joint law.

A representation is therefore itself a process tree: a
``CellRepresentation`` is a ``FiniteProcess`` whose nodes carry strictly
ascending values and whose branch probabilities are the cell lengths, so
every process check and law applies to it unchanged.  A cell's interval is
fixed by the branches before it; ``cell_bounds`` derives a node's cell
ends, the cumulative probabilities from 0.

Boundary convention: cells are half-open on the right, so a coordinate
sitting exactly on a cell boundary belongs to the cell on its right.
The sup-style quantile would assign boundary points to the left atom
instead; boundaries carry no mass, so no law is affected.

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import UnreachablePath, UnreachablePrefix, XOutOfRange
from .process import (
    ONE,
    ZERO,
    Branch,
    FiniteProcess,
    Node,
    PathLaw,
    Value,
    ValuePath,
    _split_class,
    conditional_law,
    fmt_prefix,
    fmt_value,
    joint_law,
    validate_process,
)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) inside [0, 1]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= 1):
            raise XOutOfRange(f"not a subinterval of [0,1): [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x < self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class CellRepresentation(FiniteProcess):
    """Nested interval partitions of [0,1) realizing an adapted sequence: a
    process tree whose branches are the cells of each node, in strictly
    ascending value order, with the cell lengths as probabilities."""


def cell_bounds(node: Node) -> tuple[Fraction, ...]:
    """Cell ends of a representation node: 0, then the cumulative branch
    probabilities, up to 1; cell i is [ends[i], ends[i + 1])."""
    return tuple(accumulate((br.prob for br in node.branches), initial=ZERO))


# ---------------------------------------------------------------------------
# conditional cdf / quantile on the source process

def conditional_cdf(p: FiniteProcess, prefix: ValuePath, t: Value) -> Fraction:
    """Pr(next value < t | prefix) under strict lexicographic order."""
    law = conditional_law(p, prefix)
    total = ZERO
    for v, q in law:
        if v < tuple(t):
            total += q
    return total


def quantile_function(p: FiniteProcess, prefix: ValuePath, x) -> Value:
    """Conditional quantile at level x in (0, 1).

    Returns the atom whose cumulative cell [cdf(v), cdf(next)) contains x;
    a level exactly on a boundary takes the atom on the right.  This
    equals evaluating the node's cell partition at x.
    """
    x = Fraction(x)
    if not (0 < x < 1):
        raise XOutOfRange(f"quantile level {x} outside (0,1)")
    law = conditional_law(p, prefix)
    cum = ZERO
    for v, q in law:
        cum += q
        if x < cum:
            return v
    return law[-1][0]  # x in [last boundary, 1)


# ---------------------------------------------------------------------------
# construction

def canonical_representation(p: FiniteProcess) -> CellRepresentation:
    """Build the nested-partition representation whose law equals ``p``'s.

    Sibling branches with equal values are aggregated (their probabilities
    summed and their subtrees merged as a mixture) before sorting, so each
    node of the result carries strictly ascending values.  Equal mixtures
    share one node, so the result shares what ``p`` shares.
    """
    validate_process(p)
    root = _build_node([(p.root, ONE)], p.depth, {})
    return CellRepresentation(p.dimension, p.depth, root)


def _build_node(mixture: list[tuple[Node, Fraction]], steps_left: int, memo: dict) -> Node:
    key = (steps_left, tuple((id(node), w) for node, w in mixture))
    if key in memo:
        return memo[key]
    law, children = _split_class(mixture, steps_left > 1)
    memo[key] = Node(tuple(
        Branch(v, law[v], _build_node(children[v], steps_left - 1, memo)
               if steps_left > 1 else None)
        for v in sorted(law)
    ))
    return memo[key]


# ---------------------------------------------------------------------------
# evaluation and law extraction

def _locate_cell(node: Node, x) -> Branch:
    return node.branches[bisect_right(cell_bounds(node), x) - 1]


def evaluate(r: CellRepresentation, xs) -> ValuePath:
    """Value path at a point of the open unit cube.

    Walks the nested partitions: at step k the cell containing the k-th
    coordinate emits its value and selects the sub-partition.
    """
    xs = [Fraction(x) for x in xs]
    if len(xs) != r.depth:
        raise XOutOfRange(f"expected {r.depth} coordinates, got {len(xs)}")
    for k, x in enumerate(xs):
        if not (0 < x < 1):
            raise XOutOfRange(f"coordinate {k + 1} = {x} outside (0,1)")
    node: Optional[Node] = r.root
    out = []
    for x in xs:
        cell = _locate_cell(node, x)
        out.append(cell.value)
        node = cell.child
    return tuple(out)


def law_of_representation(r: CellRepresentation) -> PathLaw:
    """Exact pushforward of Lebesgue measure under the representation: the
    joint law of the process tree it is."""
    return joint_law(r)


def follow_cells(
    node: Optional[Node], path: ValuePath
) -> tuple[list[int], Optional[Node]]:
    """Find cells by value along ``path``, starting at ``node``.

    Returns the indices of the cells followed and the node where the walk
    stopped.  Fewer indices than values means the walk stopped early:
    past the last level when the node is None, otherwise because the next
    value is not a cell of that node.
    """
    idx: list[int] = []
    for v in path:
        if node is None:
            break
        i = next((i for i, br in enumerate(node.branches) if br.value == v), None)
        if i is None:
            break
        idx.append(i)
        node = node.branches[i].child
    return idx, node


def coordinate_recovery(r: CellRepresentation, path: ValuePath) -> tuple[Interval, ...]:
    """Chain of cells whose values spell ``path``.

    Evaluating the representation at any point of the returned cells
    reproduces the path.
    """
    idx, node = follow_cells(r.root, path)
    k = len(idx)
    if k < len(path):
        if node is None:
            raise UnreachablePath(
                f"path longer than representation depth {r.depth}", path=path
            )
        raise UnreachablePath(
            f"value {fmt_value(path[k])} not present at step {k + 1} after "
            f"{fmt_prefix(tuple(path[:k]))}",
            path=path,
            step=k + 1,
        )
    out = []
    node = r.root
    for i in idx:
        ends = cell_bounds(node)
        out.append(Interval(ends[i], ends[i + 1]))
        node = node.branches[i].child
    return tuple(out)


def locate_node(r: CellRepresentation, prefix: ValuePath) -> Node:
    """Sub-partition reached by a realizable value prefix."""
    idx, node = follow_cells(r.root, prefix)
    k = len(idx)
    if k < len(prefix):
        if node is None:
            raise UnreachablePrefix(
                f"prefix of length {len(prefix)} exceeds depth {r.depth}", prefix=prefix
            )
        raise UnreachablePrefix(
            f"value {fmt_value(prefix[k])} not present at step {k + 1}",
            prefix=prefix,
            step=k + 1,
        )
    if node is None:
        raise UnreachablePrefix(
            f"prefix of length {len(prefix)} reaches past the last step",
            prefix=prefix,
        )
    return node
