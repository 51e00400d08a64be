"""Canonical representation of a finite process on the unit cube.

Each step of a finite process becomes a piecewise-constant function of one
coordinate of [0,1]^N: the node's conditional law is laid out as a
partition of [0,1) into half-open cells whose lengths are the conditional
probabilities, with values in strictly ascending canonical order (the
increasing rearrangement of the conditional law).  Laying cells out this
way is exactly what preserves the joint law.

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
from typing import Optional

from .errors import UnreachablePath, UnreachablePrefix, XOutOfRange
from .process import (
    ONE,
    ZERO,
    FiniteProcess,
    Node,
    PathLaw,
    Value,
    ValuePath,
    _split_class,
    conditional_law,
    fmt_prefix,
    fmt_value,
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
class Cell:
    interval: Interval
    value: Value
    child: Optional["RepNode"]


@dataclass(frozen=True)
class RepNode:
    cells: tuple[Cell, ...]
    cums: tuple[Fraction, ...]  # cumulative left endpoints, 0 .. 1


@dataclass(frozen=True)
class CellRepresentation:
    """Nested interval partitions of [0,1) realizing an adapted sequence."""

    dimension: int
    depth: int
    root: RepNode


def _make_rep_node(cells: list[Cell]) -> RepNode:
    cums = [c.interval.lo for c in cells] + [cells[-1].interval.hi]
    return RepNode(tuple(cells), tuple(cums))


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
    share one RepNode, so the result shares what ``p`` shares.
    """
    validate_process(p)
    root = _build_node([(p.root, ONE)], p.depth, {})
    return CellRepresentation(p.dimension, p.depth, root)


def _build_node(mixture: list[tuple[Node, Fraction]], steps_left: int, memo: dict) -> RepNode:
    key = (steps_left, tuple((id(node), w) for node, w in mixture))
    if key in memo:
        return memo[key]
    law, children = _split_class(mixture, steps_left > 1)
    cells: list[Cell] = []
    lo = ZERO
    for v in sorted(law):
        hi = lo + law[v]
        child = _build_node(children[v], steps_left - 1, memo) if steps_left > 1 else None
        cells.append(Cell(Interval(lo, hi), v, child))
        lo = hi
    assert lo == ONE
    memo[key] = _make_rep_node(cells)
    return memo[key]


# ---------------------------------------------------------------------------
# evaluation and law extraction

def _locate_cell(node: RepNode, x) -> Cell:
    return node.cells[bisect_right(node.cums, x) - 1]


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
    node: Optional[RepNode] = r.root
    out = []
    for x in xs:
        cell = _locate_cell(node, x)
        out.append(cell.value)
        node = cell.child
    return tuple(out)


def law_of_representation(r: CellRepresentation) -> PathLaw:
    """Exact pushforward of Lebesgue measure under the representation."""
    law: PathLaw = {}

    def walk(node: RepNode, path: ValuePath, prob: Fraction) -> None:
        for cell in node.cells:
            q = prob * cell.interval.length
            full = path + (cell.value,)
            if cell.child is None:
                law[full] = law.get(full, ZERO) + q
            else:
                walk(cell.child, full, q)

    walk(r.root, (), ONE)
    return law


def follow_cells(
    node: Optional[RepNode], path: ValuePath
) -> tuple[list[int], Optional[RepNode]]:
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
        i = next((i for i, cell in enumerate(node.cells) if cell.value == v), None)
        if i is None:
            break
        idx.append(i)
        node = node.cells[i].child
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
        out.append(node.cells[i].interval)
        node = node.cells[i].child
    return tuple(out)


def locate_node(r: CellRepresentation, prefix: ValuePath) -> RepNode:
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
