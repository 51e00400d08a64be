"""Measure-preserving transport between the two step functions of a
tangent pair.

A tangent pair (equal component step laws at every prefix) is first
represented canonically as one 2d-valued process.  Within each history
section, cells are sorted by the pair value, so cells sharing a first
component are contiguous.  The transport for the section lays the cells
end to end from 0, stably ordered by their SECOND component, and maps
each cell onto its slot by a translation.  Tangency makes the first and
second component laws of the section equal, so the cells whose second
component is v fill exactly the block of cells whose first component is
v.  Composing the first component's step function with the transport then
reproduces the second component's step function at every point of the
section, and the map is measure preserving because paired pieces have
equal length.  The layout depends on the node alone, so it is built once
per distinct node and shared by every section that reaches it.

Both verifiers are proofs, not samples, and run exactly in integers on the
section's lcm grid: every endpoint is scaled once by the lcm of its
denominators, so no Fraction arithmetic is left in their loops.  A map
that translates each piece, with sources and targets both tiling [0,1),
preserves the measure of every Borel set, so the measure check only needs
the tilings and the paired lengths.  Both step functions are constant on
each piece of the common refinement of the source pieces, the cells and
the cells pulled back through the transport, so the consistency check
compares them once per piece of that refinement.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import DimensionMismatch, NotTangent, RaggedDepth, XOutOfRange
from .process import (
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    ValuePath,
    are_tangent,
    fmt_prefix,
)
from .representation import (
    CellRepresentation,
    Interval,
    canonical_representation,
    cell_bounds,
    locate_node,
)


@dataclass(frozen=True)
class IntervalPair:
    source: Interval
    target: Interval


@dataclass(frozen=True)
class SectionTransport:
    """Piecewise-affine self-map of [0,1) for one history section.

    Source intervals tile [0,1) in order; each maps onto its paired
    target by a translation (paired intervals have equal length, which is
    exactly measure preservation for piecewise-affine maps).
    """

    history: ValuePath  # pair-value prefix identifying the section
    pairs: tuple[IntervalPair, ...]

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        if not (0 <= x < 1):
            raise XOutOfRange(f"transport argument {x} outside [0,1)")
        los = [p.source.lo for p in self.pairs]
        i = bisect_right(los, x) - 1
        pair = self.pairs[i]
        return pair.target.lo + (x - pair.source.lo)


@dataclass(frozen=True)
class TransportMap:
    """All sections of one step's transport."""

    step: int
    sections: tuple[SectionTransport, ...]


def build_transport(
    pq: PairProcess, base: Optional[CellRepresentation] = None
) -> list[TransportMap]:
    """Per-step transports realizing the second component from the first.

    ``base`` defaults to the canonical representation of the pair
    process; pass it in when already computed.  It must then be
    ``canonical_representation(pq.process)``: the layout relies on its
    cells ascending by pair value at every node, where tangency (checked
    first) makes the two component laws equal.

    One preorder walk of ``base`` puts each section into the map of its
    step, in left-to-right order, and lays out each distinct node once;
    sections reaching one node share its ``pairs``.
    """
    tan = are_tangent(pq)
    if not tan.ok:
        raise NotTangent(
            f"components differ at {fmt_prefix(tan.witness['prefix'])}",
            **tan.witness,
        )
    if base is None:
        base = canonical_representation(pq.process)
    d = pq.component_dim
    steps: list[list[SectionTransport]] = [[] for _ in range(base.depth)]
    laid_out: dict[int, tuple[IntervalPair, ...]] = {}

    def walk(node: Node, prefix: ValuePath) -> None:
        pairs = laid_out.get(id(node))
        if pairs is None:
            pairs = laid_out[id(node)] = _section_pairs(node, d)
        steps[len(prefix)].append(SectionTransport(prefix, pairs))
        for br in node.branches:
            if br.child is not None:
                walk(br.child, prefix + (br.value,))

    walk(base.root, ())
    return [TransportMap(step, tuple(s)) for step, s in enumerate(steps, 1)]


def _section_pairs(node: Node, d: int) -> tuple[IntervalPair, ...]:
    """Each cell's interval with its target: the cells laid end to end from
    0, stably ordered by their second component.

    The cells are ascending by value, so those with first component v form
    one block; with equal component laws, the cells with second component v
    land on exactly that block, in left-to-right order.
    """
    cells = node.branches
    ends = cell_bounds(node)
    targets: list[Optional[Interval]] = [None] * len(cells)
    lo = Fraction(0)
    for i in sorted(range(len(cells)), key=lambda i: cells[i].value[d:]):
        hi = lo + cells[i].prob
        targets[i] = Interval(lo, hi)
        lo = hi
    return tuple(IntervalPair(Interval(ends[i], ends[i + 1]), t)
                 for i, t in enumerate(targets))


def independent_coupling(
    a: CellRepresentation, b: CellRepresentation
) -> PairProcess:
    """Couple two representations with independent step draws.

    At every reachable pair of nodes, each branch pairs one cell of the
    first partition with one of the second, with the product probability.
    The result is tangent exactly when the two partitions agree in law at
    every reachable node pair, e.g. two representations of one process
    whose step laws do not depend on the history (with history-dependent
    laws the two components move on to different nodes).
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"dimensions differ: {a.dimension} vs {b.dimension}"
        )
    if a.depth != b.depth:
        raise RaggedDepth(f"depths differ: {a.depth} vs {b.depth}")

    built: dict[tuple[int, int], Node] = {}  # one node per distinct pair of nodes

    def build(na: Node, nb: Node) -> Node:
        key = (id(na), id(nb))
        if key not in built:
            built[key] = Node(tuple(
                Branch(ca.value + cb.value, ca.prob * cb.prob,
                       build(ca.child, cb.child) if ca.child is not None else None)
                for ca in na.branches for cb in nb.branches
            ))
        return built[key]

    process = FiniteProcess(2 * a.dimension, a.depth, build(a.root, b.root))
    return PairProcess(process, a.dimension)


# ---------------------------------------------------------------------------
# verification

def verify_measure_preserving(t: TransportMap | SectionTransport) -> CheckResult:
    """Exact check that a transport preserves Lebesgue measure.

    Sources must tile [0,1), paired intervals must have equal length, and
    targets must tile [0,1) from 0 without gap or overlap.  That is the
    whole proof: each piece maps onto its target by a translation, so the
    preimage of any Borel set B is the disjoint union of translates of B
    intersected with the targets, and its measure is that of B.  (Equal
    lengths make the targets sum to 1, so gap-free targets from 0 end at
    1.)  Each section is checked in integers on its lcm grid
    (``_lcm_grid``); witnesses report Fractions.  The verdict depends on
    the pieces alone, so a ``pairs`` tuple already accepted
    (``build_transport`` shares one per node) is not checked again.
    """
    sections = t.sections if isinstance(t, TransportMap) else (t,)
    checked: set[int] = set()
    for s in sections:
        if id(s.pairs) in checked:
            continue
        checked.add(id(s.pairs))
        res = _verify_section(s)
        if not res.ok:
            return res
    return CheckResult(True, None)


def _lcm_grid(*rows) -> tuple[int, list[list[int]]]:
    """Scale rows of rationals to integers on their common grid.

    ``scale`` is the lcm of every denominator, and x maps to the integer
    x * scale, so equality, order and sums carry over exactly.
    """
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [
        [x.numerator * (scale // x.denominator) for x in row] for row in rows
    ]


def _verify_section(s: SectionTransport) -> CheckResult:
    def fail(reason, **info):
        return CheckResult(False, {"history": s.history, "reason": reason, **info})

    pairs = s.pairs
    if not pairs:
        return fail("empty section")
    scale, (src_lo, src_hi, tgt_lo, tgt_hi) = _lcm_grid(
        [p.source.lo for p in pairs],
        [p.source.hi for p in pairs],
        [p.target.lo for p in pairs],
        [p.target.hi for p in pairs],
    )

    lo = 0
    for i, p in enumerate(pairs):
        if src_lo[i] != lo:
            return fail("source gap", at=Fraction(lo, scale), found=p.source.lo)
        lo = src_hi[i]
    if lo != scale:
        return fail("source does not reach 1", at=Fraction(lo, scale))

    for i, p in enumerate(pairs):
        if src_hi[i] - src_lo[i] != tgt_hi[i] - tgt_lo[i]:
            return fail(
                "length mismatch",
                source=(p.source.lo, p.source.hi),
                target=(p.target.lo, p.target.hi),
                source_length=p.source.length,
                target_length=p.target.length,
            )

    order = sorted(range(len(pairs)), key=tgt_lo.__getitem__)
    lo = 0
    for i in order:
        if tgt_lo[i] != lo:
            return fail("target gap or overlap", at=Fraction(lo, scale),
                        found=pairs[i].target.lo)
        lo = tgt_hi[i]
    return CheckResult(True, None)


def verify_transport_consistency(
    base: CellRepresentation,
    maps: list[TransportMap],
    component_dim: int,
) -> CheckResult:
    """Exact check that second = first o transport on all of [0,1).

    Precondition: every map is accepted by ``verify_measure_preserving``.
    A source piece [a, a + e - b) translates onto its target [b, e).  On
    it the second component at x changes only at cell ends c, and the
    first component at the transported point only where x = a + (c - b)
    for a cell end c inside the target.  Both sides are therefore constant
    between consecutive points of {a}, the cell ends inside the piece and
    those preimages, and one comparison at each such point, in integers on
    the section's lcm grid, proves the equality everywhere.  The witness is
    the first failing point, in pair order and then ascending x.  A section
    history that ``base`` does not realize raises UnreachablePrefix.  The
    verdict depends on the node and the pieces alone, so a section whose
    node and ``pairs`` were already checked (``build_transport`` shares
    them) is not checked again.
    """
    d = component_dim
    checked: set[tuple[int, int]] = set()
    for tm in maps:
        for s in tm.sections:
            node = locate_node(base, s.history)
            if (id(node), id(s.pairs)) in checked:
                continue
            checked.add((id(node), id(s.pairs)))
            scale, (src_los, tgt_los, tgt_his, ends) = _lcm_grid(
                [p.source.lo for p in s.pairs],
                [p.target.lo for p in s.pairs],
                [p.target.hi for p in s.pairs],
                cell_bounds(node),
            )
            seconds = [br.value[d:] for br in node.branches]
            firsts = [br.value[:d] for br in node.branches]
            for a, b, e in zip(src_los, tgt_los, tgt_his):
                inside = ends[bisect_right(ends, a):bisect_left(ends, a + e - b)]
                pulled = ends[bisect_right(ends, b):bisect_left(ends, e)]
                for x in sorted({a, *inside, *(a + c - b for c in pulled)}):
                    y = b + (x - a)
                    second_at_x = seconds[bisect_right(ends, x) - 1]
                    first_at_y = firsts[bisect_right(ends, y) - 1]
                    if second_at_x != first_at_y:
                        return CheckResult(
                            False,
                            {
                                "step": tm.step,
                                "history": s.history,
                                "x": Fraction(x, scale),
                                "transported": Fraction(y, scale),
                                "second_at_x": second_at_x,
                                "first_at_transported": first_at_y,
                            },
                        )
    return CheckResult(True, None)
