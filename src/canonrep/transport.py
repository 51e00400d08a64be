"""Measure-preserving transport between the two step functions of a
tangent pair, plus bit-interleaving of the unit interval.

A tangent pair (equal component step laws at every prefix) is first
represented canonically as one 2d-valued process.  Within each history
section, cells are sorted by the pair value, so cells sharing a first
component are contiguous.  The transport for the section sends each cell
to a sub-interval of the first-component group matching that cell's
SECOND component; tangency guarantees that per value the source mass and
the target group length agree, so the pieces fit exactly and every piece
maps by a translation.  Composing the first component's step function
with the transport then reproduces the second component's step function
at every point of the section, and the map is measure preserving because
paired pieces have equal length.

Both verifiers are proofs, not samples, and run exactly in integers on the
section's lcm grid: every endpoint is scaled once by the lcm of its
denominators, so no Fraction arithmetic is left in their loops.  A map
that translates each piece, with sources and targets both tiling [0,1),
preserves the measure of every Borel set, so the measure check only needs
the tilings and the paired lengths.  Both step functions are constant on
each piece of the common refinement of the source pieces, the cells and
the cells pulled back through the transport, so the consistency check
compares them once per piece of that refinement.

Interleaving maps [0,1) into [0,1)^2 by splitting binary digits into odd
and even positions at a fixed finite precision; dyadic rectangles pull
back to sets of exactly the right measure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .errors import DimensionMismatch, NotAnAtom, NotTangent, RaggedDepth, XOutOfRange
from .process import (
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    Value,
    ValuePath,
    are_tangent,
    fmt_prefix,
    fmt_value,
)
from .representation import (
    AugmentedRepresentation,
    CellRepresentation,
    Interval,
    RepNode,
    canonical_representation,
    follow_cells,
    locate_aug_node,
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

    def section(self, history: ValuePath) -> SectionTransport:
        for s in self.sections:
            if s.history == history:
                return s
        raise KeyError(f"no section with history {fmt_prefix(history)}")


def build_transport(
    pq: PairProcess, base: Optional[CellRepresentation] = None
) -> list[TransportMap]:
    """Per-step transports realizing the second component from the first.

    ``base`` defaults to the canonical representation of the pair
    process; pass it in when already computed.
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

    maps: list[TransportMap] = []
    for step in range(1, base.depth + 1):
        sections = [
            SectionTransport(prefix, _section_pairs(node, d))
            for prefix, node in _chains(base, step - 1)
        ]
        maps.append(TransportMap(step, tuple(sections)))
    return maps


def _chains(r: CellRepresentation, length: int):
    """All (value prefix, node) pairs at a given depth, left to right."""
    out: list[tuple[ValuePath, RepNode]] = []

    def walk(node: RepNode, prefix: ValuePath) -> None:
        if len(prefix) == length:
            out.append((prefix, node))
            return
        for cell in node.cells:
            if cell.child is not None:
                walk(cell.child, prefix + (cell.value,))

    walk(r.root, ())
    return out


def _section_pairs(node: RepNode, d: int) -> tuple[IntervalPair, ...]:
    # contiguous groups of cells sharing the first component
    group_range: dict[Value, list[Fraction]] = {}
    last_first: Optional[Value] = None
    for cell in node.cells:
        first = cell.value[:d]
        if first in group_range:
            if last_first != first:
                raise NotTangent(
                    f"first-component group {fmt_value(first)} is not contiguous"
                )
            group_range[first][1] = cell.interval.hi
        else:
            group_range[first] = [cell.interval.lo, cell.interval.hi]
        last_first = first

    cursor = {v: rng[0] for v, rng in group_range.items()}
    pairs: list[IntervalPair] = []
    for cell in node.cells:
        second = cell.value[d:]
        if second not in group_range:
            raise NotTangent(
                f"second-component value {fmt_value(second)} has no matching "
                f"first-component group"
            )
        length = cell.interval.length
        start = cursor[second]
        cursor[second] = start + length
        pairs.append(IntervalPair(cell.interval, Interval(start, start + length)))
    for v, rng in group_range.items():
        if cursor[v] != rng[1]:
            raise NotTangent(
                f"group {fmt_value(v)} received mass {cursor[v] - rng[0]}, "
                f"expected {rng[1] - rng[0]}"
            )
    return tuple(pairs)


def independent_coupling(
    a: CellRepresentation, b: CellRepresentation
) -> PairProcess:
    """Couple two representations with independent step draws.

    At every reachable pair of nodes, each branch pairs one cell of the
    first partition with one of the second, with the product probability.
    The result is tangent exactly when the two partitions agree in law at
    every reachable node pair (e.g. two representations of one process).
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"dimensions differ: {a.dimension} vs {b.dimension}"
        )
    if a.depth != b.depth:
        raise RaggedDepth(f"depths differ: {a.depth} vs {b.depth}")

    def build(na: RepNode, nb: RepNode) -> Node:
        branches = []
        for ca in na.cells:
            for cb in nb.cells:
                child = (
                    build(ca.child, cb.child) if ca.child is not None else None
                )
                branches.append(
                    Branch(
                        ca.value + cb.value,
                        ca.interval.length * cb.interval.length,
                        child,
                    )
                )
        return Node(tuple(branches))

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
    (``_lcm_grid``); witnesses report Fractions.
    """
    sections = t.sections if isinstance(t, TransportMap) else (t,)
    for s in sections:
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
    history that ``base`` does not realize raises UnreachablePrefix.
    """
    d = component_dim
    for tm in maps:
        for s in tm.sections:
            node = locate_node(base, s.history)
            scale, (src_los, tgt_los, tgt_his, cums) = _lcm_grid(
                [p.source.lo for p in s.pairs],
                [p.target.lo for p in s.pairs],
                [p.target.hi for p in s.pairs],
                node.cums,
            )
            seconds = [c.value[d:] for c in node.cells]
            firsts = [c.value[:d] for c in node.cells]
            for a, b, e in zip(src_los, tgt_los, tgt_his):
                inside = cums[bisect_right(cums, a):bisect_left(cums, a + e - b)]
                pulled = cums[bisect_right(cums, b):bisect_left(cums, e)]
                for x in sorted({a, *inside, *(a + c - b for c in pulled)}):
                    y = b + (x - a)
                    second_at_x = seconds[bisect_right(cums, x) - 1]
                    first_at_y = firsts[bisect_right(cums, y) - 1]
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


# ---------------------------------------------------------------------------
# generalized inverse of the augmented evaluation

def generalized_inverse(
    a: AugmentedRepresentation, prefix: ValuePath, value: Value, tie
) -> Fraction:
    """Coordinate in (0,1) that evaluates to (value, tie) at this node.

    Two-sided inverse of the augmented evaluation on every branch: the
    returned x lies in the branch interval of ``value`` and its tie-break
    map sends it to ``tie``.
    """
    tie = Fraction(tie)
    if not (0 <= tie < 1):
        raise XOutOfRange(f"tie-break coordinate {tie} outside [0,1)")
    node, anode = locate_aug_node(a, prefix)
    idx, _ = follow_cells(node, (tuple(value),))
    if not idx:
        raise NotAnAtom(
            f"{fmt_value(tuple(value))} is not an atom at {fmt_prefix(prefix)}",
            prefix=prefix,
            value=tuple(value),
        )
    return anode.maps[idx[0]].invert(tie)


# ---------------------------------------------------------------------------
# bit interleaving

class InterleaveResult(NamedTuple):
    first: Fraction
    second: Fraction
    truncated: bool


def interleave(x, bits: int) -> InterleaveResult:
    """Split the first 2*bits binary digits of x into odd/even positions.

    Odd positions (first, third, ...) go to the first output, even
    positions to the second.  Digits beyond 2*bits are dropped and
    reported via the ``truncated`` flag, never raised.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    x = Fraction(x)
    if not (0 <= x < 1):
        raise XOutOfRange(f"interleave argument {x} outside [0,1)")
    scaled = x * (1 << (2 * bits))
    num = int(scaled)
    truncated = scaled != num
    a = b = 0
    for j in range(bits):
        a = (a << 1) | ((num >> (2 * bits - 1 - 2 * j)) & 1)
        b = (b << 1) | ((num >> (2 * bits - 2 - 2 * j)) & 1)
    return InterleaveResult(Fraction(a, 1 << bits), Fraction(b, 1 << bits), truncated)


def deinterleave(first, second, bits: int) -> Fraction:
    """Merge two coordinates back into one by interleaving their digits.

    Inverse of ``interleave`` on 2*bits-digit dyadics; extra digits in
    the inputs are dropped the same way.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    a = Fraction(first)
    b = Fraction(second)
    if not (0 <= a < 1 and 0 <= b < 1):
        raise XOutOfRange("deinterleave arguments outside [0,1)")
    na = int(a * (1 << bits))
    nb = int(b * (1 << bits))
    num = 0
    for j in range(bits):
        num = (num << 1) | ((na >> (bits - 1 - j)) & 1)
        num = (num << 1) | ((nb >> (bits - 1 - j)) & 1)
    return Fraction(num, 1 << (2 * bits))


@dataclass(frozen=True)
class InterleavingMap:
    """Finite-precision measure-preserving map [0,1) -> [0,1)^2."""

    bits: int

    def split(self, x) -> InterleaveResult:
        return interleave(x, self.bits)

    def join(self, first, second) -> Fraction:
        return deinterleave(first, second, self.bits)
