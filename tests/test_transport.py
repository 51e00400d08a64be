from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonrep import (
    Branch,
    FiniteProcess,
    Node,
    NotAnAtom,
    NotTangent,
    PairProcess,
    XOutOfRange,
    augment,
    build_transport,
    canonical_representation,
    construct_ci_copy,
    deinterleave,
    evaluate_augmented,
    generalized_inverse,
    independent_coupling,
    interleave,
    pair_from_identical,
    pair_law,
    random_process,
    verify_measure_preserving,
    verify_transport_consistency,
)
from canonrep import random_tangent_pair
from canonrep.process import ONE, ZERO, CheckResult
from canonrep.representation import Interval
from canonrep.transport import (
    DYADIC_GRID_BITS,
    IntervalPair,
    InterleavingMap,
    SectionTransport,
    TransportMap,
)



# ---------------------------------------------------------------------------
# generalized inverse

def test_generalized_inverse_fair_coin(fair_coin):
    a = augment(canonical_representation(fair_coin))
    x = generalized_inverse(a, (), (F(-1),), F(1, 2))
    assert x == F(1, 4)  # midpoint of [0, 1/2)


def test_generalized_inverse_skew(skew_mds):
    a = augment(canonical_representation(skew_mds))
    # cell [1/3, 1) carries value +1; tie 0 maps to the left endpoint
    assert generalized_inverse(a, (), (F(1),), F(0)) == F(1, 3)


def test_generalized_inverse_not_an_atom(fair_coin):
    a = augment(canonical_representation(fair_coin))
    with pytest.raises(NotAnAtom):
        generalized_inverse(a, (), (F(0),), F(1, 2))


def test_generalized_inverse_round_trip():
    p = random_process(3, 4, 1, seed=21)
    a = augment(canonical_representation(p))
    rng = Random(4)
    for _ in range(50):
        xs = [F(rng.randrange(1, 997), 997) for _ in range(3)]
        steps = evaluate_augmented(a, xs)
        prefix = ()
        for k, (value, tie) in enumerate(steps):
            x = generalized_inverse(a, prefix, value, tie)
            assert x == xs[k]
            prefix = prefix + (value,)


# ---------------------------------------------------------------------------
# transport construction

def test_transport_identity_for_pathwise_pair(sign_flip):
    pq = pair_from_identical(sign_flip)
    maps = build_transport(pq)
    for tm in maps:
        for section in tm.sections:
            for pair in section.pairs:
                assert pair.source == pair.target


def test_transport_swaps_halves_for_negated_coin():
    # first component fair coin, second its negation
    root = Node(
        (
            Branch((F(-1), F(1)), F(1, 2), None),
            Branch((F(1), F(-1)), F(1, 2), None),
        )
    )
    pq = PairProcess(FiniteProcess(2, 1, root), 1)
    (tm,) = build_transport(pq)
    (section,) = tm.sections
    mapped = {
        (p.source.lo, p.source.hi): (p.target.lo, p.target.hi)
        for p in section.pairs
    }
    assert mapped == {
        (F(0), F(1, 2)): (F(1, 2), F(1)),
        (F(1, 2), F(1)): (F(0), F(1, 2)),
    }


def test_transport_rejects_non_tangent():
    root = Node(
        (
            Branch((F(-1), F(0)), F(1, 2), None),
            Branch((F(1), F(0)), F(1, 2), None),
        )
    )
    pq = PairProcess(FiniteProcess(2, 1, root), 1)
    with pytest.raises(NotTangent):
        build_transport(pq)


def test_transport_consistency_on_decoupled_pairs():
    rng = Random(17)
    for _ in range(6):
        p = random_process(rng.randint(1, 3), rng.randint(1, 3), 1,
                           seed=rng.randrange(10**9))
        pq = pair_law(construct_ci_copy(canonical_representation(p)))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        assert all(verify_measure_preserving(tm).ok for tm in maps)
        res = verify_transport_consistency(base, maps, pq.component_dim,
                                           points_per_section=200, seed=5)
        assert res.ok, res.witness


def test_transport_consistency_on_permutation_pairs():
    from canonrep import random_tangent_pair

    rng = Random(23)
    for _ in range(6):
        pq = random_tangent_pair(rng.randint(1, 3), rng.randint(2, 4), 1,
                                 seed=rng.randrange(10**9))
        from canonrep import are_tangent

        assert are_tangent(pq).ok
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        assert all(verify_measure_preserving(tm).ok for tm in maps)
        res = verify_transport_consistency(base, maps, pq.component_dim,
                                           points_per_section=200, seed=9)
        assert res.ok, res.witness


def test_independent_coupling_tangent_same_process(sign_flip):
    r = canonical_representation(sign_flip)
    pq = independent_coupling(r, r)
    maps = build_transport(pq)
    assert all(verify_measure_preserving(tm).ok for tm in maps)


def test_transport_agrees_with_generalized_inverse_route():
    # cross-validation of the construction: the transported point can also
    # be computed as the generalized inverse of the first component's
    # augmented step partition, fed with the second component's value at u
    # and u's relative rank within the mass carrying that value
    from canonrep import random_tangent_pair
    from canonrep.representation import Cell, CellRepresentation, _make_rep_node
    from canonrep.representation import locate_node

    rng = Random(29)
    for _ in range(5):
        pq = random_tangent_pair(2, 3, 1, seed=rng.randrange(10**9))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        d = pq.component_dim
        for tm in maps:
            for section in tm.sections:
                node = locate_node(base, section.history)
                # depth-1 representation of the first component's step
                groups: dict = {}
                for cell in node.cells:
                    first = cell.value[:d]
                    if first in groups:
                        groups[first][1] = cell.interval.hi
                    else:
                        groups[first] = [cell.interval.lo, cell.interval.hi]
                f_cells = [
                    Cell(Interval(lo, hi), v, None)
                    for v, (lo, hi) in sorted(groups.items())
                ]
                f_aug = augment(
                    CellRepresentation(d, 1, _make_rep_node(f_cells))
                )
                for _trial in range(20):
                    u = F(rng.randrange(997), 997)
                    holder = next(
                        c for c in node.cells if c.interval.contains(u)
                    )
                    second = holder.value[d:]
                    before = sum(
                        (
                            c.interval.length
                            for c in node.cells
                            if c.value[d:] == second
                            and c.interval.hi <= holder.interval.lo
                        ),
                        F(0),
                    ) + (u - holder.interval.lo)
                    total = sum(
                        (
                            c.interval.length
                            for c in node.cells
                            if c.value[d:] == second
                        ),
                        F(0),
                    )
                    x = generalized_inverse(f_aug, (), second, before / total)
                    assert section.apply(u) == x


# ---------------------------------------------------------------------------
# measure preservation checker

def test_identity_map_passes():
    section = SectionTransport(
        (), (IntervalPair(Interval(F(0), F(1)), Interval(F(0), F(1))),)
    )
    assert verify_measure_preserving(TransportMap(1, (section,))).ok


def test_half_swap_passes():
    section = SectionTransport(
        (),
        (
            IntervalPair(Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1))),
            IntervalPair(Interval(F(1, 2), F(1)), Interval(F(0), F(1, 2))),
        ),
    )
    assert verify_measure_preserving(section).ok


def test_unequal_lengths_fail_with_witness():
    section = SectionTransport(
        (),
        (
            IntervalPair(Interval(F(0), F(1, 2)), Interval(F(1, 2), F(3, 4))),
            IntervalPair(Interval(F(1, 2), F(1)), Interval(F(0), F(1, 2))),
        ),
    )
    res = verify_measure_preserving(section)
    assert not res.ok
    assert res.witness["reason"] == "length mismatch"
    assert res.witness["source_length"] == F(1, 2)
    assert res.witness["target_length"] == F(1, 4)


def test_source_gap_fails():
    section = SectionTransport(
        (),
        (
            IntervalPair(Interval(F(0), F(1, 4)), Interval(F(0), F(1, 4))),
            IntervalPair(Interval(F(1, 2), F(1)), Interval(F(1, 2), F(1))),
        ),
    )
    res = verify_measure_preserving(section)
    assert not res.ok
    assert res.witness["reason"] == "source gap"


def _reference_verify_section(s: SectionTransport) -> CheckResult:
    """The measure check in plain Fraction arithmetic, cell by cell."""

    def fail(reason, **info):
        return CheckResult(False, {"history": s.history, "reason": reason, **info})

    if not s.pairs:
        return fail("empty section")
    lo = ZERO
    for p in s.pairs:
        if p.source.lo != lo:
            return fail("source gap", at=lo, found=p.source.lo)
        lo = p.source.hi
    if lo != ONE:
        return fail("source does not reach 1", at=lo)

    for p in s.pairs:
        if p.source.length != p.target.length:
            return fail(
                "length mismatch",
                source=(p.source.lo, p.source.hi),
                target=(p.target.lo, p.target.hi),
                source_length=p.source.length,
                target_length=p.target.length,
            )

    targets = sorted(s.pairs, key=lambda p: p.target.lo)
    lo = ZERO
    for p in targets:
        if p.target.lo != lo:
            return fail("target gap or overlap", at=lo, found=p.target.lo)
        lo = p.target.hi
    if lo != ONE:
        return fail("target does not reach 1", at=lo)

    n = 1 << DYADIC_GRID_BITS
    cell_len = F(1, n)
    masses = [ZERO] * n
    for p in s.pairs:
        i = int(p.target.lo * n)
        while i < n and F(i, n) < p.target.hi:
            lo_overlap = max(p.target.lo, F(i, n))
            hi_overlap = min(p.target.hi, F(i + 1, n))
            if hi_overlap > lo_overlap:
                masses[i] += hi_overlap - lo_overlap
            i += 1
    for i, m in enumerate(masses):
        if m != cell_len:
            return fail("dyadic preimage mass", cell=i, mass=m, expected=cell_len)
    return CheckResult(True, None)


def _assert_matches_reference(section: SectionTransport) -> CheckResult:
    res = verify_measure_preserving(section)
    # repr also compares the witness value types, not only their values
    assert repr(res) == repr(_reference_verify_section(section))
    return res


_EDITS = ("shift target", "shorten source", "shorten target", "shorten both",
          "drop", "reorder")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    decoupled=st.booleans(),
    edits=st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3),
    data=st.data(),
)
def test_measure_check_matches_fraction_reference(seed, decoupled, edits, data):
    if decoupled:
        p = random_process(2, 4, 1, seed=seed, mds=True)
        pq = pair_law(construct_ci_copy(canonical_representation(p)))
    else:
        pq = random_tangent_pair(2, 4, 1, seed=seed)
    maps = build_transport(pq)
    sections = [s for tm in maps for s in tm.sections]
    for s in sections:
        _assert_matches_reference(s)
    section = data.draw(st.sampled_from(sections))
    pairs = list(section.pairs)
    for edit in edits:
        if not pairs:
            break
        i = data.draw(st.integers(0, len(pairs) - 1))
        src, tgt = pairs[i].source, pairs[i].target
        if edit == "shift target":
            q = data.draw(st.integers(1, 16))
            lo = F(data.draw(st.integers(0, q)), q) * (1 - tgt.length)
            pairs[i] = IntervalPair(src, Interval(lo, lo + tgt.length))
        elif edit.startswith("shorten"):
            q = data.draw(st.integers(2, 16))
            r = F(data.draw(st.integers(1, q - 1)), q)
            if edit != "shorten target":
                src = Interval(src.lo, src.lo + r * src.length)
            if edit != "shorten source":
                tgt = Interval(tgt.lo, tgt.lo + r * tgt.length)
            pairs[i] = IntervalPair(src, tgt)
        elif edit == "drop":
            del pairs[i]
        else:
            j = data.draw(st.integers(0, len(pairs) - 1))
            pairs[i], pairs[j] = pairs[j], pairs[i]
    _assert_matches_reference(SectionTransport(section.history, tuple(pairs)))


def test_measure_check_beyond_64_bit_grid():
    # two Mersenne-prime denominators: the lcm grid has about 160 bits
    a, b = F(1, 2**61 - 1), F(1, 2**89 - 1)
    cuts = [F(0), a, a + b, F(1)]
    sources = [Interval(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    # targets in reverse order: [1 - a, 1), [1 - a - b, 1 - a), [0, 1 - a - b)
    ends = [F(1)]
    for iv in sources:
        ends.append(ends[-1] - iv.length)
    targets = [Interval(lo, hi) for hi, lo in zip(ends, ends[1:])]
    section = SectionTransport((), tuple(map(IntervalPair, sources, targets)))
    assert _assert_matches_reference(section).ok

    shifted = Interval(targets[1].lo + b / 2, targets[1].hi + b / 2)
    broken = SectionTransport(
        (), (section.pairs[0], IntervalPair(sources[1], shifted), section.pairs[2])
    )
    res = _assert_matches_reference(broken)
    assert res.witness["reason"] == "target gap or overlap"
    assert res.witness["found"].denominator > 2**64


def test_section_apply_is_translation():
    section = SectionTransport(
        (),
        (
            IntervalPair(Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1))),
            IntervalPair(Interval(F(1, 2), F(1)), Interval(F(0), F(1, 2))),
        ),
    )
    assert section.apply(F(1, 4)) == F(3, 4)
    assert section.apply(F(3, 4)) == F(1, 4)
    with pytest.raises(XOutOfRange):
        section.apply(F(3, 2))


# ---------------------------------------------------------------------------
# interleaving

def test_interleave_quarter():
    res = interleave(F(1, 4), 1)  # binary 0.01
    assert (res.first, res.second) == (F(0), F(1, 2))
    assert not res.truncated


def test_interleave_13_16():
    res = interleave(F(13, 16), 2)  # binary 0.1101
    assert (res.first, res.second) == (F(1, 2), F(3, 4))


def test_interleave_truncation_reported():
    res = interleave(F(1, 3), 2)
    assert res.truncated


@given(st.integers(min_value=0, max_value=2**8 - 1), st.integers(1, 4))
def test_interleave_round_trip(num, bits):
    x = F(num % (1 << (2 * bits)), 1 << (2 * bits))
    res = interleave(x, bits)
    assert deinterleave(res.first, res.second, bits) == x
    assert not res.truncated


@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3))
def test_interleave_preimage_measure_of_dyadic_rectangles(bits, j):
    # preimage of [0, 2^-j) x [0, 2^-j): count dyadic cells of size 2^-2k
    j = min(j, bits)
    m = InterleavingMap(bits)
    n = 1 << (2 * bits)
    count = 0
    for i in range(n):
        res = m.split(F(i, n))
        if res.first < F(1, 1 << j) and res.second < F(1, 1 << j):
            count += 1
    assert F(count, n) == F(1, 1 << (2 * j))


def test_preimage_quarter_rectangle_exact():
    # measure of preimage of [0,1/2) x [0,1/2) is exactly 1/4 at any precision
    for bits in (1, 2, 3, 4):
        n = 1 << (2 * bits)
        count = sum(
            1
            for i in range(n)
            if interleave(F(i, n), bits).first < F(1, 2)
            and interleave(F(i, n), bits).second < F(1, 2)
        )
        assert F(count, n) == F(1, 4)
