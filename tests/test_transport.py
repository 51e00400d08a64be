from bisect import bisect_right
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonrep import (
    Branch,
    FiniteProcess,
    Node,
    NotTangent,
    PairProcess,
    XOutOfRange,
    build_transport,
    canonical_representation,
    independent_coupling,
    pair_law,
    random_process,
    verify_measure_preserving,
    verify_transport_consistency,
)
from canonrep import are_tangent, random_independent_process, random_tangent_pair
from canonrep.process import ONE, ZERO, CheckResult, fmt_prefix, fmt_value
from canonrep.representation import Interval, cell_bounds, locate_node
from canonrep.transport import (
    IntervalPair,
    SectionTransport,
    TransportMap,
    _lcm_grid,
)

from conftest import cells, pair_from_identical, swap_components


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
        pq = pair_law(canonical_representation(p))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        assert all(verify_measure_preserving(tm).ok for tm in maps)
        res = verify_transport_consistency(base, maps, pq.component_dim)
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
        res = verify_transport_consistency(base, maps, pq.component_dim)
        assert res.ok, res.witness


def test_independent_coupling_tangent_same_process(sign_flip):
    r = canonical_representation(sign_flip)
    pq = independent_coupling(r, r)
    maps = build_transport(pq)
    assert all(verify_measure_preserving(tm).ok for tm in maps)


def test_transport_agrees_with_quantile_inverse_route():
    # cross-validation of the construction: the transported point can also
    # be computed by inverting the first component's step partition on the
    # block carrying the second component's value at u, at u's relative
    # rank within the mass carrying that value
    from canonrep import random_tangent_pair

    rng = Random(29)
    for _ in range(5):
        pq = random_tangent_pair(2, 3, 1, seed=rng.randrange(10**9))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        d = pq.component_dim
        for tm in maps:
            for section in tm.sections:
                node = cells(locate_node(base, section.history))
                # block of the first component's step partition per value
                groups: dict = {}
                for iv, cell in node:
                    first = cell.value[:d]
                    if first in groups:
                        groups[first][1] = iv.hi
                    else:
                        groups[first] = [iv.lo, iv.hi]
                for _trial in range(20):
                    u = F(rng.randrange(997), 997)
                    held, holder = next(
                        (iv, c) for iv, c in node if iv.contains(u)
                    )
                    second = holder.value[d:]
                    before = sum(
                        (
                            iv.length
                            for iv, c in node
                            if c.value[d:] == second
                            and iv.hi <= held.lo
                        ),
                        F(0),
                    ) + (u - held.lo)
                    total = sum(
                        (
                            iv.length
                            for iv, c in node
                            if c.value[d:] == second
                        ),
                        F(0),
                    )
                    lo, hi = groups[second]
                    x = lo + (hi - lo) * (before / total)
                    assert section.apply(u) == x


# ---------------------------------------------------------------------------
# stable-order layout against the group/cursor reference

def _ref_section_pairs(node, d):
    """The group/cursor layout: each cell's target is the next free stretch
    of the contiguous group of cells whose first component is the cell's
    second component."""
    group_range = {}
    last_first = None
    for iv, cell in cells(node):
        first = cell.value[:d]
        if first in group_range:
            if last_first != first:
                raise NotTangent(f"first-component group {fmt_value(first)} is not contiguous")
            group_range[first][1] = iv.hi
        else:
            group_range[first] = [iv.lo, iv.hi]
        last_first = first
    cursor = {v: rng[0] for v, rng in group_range.items()}
    pairs = []
    for iv, cell in cells(node):
        second = cell.value[d:]
        if second not in group_range:
            raise NotTangent(f"second-component value {fmt_value(second)} has no matching "
                             f"first-component group")
        start = cursor[second]
        cursor[second] = start + iv.length
        pairs.append(IntervalPair(iv, Interval(start, cursor[second])))
    for v, rng in group_range.items():
        if cursor[v] != rng[1]:
            raise NotTangent(f"group {fmt_value(v)} received mass {cursor[v] - rng[0]}, "
                             f"expected {rng[1] - rng[0]}")
    return tuple(pairs)


def _ref_build_transport(pq, base):
    """Tangency first, then one reference layout per section, sections
    collected step by step from a left-to-right walk at each depth."""
    tan = are_tangent(pq)
    if not tan.ok:
        raise NotTangent(f"components differ at {fmt_prefix(tan.witness['prefix'])}",
                         **tan.witness)

    def chains(node, prefix, length):
        if len(prefix) == length:
            yield prefix, node
            return
        for cell in node.branches:
            if cell.child is not None:
                yield from chains(cell.child, prefix + (cell.value,), length)

    return [
        TransportMap(step, tuple(SectionTransport(prefix, _ref_section_pairs(node, pq.component_dim))
                                 for prefix, node in chains(base.root, (), step - 1)))
        for step in range(1, base.depth + 1)
    ]


def _layout_pairs(rng, trials):
    """Tangent pairs of every kind the library builds, in dimensions 1 and 2."""
    for trial in range(trials):
        depth, branching, dim = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)
        seed = rng.randrange(10**9)
        p = random_process(depth, branching, dim, seed=seed)
        rep = canonical_representation(p)
        kind = trial % 5
        if kind == 0:
            yield pair_law(rep)
        elif kind == 1:
            yield random_tangent_pair(depth, branching, dim, seed=seed)
        elif kind == 2:
            yield pair_from_identical(p)
        elif kind == 3:
            yield swap_components(pair_law(rep))
        else:  # tangent when every history has the same step law
            rep = canonical_representation(random_independent_process(depth, branching, dim, seed))
            yield independent_coupling(rep, rep)


def test_layout_matches_group_cursor_reference():
    for pq in _layout_pairs(Random(37), 100):
        base = canonical_representation(pq.process)
        maps, ref = build_transport(pq, base), _ref_build_transport(pq, base)
        assert [tm.step for tm in maps] == [tm.step for tm in ref]
        for tm, rtm in zip(maps, ref):
            assert len(tm.sections) == len(rtm.sections)
            for s, rs in zip(tm.sections, rtm.sections):
                assert s.history == rs.history
                assert s.pairs == rs.pairs, (tm.step, s.history)


def test_layout_refuses_non_tangent_pairs_like_the_reference():
    rng = Random(41)
    refused = 0
    for trial in range(40):
        depth, branching, dim = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 2)
        seed = rng.randrange(10**9)
        a = canonical_representation(random_process(depth, branching, dim, seed=seed))
        b = canonical_representation(random_process(depth, branching, dim, seed=seed + 1))
        pq = independent_coupling(a, b if trial % 2 else a)
        base = canonical_representation(pq.process)
        try:
            expected = _ref_build_transport(pq, base)
        except NotTangent as exc:
            with pytest.raises(NotTangent) as got:
                build_transport(pq, base)
            assert str(got.value) == str(exc)
            assert got.value.info == exc.info
            refused += 1
        else:
            assert build_transport(pq, base) == expected
    assert refused >= 25, refused


def test_sections_reaching_one_node_share_its_pairs():
    shared_somewhere = False
    for pq in _layout_pairs(Random(43), 40):
        base = canonical_representation(pq.process)
        by_node = {}
        sections = [s for tm in build_transport(pq, base) for s in tm.sections]
        for s in sections:
            by_node.setdefault(id(locate_node(base, s.history)), []).append(s.pairs)
        for pairs in by_node.values():
            assert all(p is pairs[0] for p in pairs)
        assert len({id(s.pairs) for s in sections}) == len(by_node)
        shared_somewhere |= len(by_node) < len(sections)
    assert shared_somewhere


# ---------------------------------------------------------------------------
# consistency check against the sampled reference

def _sampled_consistency(base, maps, component_dim, points_per_section=1000, seed=0):
    """The consistency check as a sampler: whether second = first o transport
    at random points on each section's lcm grid, compared exactly."""
    rng = Random(seed)
    d = component_dim
    for tm in maps:
        for s in tm.sections:
            node = locate_node(base, s.history)
            # the upper ends only take part in the grid, which fixes the points drawn
            scale, (src_los, tgt_los, cums, _, _) = _lcm_grid(
                [p.source.lo for p in s.pairs],
                [p.target.lo for p in s.pairs],
                cell_bounds(node),
                [p.source.hi for p in s.pairs],
                [p.target.hi for p in s.pairs],
            )
            seconds = [c.value[d:] for c in node.branches]
            firsts = [c.value[:d] for c in node.branches]
            for _ in range(points_per_section):
                x = rng.randrange(scale)
                i = bisect_right(src_los, x) - 1
                y = tgt_los[i] + (x - src_los[i])
                second_at_x = seconds[bisect_right(cums, x) - 1]
                first_at_y = firsts[bisect_right(cums, y) - 1]
                if second_at_x != first_at_y:
                    return False
    return True


def _mutations(section: SectionTransport):
    """Measure-preserving edits of a section: the targets of two pairs of
    equal length swapped, and every target replaced by its source."""
    pairs = list(section.pairs)
    equal = next(((i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))
                  if pairs[i].source.length == pairs[j].source.length
                  and pairs[i].target != pairs[j].target), None)
    if equal is not None:
        i, j = equal
        pairs[i], pairs[j] = (IntervalPair(pairs[i].source, pairs[j].target),
                              IntervalPair(pairs[j].source, pairs[i].target))
        yield SectionTransport(section.history, tuple(pairs))
    yield SectionTransport(
        section.history, tuple(IntervalPair(p.source, p.source) for p in section.pairs)
    )


def _cell_value(node, x):
    # the cell holding x, read off the cumulative ends
    return node.branches[max(i for i, c in enumerate(cell_bounds(node)) if c <= x)].value


def test_consistency_sweep_agrees_with_sampled_reference():
    rng = Random(31)
    failed = 0
    for trial in range(40):
        depth, branching, dim = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 2)
        seed = rng.randrange(10**9)
        if trial % 2:
            pq = random_tangent_pair(depth, branching, dim, seed=seed)
        else:
            p = random_process(depth, branching, dim, seed=seed)
            pq = pair_law(canonical_representation(p))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        d = pq.component_dim
        assert verify_transport_consistency(base, maps, d).ok
        for tm in maps:
            for section in tm.sections:
                node = locate_node(base, section.history)
                for s in _mutations(section):
                    assert verify_measure_preserving(s).ok
                    one = [TransportMap(tm.step, (s,))]
                    res = verify_transport_consistency(base, one, d)
                    if not _sampled_consistency(base, one, d, seed=trial):
                        assert not res.ok
                    if res.ok:
                        continue
                    failed += 1
                    w = res.witness
                    assert (w["step"], w["history"]) == (tm.step, s.history)
                    assert s.apply(w["x"]) == w["transported"]
                    second = _cell_value(node, w["x"])[d:]
                    first = _cell_value(node, w["transported"])[:d]
                    assert second != first
                    assert (w["second_at_x"], w["first_at_transported"]) == (second, first)
    assert failed >= 100, failed


def test_consistency_witness_for_identity_on_negated_coin():
    # first component fair coin, second its negation; the identity map is
    # measure preserving but sends the second component's -1 onto the first's
    root = Node(
        (
            Branch((F(-1), F(1)), F(1, 2), None),
            Branch((F(1), F(-1)), F(1, 2), None),
        )
    )
    pq = PairProcess(FiniteProcess(2, 1, root), 1)
    base = canonical_representation(pq.process)
    identity = SectionTransport(
        (), tuple(IntervalPair(p.source, p.source)
                  for p in build_transport(pq, base)[0].sections[0].pairs)
    )
    res = verify_transport_consistency(base, [TransportMap(1, (identity,))], 1)
    assert not res.ok
    assert res.witness == {
        "step": 1,
        "history": (),
        "x": F(0),
        "transported": F(0),
        "second_at_x": (F(1),),
        "first_at_transported": (F(-1),),
    }


def test_consistency_sweep_finds_a_mismatch_the_sampler_misses():
    # the components differ only on a set of measure 2^-39, which 1000
    # sampled points miss but one comparison per piece does not
    eps = F(1, 2**40)
    root = Node(
        (
            Branch((F(-1), F(1)), eps, None),
            Branch((F(0), F(0)), 1 - 2 * eps, None),
            Branch((F(1), F(-1)), eps, None),
        )
    )
    base = canonical_representation(FiniteProcess(2, 1, root))
    identity = SectionTransport(
        (), tuple(IntervalPair(iv, iv) for iv, _ in cells(base.root))
    )
    maps = [TransportMap(1, (identity,))]
    assert verify_measure_preserving(identity).ok
    assert _sampled_consistency(base, maps, 1)
    res = verify_transport_consistency(base, maps, 1)
    assert not res.ok and res.witness["x"] == 0


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


DYADIC_GRID_BITS = 10


def _reference_verify_section(s: SectionTransport) -> CheckResult:
    """The measure check in plain Fraction arithmetic, cell by cell.

    It keeps the two checks the library dropped as implied by the others
    ("target does not reach 1" and the dyadic preimage masses); comparing
    reprs shows that they never decide a verdict.
    """

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
        pq = pair_law(canonical_representation(p))
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


def _decoupled_maps(seed):
    p = random_process(4, 3, 1, seed=seed, mds=True)
    return build_transport(pair_law(canonical_representation(p)))


def test_measure_check_visits_each_shared_pairs_tuple_once(monkeypatch):
    import canonrep.transport as transport

    checked = []
    real = transport._verify_section

    def counting(s):
        checked.append(s.pairs)
        return real(s)

    monkeypatch.setattr(transport, "_verify_section", counting)
    for seed in range(3):
        for tm in _decoupled_maps(seed):
            checked.clear()
            assert verify_measure_preserving(tm).ok
            distinct = {id(s.pairs) for s in tm.sections}
            assert len(checked) == len(distinct)
            assert {id(pairs) for pairs in checked} == distinct


def test_broken_shared_pairs_report_their_first_section():
    broke_shared = False
    for seed in range(3):
        for tm in _decoupled_maps(seed):
            sections = tm.sections
            for pairs in {id(s.pairs): s.pairs for s in sections}.values():
                # every section holding the tuple gets one broken tuple
                broken = pairs[:-1]
                edited = tuple(SectionTransport(s.history, broken) if s.pairs is pairs
                               else s for s in sections)
                res = verify_measure_preserving(TransportMap(tm.step, edited))
                first = next(s for s in edited if s.pairs is broken)
                assert not res.ok and res.witness["history"] == first.history
                assert repr(res) == repr(verify_measure_preserving(first))
                broke_shared |= sum(s.pairs is broken for s in edited) > 1
    assert broke_shared


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
