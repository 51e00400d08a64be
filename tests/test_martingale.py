from fractions import Fraction as F
from random import Random

import pytest

from canonrep import (
    Branch,
    FiniteProcess,
    Node,
    NotMartingaleDifference,
    are_tangent,
    canonical_representation,
    independent_coupling,
    joint_law,
    law_of_representation,
    pair_law,
    random_dyadic_mds,
    random_independent_process,
    random_process,
    random_tangent_pair,
    represent_mds,
    satisfies_ci,
    verify_zero_sections,
)
from canonrep.jsonio import representation_from_json, representation_to_json
from canonrep.representation import CellRepresentation

from conftest import (
    cells,
    component_conditional_means,
    leaf,
    map_values,
    pair_from_identical,
    unshared,
    v1,
)


# ---------------------------------------------------------------------------
# represent_mds / zero sections

def test_represent_fair_coin(fair_coin):
    r = represent_mds(fair_coin)
    assert [(iv.lo, iv.hi, br.value) for iv, br in cells(r.root)] == [
        (F(0), F(1, 2), (F(-1),)),
        (F(1, 2), F(1), (F(1),)),
    ]
    assert verify_zero_sections(r).max_abs == 0


def test_represent_skew(skew_mds):
    r = represent_mds(skew_mds)
    assert verify_zero_sections(r).max_abs == 0  # (1/3)(-2) + (2/3)(1) = 0


def test_represent_rejects_nonzero_mean():
    p = FiniteProcess(1, 1, leaf((v1(1), F(1, 2)), (v1(2), F(1, 2))))
    with pytest.raises(NotMartingaleDifference):
        represent_mds(p)


def test_zero_sections_nonzero_deviation():
    p = FiniteProcess(1, 1, leaf((v1(1), F(1, 2)), (v1(2), F(1, 2))))
    r = canonical_representation(p)
    assert verify_zero_sections(r).max_abs == F(3, 2)


def test_zero_sections_perturbed_lengths():
    # fair-coin values with lengths (1/3, 2/3): deviation 1/3
    r = CellRepresentation(1, 1, leaf((v1(-1), F(1, 3)), (v1(1), F(2, 3))))
    assert verify_zero_sections(r).max_abs == F(1, 3)


def test_zero_sections_nonzero_section_in_a_shared_node():
    # both root branches lead to one node whose section integrates to
    # (1/4)(-1) + (3/4)(3) = 2; the root section integrates to zero
    shared = leaf((v1(-1), F(1, 4)), (v1(3), F(3, 4)))
    root = Node((Branch(v1(-1), F(1, 2), shared), Branch(v1(1), F(1, 2), shared)))
    r = canonical_representation(FiniteProcess(1, 2, root))
    assert r.root.branches[0].child is r.root.branches[1].child
    report = verify_zero_sections(r)
    assert report.max_abs == 2
    with pytest.raises(NotMartingaleDifference) as exc:
        report.require_zero()
    assert exc.value.info == {"max_abs": F(2)}


def test_zero_sections_random_mds():
    rng = Random(7)
    for _ in range(20):
        p = random_process(
            rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 2),
            seed=rng.randrange(10**9), mds=True,
        )
        assert verify_zero_sections(represent_mds(p)).max_abs == 0


# ---------------------------------------------------------------------------
# decoupled copy

def test_pair_law_fair_coin(fair_coin):
    pq = pair_law(represent_mds(fair_coin))
    law = joint_law(pq.process)
    assert len(law) == 4
    assert all(p == F(1, 4) for p in law.values())


def test_pair_law_deterministic():
    p = FiniteProcess(1, 1, leaf((v1(0), F(1))))
    pq = pair_law(canonical_representation(p))
    assert joint_law(pq.process) == {((F(0), F(0)),): F(1)}


def test_pair_law_sign_flip_marginals(sign_flip):
    r = canonical_representation(sign_flip)
    pq = pair_law(r)
    law = joint_law(pq.process)
    assert len(law) == 16
    d = pq.component_dim
    m_direct, m_copy = {}, {}
    for path, prob in law.items():
        a = tuple(x[:d] for x in path)
        b = tuple(x[d:] for x in path)
        m_direct[a] = m_direct.get(a, F(0)) + prob
        m_copy[b] = m_copy.get(b, F(0)) + prob
    src = law_of_representation(r)
    assert m_direct == src
    assert m_copy == src  # sign_flip has history-independent step laws


def test_pair_law_tangent_and_ci_random():
    rng = Random(31)
    for _ in range(10):
        p = random_process(
            rng.randint(1, 3), rng.randint(1, 4), 1, seed=rng.randrange(10**9)
        )
        pq = pair_law(canonical_representation(p))
        assert are_tangent(pq).ok
        assert satisfies_ci(pq, 1).ok


def test_pair_law_has_one_pair_node_per_distinct_base_node():
    shared_somewhere = False
    for seed in range(6):
        # read back through JSON, which interns equal subtrees
        r = representation_from_json(representation_to_json(
            canonical_representation(random_dyadic_mds(3, 2, 1, seed=seed))))
        pair_of: dict[int, Node] = {}  # id of each base node -> its pair node
        prefixes = 0
        stack = [(r.root, pair_law(r).process.root)]
        while stack:
            node, pair_node = stack.pop()
            prefixes += 1
            assert pair_of.setdefault(id(node), pair_node) is pair_node
            k = len(node.branches)
            for i, br in enumerate(node.branches):
                # pair branch i * k pairs x cell i with y cell 0 and follows x cell i
                if br.child is not None:
                    stack.append((br.child, pair_node.branches[i * k].child))
        assert len({id(n) for n in pair_of.values()}) == len(pair_of)
        shared_somewhere |= len(pair_of) < prefixes
        # the law is that of the same pair tree with nothing shared
        expanded = CellRepresentation(r.dimension, r.depth, unshared(r.root))
        assert joint_law(pair_law(r).process) == joint_law(
            pair_law(expanded).process)
    assert shared_somewhere


def test_direct_marginal_always_source_law():
    rng = Random(99)
    for _ in range(10):
        p = random_process(
            rng.randint(1, 3), rng.randint(1, 4), 1, seed=rng.randrange(10**9)
        )
        r = canonical_representation(p)
        pq = pair_law(r)
        d = pq.component_dim
        marg = {}
        for path, prob in joint_law(pq.process).items():
            a = tuple(x[:d] for x in path)
            marg[a] = marg.get(a, F(0)) + prob
        assert marg == law_of_representation(r)


def test_both_marginals_for_independent_step_sources():
    # the full law-equality statement holds when the source's step laws do
    # not depend on history
    rng = Random(55)
    for _ in range(10):
        p = random_independent_process(
            rng.randint(1, 3), rng.randint(1, 4), 1, seed=rng.randrange(10**9)
        )
        r = canonical_representation(p)
        pq = pair_law(r)
        d = pq.component_dim
        m_copy = {}
        for path, prob in joint_law(pq.process).items():
            b = tuple(x[d:] for x in path)
            m_copy[b] = m_copy.get(b, F(0)) + prob
        assert m_copy == law_of_representation(r)


def test_copy_is_mds_under_pair_filtration():
    rng = Random(13)
    for _ in range(8):
        p = random_process(
            rng.randint(1, 3), rng.randint(1, 4), 1,
            seed=rng.randrange(10**9), mds=True,
        )
        pq = pair_law(represent_mds(p))
        assert component_conditional_means(pq, 0).ok
        assert component_conditional_means(pq, 1).ok


# ---------------------------------------------------------------------------
# a tangent pair satisfying (C.I.) has the law of the decoupled copy

def _first_component(pq):
    """The first component alone, as a process on its own history."""
    d = pq.component_dim
    return FiniteProcess(d, pq.process.depth, map_values(pq.process.root, lambda v: v[:d]))


def _decoupled_law_of_first(pq):
    rep = canonical_representation(_first_component(pq))
    return joint_law(pair_law(rep).process)


def test_tangent_ci_pairs_have_the_decoupled_copy_law():
    rng = Random(41)
    checked_tangent = 0
    for _ in range(12):
        depth, k, s = rng.randint(1, 3), rng.randint(1, 3), rng.randrange(10**9)
        p = random_independent_process(depth, k, 1, s)
        rep = canonical_representation(p)
        coupled = independent_coupling(rep, rep)
        decoupled = pair_law(canonical_representation(
            random_process(depth, k, 1, s)))
        for pq in (coupled, decoupled):
            assert are_tangent(pq).ok and satisfies_ci(pq, 1).ok
            assert joint_law(pq.process) == _decoupled_law_of_first(pq)
        tangent = random_tangent_pair(depth, rng.randint(1, 2), 1, s)
        if are_tangent(tangent).ok and satisfies_ci(tangent, 1).ok:
            assert joint_law(tangent.process) == _decoupled_law_of_first(tangent)
            checked_tangent += 1
    assert checked_tangent > 0


def test_pathwise_copy_is_tangent_without_ci_and_not_decoupled():
    rng = Random(43)
    checked = 0
    for _ in range(20):
        p = random_process(rng.randint(1, 3), rng.randint(2, 3), 1, seed=rng.randrange(10**9))
        pq = pair_from_identical(p)
        assert are_tangent(pq).ok
        if len(joint_law(p)) > 1:  # a constant process is its own decoupled copy
            assert not satisfies_ci(pq, 1).ok
            assert joint_law(pq.process) != _decoupled_law_of_first(pq)
            checked += 1
    assert checked >= 5
