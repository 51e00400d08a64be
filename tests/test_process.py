from fractions import Fraction as F

import pytest

from canonrep import (
    Branch,
    DimensionMismatch,
    FiniteProcess,
    Node,
    NonPositiveProb,
    PairProcess,
    ProbSumNotOne,
    RaggedDepth,
    UnreachablePrefix,
    are_tangent,
    canonical_representation,
    conditional_law,
    construct_ci_copy,
    is_mds,
    joint_law,
    pair_from_identical,
    pair_law,
    random_process,
    satisfies_ci,
    swap_components,
    validate_process,
)
from conftest import leaf, step_marginal_law, v1


def validate_path_law(law) -> None:
    assert all(prob > 0 for prob in law.values())
    assert sum(law.values()) == 1


# ---------------------------------------------------------------------------
# validation

def test_validate_fair_coin_ok(fair_coin):
    validate_process(fair_coin)


def test_validate_prob_sum(fair_coin):
    bad = FiniteProcess(1, 1, leaf((v1(-1), F(1, 2)), (v1(1), F(1, 3))))
    with pytest.raises(ProbSumNotOne) as err:
        validate_process(bad)
    assert "root" in str(err.value)


def test_validate_nonpositive_prob():
    bad = FiniteProcess(1, 1, leaf((v1(-1), F(0)), (v1(1), F(1))))
    with pytest.raises(NonPositiveProb):
        validate_process(bad)


def test_validate_ragged_depth():
    # declared depth 2 but one branch stops at depth 1
    deep = leaf((v1(0), F(1)))
    root = Node((Branch(v1(-1), F(1, 2), deep), Branch(v1(1), F(1, 2), None)))
    with pytest.raises(RaggedDepth):
        validate_process(FiniteProcess(1, 2, root))


def test_validate_dimension_mismatch():
    root = Node((Branch((F(1), F(2)), F(1), None),))
    with pytest.raises(DimensionMismatch):
        validate_process(FiniteProcess(1, 1, root))


def test_validate_names_offending_node(sign_flip):
    bad_leaf = leaf((v1(3), F(2, 3)), (v1(4), F(2, 3)))
    root = Node(
        (
            Branch(v1(-1), F(1, 2), bad_leaf),
            Branch(v1(1), F(1, 2), leaf((v1(0), F(1)))),
        )
    )
    with pytest.raises(ProbSumNotOne) as err:
        validate_process(FiniteProcess(1, 2, root))
    assert "-1" in str(err.value)


# ---------------------------------------------------------------------------
# joint law

def test_joint_law_product(coin_product):
    law = joint_law(coin_product)
    assert len(law) == 4
    assert all(p == F(1, 4) for p in law.values())
    validate_path_law(law)


def test_joint_law_point_mass():
    p = FiniteProcess(1, 1, leaf((v1(5), F(1))))
    assert joint_law(p) == {((F(5),),): F(1)}


def test_joint_law_sign_flip(sign_flip):
    law = joint_law(sign_flip)
    expected_paths = {
        ((F(-1),), (F(-1),)),
        ((F(-1),), (F(1),)),
        ((F(1),), (F(-1),)),
        ((F(1),), (F(1),)),
    }
    assert set(law) == expected_paths
    assert all(p == F(1, 4) for p in law.values())


def test_joint_law_aggregates_duplicate_values():
    # two sibling branches carrying the same value merge into one path entry
    root = leaf((v1(1), F(1, 3)), (v1(1), F(1, 3)), (v1(2), F(1, 3)))
    law = joint_law(FiniteProcess(1, 1, root))
    assert law == {((F(1),),): F(2, 3), ((F(2),),): F(1, 3)}


# ---------------------------------------------------------------------------
# conditional law

def test_conditional_law_root(fair_coin):
    assert conditional_law(fair_coin, ()) == [
        ((F(-1),), F(1, 2)),
        ((F(1),), F(1, 2)),
    ]


def test_conditional_law_after_prefix(sign_flip):
    assert conditional_law(sign_flip, ((F(-1),),)) == [
        ((F(-1),), F(1, 2)),
        ((F(1),), F(1, 2)),
    ]


def test_conditional_law_unreachable(fair_coin):
    with pytest.raises(UnreachablePrefix):
        conditional_law(fair_coin, ((F(0),),))


def test_conditional_law_averages_to_marginal():
    # averaging step-k+1 conditional laws with prefix weights gives the marginal
    p = random_process(3, 4, 2, seed=5)
    law = joint_law(p)
    for step in (2, 3):
        mixed: dict = {}
        weights: dict = {}
        for path, prob in law.items():
            weights[path[: step - 1]] = weights.get(path[: step - 1], F(0)) + prob
        for prefix, w in weights.items():
            for v, q in conditional_law(p, prefix):
                mixed[v] = mixed.get(v, F(0)) + w * q
        assert mixed == step_marginal_law(p, step)


# ---------------------------------------------------------------------------
# martingale differences

def test_is_mds_fair_coin(fair_coin):
    assert is_mds(fair_coin).ok


def test_is_mds_skew(skew_mds):
    assert is_mds(skew_mds).ok  # 2/3 - 2/3 = 0 exactly


def test_is_mds_false_with_witness():
    p = FiniteProcess(1, 1, leaf((v1(1), F(1, 2)), (v1(2), F(1, 2))))
    res = is_mds(p)
    assert not res.ok
    assert res.witness["prefix"] == ()
    assert res.witness["mean"] == (F(3, 2),)


def test_is_mds_implies_constant_partial_sums():
    p = random_process(4, 3, 1, seed=9, mds=True)
    assert is_mds(p).ok
    law = joint_law(p)
    for n in range(1, p.depth + 1):
        total = sum(
            (prob * sum((v[0] for v in path[:n]), F(0)) for path, prob in law.items()),
            F(0),
        )
        assert total == 0


# ---------------------------------------------------------------------------
# tangency

def test_tangent_reflexive(sign_flip):
    assert are_tangent(pair_from_identical(sign_flip)).ok


def test_tangent_symmetric(sign_flip):
    pq = pair_law(construct_ci_copy(canonical_representation(sign_flip)))
    assert are_tangent(pq).ok
    assert are_tangent(swap_components(pq)).ok


def test_tangent_decoupled_copy(sign_flip):
    pq = pair_law(construct_ci_copy(canonical_representation(sign_flip)))
    assert are_tangent(pq).ok


def test_not_tangent_with_witness(fair_coin):
    # first component fair coin, second component constant zero
    root = leaf(((F(-1), F(0)), F(1, 2)), ((F(1), F(0)), F(1, 2)))
    pq = PairProcess(FiniteProcess(2, 1, root), 1)
    res = are_tangent(pq)
    assert not res.ok
    assert res.witness["prefix"] == ()


# ---------------------------------------------------------------------------
# condition (C.I.)

def test_ci_decoupled_copy(sign_flip):
    pq = pair_law(construct_ci_copy(canonical_representation(sign_flip)))
    assert satisfies_ci(pq, 1).ok


def test_ci_fails_for_pathwise_copy(sign_flip):
    res = satisfies_ci(pair_from_identical(sign_flip), 1)
    assert not res.ok


def test_ci_fails_for_pathwise_copy_dependent(copy_chain):
    res = satisfies_ci(pair_from_identical(copy_chain), 1)
    assert not res.ok


def test_ci_single_step_independent_pair(fair_coin):
    # one step, components independent: single factor, trivially decoupled
    pq = pair_law(construct_ci_copy(canonical_representation(fair_coin)))
    assert pq.process.depth == 1
    assert satisfies_ci(pq, 1).ok
    assert satisfies_ci(pq, 0).ok


def test_ci_random_decoupled_copies():
    for seed in range(6):
        p = random_process(3, 3, 1, seed=100 + seed)
        pq = pair_law(construct_ci_copy(canonical_representation(p)))
        assert satisfies_ci(pq, 1).ok, seed
