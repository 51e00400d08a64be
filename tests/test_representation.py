from fractions import Fraction as F
from random import Random

import pytest

from canonrep import (
    FiniteProcess,
    UnreachablePath,
    XOutOfRange,
    canonical_representation,
    conditional_law,
    coordinate_recovery,
    evaluate,
    joint_law,
    law_of_representation,
    random_process,
)
from canonrep.representation import Interval, cell_bounds

from conftest import cells, leaf, v1


# ---------------------------------------------------------------------------
# quantile

def test_quantile_matches_partition():
    # each node's cells, in order, are the conditional law at its prefix
    p = random_process(3, 4, 1, seed=3)
    r = canonical_representation(p)

    def walk(node, prefix):
        assert [(cell.value, cell.prob) for cell in node.branches] == conditional_law(p, prefix)
        for cell in node.branches:
            if cell.child is not None:
                walk(cell.child, prefix + (cell.value,))

    walk(r.root, ())


# ---------------------------------------------------------------------------
# canonical representation structure

def test_fair_coin_partition(fair_coin):
    r = canonical_representation(fair_coin)
    assert [(iv.lo, iv.hi) for iv, _ in cells(r.root)] == [
        (F(0), F(1, 2)),
        (F(1, 2), F(1)),
    ]
    assert [br.value for br in r.root.branches] == [(F(-1),), (F(1),)]


def test_skew_partition_sorted_ascending(skew_mds):
    r = canonical_representation(skew_mds)
    assert [br.value for br in r.root.branches] == [(F(-2),), (F(1),)]
    assert cell_bounds(r.root)[:2] == (F(0), F(1, 3))


def test_sign_flip_subpartition(sign_flip):
    r = canonical_representation(sign_flip)
    first_cell, first = cells(r.root)[0]
    assert first_cell == Interval(F(0), F(1, 2))
    assert [(iv.lo, iv.hi, c.value) for iv, c in cells(first.child)] == [
        (F(0), F(1, 2), (F(-1),)),
        (F(1, 2), F(1), (F(1),)),
    ]


def test_values_strictly_ascending_everywhere():
    for seed in range(10):
        r = canonical_representation(random_process(4, 5, 2, seed=seed))
        stack = [r.root]
        while stack:
            node = stack.pop()
            values = [c.value for c in node.branches]
            assert values == sorted(values)
            assert len(set(values)) == len(values)
            stack.extend(c.child for c in node.branches if c.child is not None)


def test_section_lengths_match_conditional_probs():
    p = random_process(3, 4, 1, seed=12)
    r = canonical_representation(p)

    def walk(node, prefix):
        law = dict(conditional_law(p, prefix))
        for iv, cell in cells(node):
            assert iv.length == law[cell.value]
            if cell.child is not None:
                walk(cell.child, prefix + (cell.value,))

    walk(r.root, ())


def test_duplicate_value_branches_merge_with_mixture_children():
    # node carries value 1 twice with different futures: children mix 1:1
    from canonrep import Branch, Node

    up = leaf((v1(10), F(1)))
    down = leaf((v1(20), F(1)))
    root = FiniteProcess(
        1,
        2,
        Node(
            (
                Branch(v1(1), F(1, 4), up),
                Branch(v1(1), F(1, 4), down),
                Branch(v1(2), F(1, 2), up),
            )
        ),
    )
    r = canonical_representation(root)
    assert len(r.root.branches) == 2
    merged_cell, merged = cells(r.root)[0]
    assert merged.value == (F(1),)
    assert merged_cell.length == F(1, 2)
    sub = {c.value: iv.length for iv, c in cells(merged.child)}
    assert sub == {(F(10),): F(1, 2), (F(20),): F(1, 2)}
    assert law_of_representation(r) == joint_law(root)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_coin_product(coin_product):
    r = canonical_representation(coin_product)
    assert evaluate(r, [F(1, 4), F(3, 4)]) == ((F(-1),), (F(1),))


def test_evaluate_sign_flip(sign_flip):
    r = canonical_representation(sign_flip)
    assert evaluate(r, [F(3, 4), F(1, 4)]) == ((F(1),), (F(-1),))


def test_evaluate_rejects_boundary(sign_flip):
    r = canonical_representation(sign_flip)
    with pytest.raises(XOutOfRange):
        evaluate(r, [F(0), F(1, 2)])
    with pytest.raises(XOutOfRange):
        evaluate(r, [F(1, 2)])  # not enough coordinates


# ---------------------------------------------------------------------------
# law preservation

def test_law_preservation_examples(fair_coin, coin_product, sign_flip, skew_mds):
    for p in (fair_coin, coin_product, sign_flip, skew_mds):
        r = canonical_representation(p)
        assert law_of_representation(r) == joint_law(p)


def test_law_preservation_random():
    rng = Random(2024)
    for _ in range(40):
        p = random_process(
            rng.randint(1, 5),
            rng.randint(1, 6),
            rng.randint(1, 3),
            seed=rng.randrange(10**9),
        )
        r = canonical_representation(p)
        assert law_of_representation(r) == joint_law(p)


def test_deterministic_step_point_mass():
    p = FiniteProcess(1, 1, leaf((v1(7), F(1))))
    r = canonical_representation(p)
    assert law_of_representation(r) == {((F(7),),): F(1)}


# ---------------------------------------------------------------------------
# coordinate recovery

def test_recovery_fair_coin(fair_coin):
    r = canonical_representation(fair_coin)
    assert coordinate_recovery(r, ((F(-1),),)) == (Interval(F(0), F(1, 2)),)


def test_recovery_sign_flip(sign_flip):
    r = canonical_representation(sign_flip)
    cells = coordinate_recovery(r, ((F(1),), (F(-1),)))
    assert cells == (Interval(F(1, 2), F(1)), Interval(F(0), F(1, 2)))


def test_recovery_unreachable(fair_coin):
    r = canonical_representation(fair_coin)
    with pytest.raises(UnreachablePath):
        coordinate_recovery(r, ((F(0),),))


def test_recovery_round_trip_random():
    p = random_process(4, 4, 2, seed=77)
    r = canonical_representation(p)
    for path in joint_law(p):
        cells = coordinate_recovery(r, path)
        mids = [iv.midpoint for iv in cells]
        assert evaluate(r, mids) == path
