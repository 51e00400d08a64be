"""Property tests over structurally generated processes.

The strategy builds small trees directly (not via the seeded generator),
so hypothesis can shrink a failing tree to a minimal counterexample.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from canonrep import (
    Branch,
    FiniteProcess,
    Node,
    are_tangent,
    canonical_representation,
    coordinate_recovery,
    evaluate,
    is_mds,
    joint_law,
    law_of_representation,
    pair_law,
    satisfies_ci,
    validate_process,
    verify_zero_sections,
)
from conftest import pair_from_identical, step_marginal_law


@st.composite
def processes(draw, max_depth=3, max_branching=3, max_dim=2, zero_mean=False,
              allow_duplicates=False):
    dim = draw(st.integers(1, max_dim))
    depth = draw(st.integers(1, max_depth))

    def draw_value():
        return tuple(
            F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            for _ in range(dim)
        )

    def draw_node(level: int) -> Node:
        k = draw(st.integers(1, max_branching))
        values = []
        while len(values) < k:
            v = draw_value()
            if v not in values:
                values.append(v)
        if allow_duplicates and draw(st.booleans()):
            # sibling branches sharing a value, each with its own subtree;
            # keep the last slot free when it is about to be solved
            if zero_mean and k > 2:
                values[1] = values[0]
            elif not zero_mean and k > 1:
                values[-1] = values[0]
        if k == 1:
            probs = [F(1)]
        else:
            total = draw(st.integers(k * 2, k * 6))
            cuts = sorted(
                draw(
                    st.lists(
                        st.integers(1, total - 1),
                        min_size=k - 1,
                        max_size=k - 1,
                        unique=True,
                    )
                )
            )
            probs = [F(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]
        if zero_mean:
            if k == 1:
                values[0] = (F(0),) * dim
            else:
                values[-1] = tuple(
                    -sum((p * v[i] for p, v in zip(probs, values[:-1])), F(0))
                    / probs[-1]
                    for i in range(dim)
                )
        last = level + 1 == depth
        return Node(
            tuple(
                Branch(v, p, None if last else draw_node(level + 1))
                for v, p in zip(values, probs)
            )
        )

    return FiniteProcess(dim, depth, draw_node(0))


@settings(max_examples=60, deadline=None)
@given(processes())
def test_law_preservation_property(p):
    validate_process(p)
    r = canonical_representation(p)
    assert law_of_representation(r) == joint_law(p)


@settings(max_examples=60, deadline=None)
@given(processes(allow_duplicates=True))
def test_law_preservation_with_duplicate_siblings(p):
    # sibling branches carrying the same value aggregate into one cell
    # whose subtree is the probability mixture of the duplicates' subtrees
    validate_process(p)
    r = canonical_representation(p)
    assert law_of_representation(r) == joint_law(p)
    stack = [r.root]
    while stack:
        node = stack.pop()
        values = [c.value for c in node.branches]
        assert len(set(values)) == len(values)
        stack.extend(c.child for c in node.branches if c.child is not None)


@settings(max_examples=30, deadline=None)
@given(processes(allow_duplicates=True, zero_mean=True))
def test_duplicate_siblings_zero_mean_property(p):
    # duplicates aggregate before the mean is taken, so the zero-mean
    # check and the section integrals must agree exactly
    assert is_mds(p).ok
    assert verify_zero_sections(canonical_representation(p)).max_abs == 0


@settings(max_examples=40, deadline=None)
@given(processes())
def test_recovery_round_trip_property(p):
    r = canonical_representation(p)
    for path in law_of_representation(r):
        cells = coordinate_recovery(r, path)
        assert evaluate(r, [c.midpoint for c in cells]) == path


@settings(max_examples=40, deadline=None)
@given(processes(zero_mean=True))
def test_zero_mean_sections_property(p):
    assert is_mds(p).ok
    assert verify_zero_sections(canonical_representation(p)).max_abs == 0


@settings(max_examples=30, deadline=None)
@given(processes(max_depth=2))
def test_decoupled_copy_property(p):
    pq = pair_law(canonical_representation(p))
    assert are_tangent(pq).ok
    assert satisfies_ci(pq, 1).ok


@settings(max_examples=30, deadline=None)
@given(processes(max_depth=2))
def test_tangency_reflexive_property(p):
    assert are_tangent(pair_from_identical(p)).ok


@settings(max_examples=30, deadline=None)
@given(processes(max_depth=3))
def test_conditional_law_mixture_property(p):
    law = joint_law(p)
    for step in range(2, p.depth + 1):
        weights: dict = {}
        for path, prob in law.items():
            weights[path[: step - 1]] = weights.get(path[: step - 1], F(0)) + prob
        mixed: dict = {}
        from canonrep import conditional_law

        for prefix, w in weights.items():
            for v, q in conditional_law(p, prefix):
                mixed[v] = mixed.get(v, F(0)) + w * q
        assert mixed == step_marginal_law(p, step)
