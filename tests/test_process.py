from fractions import Fraction as F
from random import Random

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
    is_mds,
    joint_law,
    pair_law,
    random_independent_process,
    random_process,
    satisfies_ci,
    validate_process,
)
from canonrep.jsonio import process_from_json, process_to_json

from conftest import (
    leaf,
    pair_from_identical,
    step_marginal_law,
    swap_components,
    unshared,
    v1,
)


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


def _validation_error(p):
    with pytest.raises(Exception) as err:
        validate_process(p)
    return type(err.value), str(err.value), err.value.info


def test_validate_shared_nodes_raises_as_unshared():
    """Shared nodes are validated once per level; what is raised, and the
    prefix it names, is what the unshared tree gives."""
    good = leaf((v1(1), F(1, 2)), (v1(-1), F(1, 2)))
    bad = leaf((v1(1), F(1, 2)), (v1(-1), F(1, 3)))
    middle = Node((Branch(v1(0), F(1, 2), good), Branch(v1(2), F(1, 2), good)))
    cases = [
        # one bad leaf under both root branches: named under the first
        FiniteProcess(1, 2, Node((Branch(v1(0), F(1, 4), bad), Branch(v1(1), F(3, 4), bad)))),
        # a good leaf shared below a bad one
        FiniteProcess(1, 3, Node((
            Branch(v1(0), F(1, 2), middle),
            Branch(v1(1), F(1, 2), Node((Branch(v1(0), F(1), bad),))),
        ))),
        # the leaf validated at level 2 ends the tree too soon at level 1
        FiniteProcess(1, 3, Node((Branch(v1(0), F(1, 2), middle), Branch(v1(1), F(1, 2), good)))),
    ]
    for p in cases:
        got = _validation_error(p)
        assert got[0] in (ProbSumNotOne, RaggedDepth)
        assert got == _validation_error(FiniteProcess(1, p.depth, unshared(p.root)))
    validate_process(FiniteProcess(1, 3, Node((Branch(v1(0), F(1), middle),))))


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


def ref_joint_law(p):
    """One entry per tree path, walked depth first: the reference order."""
    law = {}

    def walk(node, path, prob):
        for br in node.branches:
            q = prob * br.prob
            full = path + (br.value,)
            if br.child is None:
                law[full] = law.get(full, F(0)) + q
            else:
                walk(br.child, full, q)

    walk(p.root, (), F(1))
    return law


def _joint_law_inputs():
    rng = Random(17)
    out = []
    for _ in range(12):
        depth, k, dim = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        p = random_process(depth, k, dim, rng.randrange(10**9))
        shared = process_from_json(process_to_json(p))
        pair = pair_law(canonical_representation(p)).process
        out += [p, shared, pair, process_from_json(process_to_json(pair))]
    out.append(random_independent_process(3, 3, 2, 5))
    return out


def test_joint_law_of_parts_matches_projected_walk():
    for p in _joint_law_inputs():
        full = ref_joint_law(p)
        assert list(joint_law(p).items()) == list(full.items())
        for part in (slice(None, 1), slice(1, None), slice(None), slice(1, 2)):
            projected = {}
            for path, prob in full.items():
                key = tuple(v[part] for v in path)
                projected[key] = projected.get(key, F(0)) + prob
            assert list(joint_law(p, part).items()) == list(projected.items())


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


def test_conditional_law_list_prefix_matches_tuple_prefix():
    # prefix values spelled as lists find the same branches as tuples
    for p in (random_process(2, 2, 1, 3, mds=True), random_process(3, 3, 2, seed=5)):
        for path in joint_law(p):
            for k in range(p.depth):
                prefix = path[:k]
                assert conditional_law(p, [list(v) for v in prefix]) == conditional_law(p, prefix)


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
    pq = pair_law(canonical_representation(sign_flip))
    assert are_tangent(pq).ok
    assert are_tangent(swap_components(pq)).ok


def test_tangent_decoupled_copy(sign_flip):
    pq = pair_law(canonical_representation(sign_flip))
    assert are_tangent(pq).ok


def _distinct_nodes(node, seen=None):
    seen = set() if seen is None else seen
    if node is not None and id(node) not in seen:
        seen.add(id(node))
        for br in node.branches:
            _distinct_nodes(br.child, seen)
    return len(seen)


def test_swap_and_identical_keep_shared_nodes():
    rep = canonical_representation(random_process(4, 4, 1, seed=3, mds=True))
    pq = pair_law(rep)
    swapped = swap_components(pq)
    assert _distinct_nodes(swapped.process.root) == _distinct_nodes(pq.process.root) == 12
    assert joint_law(swap_components(swapped).process) == joint_law(pq.process)
    assert satisfies_ci(swapped, 0) == satisfies_ci(pq, 1)
    source = process_from_json(process_to_json(random_independent_process(3, 3, 1, 9)))
    twin = pair_from_identical(source)
    assert _distinct_nodes(twin.process.root) == _distinct_nodes(source.root)
    assert joint_law(twin.process) == {
        tuple(v + v for v in path): q for path, q in joint_law(source).items()}


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
    pq = pair_law(canonical_representation(sign_flip))
    assert satisfies_ci(pq, 1).ok


def test_ci_fails_for_pathwise_copy(sign_flip):
    res = satisfies_ci(pair_from_identical(sign_flip), 1)
    assert not res.ok


def test_ci_fails_for_pathwise_copy_dependent(copy_chain):
    res = satisfies_ci(pair_from_identical(copy_chain), 1)
    assert not res.ok


def test_ci_single_step_independent_pair(fair_coin):
    # one step, components independent: single factor, trivially decoupled
    pq = pair_law(canonical_representation(fair_coin))
    assert pq.process.depth == 1
    assert satisfies_ci(pq, 1).ok
    assert satisfies_ci(pq, 0).ok


def test_ci_random_decoupled_copies():
    for seed in range(6):
        p = random_process(3, 3, 1, seed=100 + seed)
        pq = pair_law(canonical_representation(p))
        assert satisfies_ci(pq, 1).ok, seed


# ---------------------------------------------------------------------------
# package surface

def test_public_names_are_exactly_these():
    # __all__ is every public function and class of the package namespace,
    # and no submodule; adding or dropping an export must change this list too
    import canonrep

    exported = {
        # errors
        "CanonrepError", "DegenerateBatch", "DimensionMismatch", "FormatError",
        "NoDiskExit", "NonPositiveProb", "NotMartingaleDifference", "NotTangent",
        "ProbSumNotOne", "ProcessError", "RaggedDepth", "SizeGuard",
        "StepTooCoarse", "TooCloseToBoundary", "UnreachablePath",
        "UnreachablePrefix", "XOutOfRange",
        # process
        "Branch", "CheckResult", "FiniteProcess", "Node", "PairProcess", "Value",
        "are_tangent", "conditional_law", "is_mds", "iter_prefix_laws",
        "joint_law", "satisfies_ci", "validate_process",
        # representation
        "CellRepresentation", "Interval", "canonical_representation",
        "cell_bounds", "coordinate_recovery", "evaluate",
        "law_of_representation",
        # martingale
        "pair_law", "represent_mds", "verify_zero_sections",
        # transport
        "SectionTransport", "TransportMap", "build_transport",
        "independent_coupling", "verify_measure_preserving",
        "verify_transport_consistency",
        # bench
        "PairSampleBatch", "decoupling_ratio", "exact_moment_ratio",
        "interleave_paths", "lp_norm", "recover_sums", "sample_paths",
        # harmonic
        "harmonic_extension", "harmonic_measure",
        # embedding
        "BrownianConfig", "EmbeddedPath", "martingale_check", "simulate_F",
        "simulate_grid_batch", "simulate_increments",
        # generate
        "random_dyadic_mds", "random_independent_process", "random_process",
        "random_tangent_pair",
    }
    assert set(canonrep.__all__) == exported
