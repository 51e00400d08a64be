"""The shared prefix-law traversal and find-cell-by-value walk, checked
against the earlier one-walk-per-check implementations kept below as
references: same verdicts and same witnesses, compared by repr so the
witness types must match too.  Condition (C.I.) is compared by verdict
with the fiber check on the whole joint law, and its witness is checked
as a counterexample on its own."""

import hashlib
import json
import math
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from canonrep import (
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    SizeGuard,
    UnreachablePath,
    UnreachablePrefix,
    are_tangent,
    build_transport,
    canonical_representation,
    conditional_law,
    coordinate_recovery,
    is_mds,
    iter_prefix_laws,
    joint_law,
    law_of_representation,
    pair_law,
    random_dyadic_mds,
    random_independent_process,
    random_process,
    random_tangent_pair,
    represent_mds,
    satisfies_ci,
    verify_transport_consistency,
)
from canonrep.harmonic import compile_disk
from canonrep.jsonio import (
    pair_process_from_json,
    pair_process_to_json,
    process_from_json,
    process_to_json,
    representation_from_json,
    representation_to_json,
)
from canonrep.process import distinct_nodes
from canonrep.representation import cell_bounds, locate_node
from canonrep.transport import SectionTransport, TransportMap

from conftest import (
    cells,
    component_conditional_means,
    leaf,
    pair_from_identical,
    swap_components,
)

ZERO, ONE = F(0), F(1)


# ---------------------------------------------------------------------------
# reference implementations: one prefix-class walk per check

def ref_class_law(cls):
    law = {}
    for node, w in cls:
        for br in node.branches:
            law[br.value] = law.get(br.value, ZERO) + w * br.prob
    return law


def ref_class_children(cls):
    out, totals = {}, {}
    for node, w in cls:
        for br in node.branches:
            out.setdefault(br.value, []).append((br.child, w * br.prob))
            totals[br.value] = totals.get(br.value, ZERO) + w * br.prob
    return {v: [(n, w / totals[v]) for n, w in sub] for v, sub in out.items()}


def ref_walk(p):
    """(prefix, class) in the order of the reference checks' stack."""
    stack = [((), [(p.root, ONE)])]
    while stack:
        prefix, cls = stack.pop()
        yield prefix, cls
        if len(prefix) + 1 < p.depth:
            for v, sub in ref_class_children(cls).items():
                stack.append((prefix + (v,), sub))


def ref_component_law(law, d, which):
    out = {}
    for v, q in law.items():
        part = v[:d] if which == 0 else v[d:]
        out[part] = out.get(part, ZERO) + q
    return out


def ref_is_mds(p):
    zero = (ZERO,) * p.dimension
    for prefix, cls in ref_walk(p):
        mean = zero
        for v, q in ref_class_law(cls).items():
            mean = tuple(x + y for x, y in zip(mean, tuple(q * c for c in v)))
        if mean != zero:
            return CheckResult(False, {"prefix": prefix, "mean": mean})
    return CheckResult(True, None)


def ref_are_tangent(pq):
    d = pq.component_dim
    for prefix, cls in ref_walk(pq.process):
        law = ref_class_law(cls)
        f_law = ref_component_law(law, d, 0)
        g_law = ref_component_law(law, d, 1)
        if f_law != g_law:
            return CheckResult(
                False,
                {
                    "prefix": prefix,
                    "first_law": sorted(f_law.items()),
                    "second_law": sorted(g_law.items()),
                },
            )
    return CheckResult(True, None)


def ref_component_conditional_means(pq, which):
    d = pq.component_dim
    zero = (ZERO,) * d
    for prefix, cls in ref_walk(pq.process):
        mean = list(zero)
        for v, q in ref_class_law(cls).items():
            part = v[:d] if which == 0 else v[d:]
            for i, c in enumerate(part):
                mean[i] += q * c
        if tuple(mean) != zero:
            return CheckResult(False, {"prefix": prefix, "mean": tuple(mean)})
    return CheckResult(True, None)


def ref_satisfies_ci(pq, checked_component=1):
    d = pq.component_dim
    n_steps = pq.process.depth
    law = {}

    def walk(node, path, prob):
        for br in node.branches:
            q = prob * br.prob
            full = path + (br.value,)
            if br.child is None:
                law[full] = law.get(full, ZERO) + q
            else:
                walk(br.child, full, q)

    walk(pq.process.root, (), ONE)

    def split_path(path):
        f = tuple(v[:d] for v in path)
        g = tuple(v[d:] for v in path)
        return (f, g) if checked_component == 1 else (g, f)

    def join_step(other_v, checked_v):
        return other_v + checked_v if checked_component == 1 else checked_v + other_v

    declared = {}
    for prefix, cls in ref_walk(pq.process):
        declared[prefix] = ref_component_law(ref_class_law(cls), d, checked_component)

    fibers = {}
    for path, prob in law.items():
        other, checked = split_path(path)
        inner = fibers.setdefault(other, {})
        inner[checked] = inner.get(checked, ZERO) + prob

    for other, cond in fibers.items():
        total = sum(cond.values(), ZERO)
        cond = {b: q / total for b, q in cond.items()}
        margs = [dict() for _ in range(n_steps)]
        for b, q in cond.items():
            for n in range(n_steps):
                margs[n][b[n]] = margs[n].get(b[n], ZERO) + q
        support_product = 1
        for m in margs:
            support_product *= len(m)
        if len(cond) != support_product:
            return CheckResult(
                False,
                {
                    "kind": "factorization-support",
                    "conditioning_path": other,
                    "joint_support": len(cond),
                    "product_support": support_product,
                },
            )
        for b, q in cond.items():
            prod = ONE
            for n in range(n_steps):
                prod *= margs[n][b[n]]
            if q != prod:
                return CheckResult(
                    False,
                    {
                        "kind": "factorization",
                        "conditioning_path": other,
                        "checked_path": b,
                        "joint": q,
                        "product": prod,
                    },
                )
        seen = set()
        for b in cond:
            for n in range(n_steps):
                pair_prefix = tuple(join_step(other[k], b[k]) for k in range(n))
                key = (n, pair_prefix)
                if key in seen:
                    continue
                seen.add(key)
                if margs[n] != declared[pair_prefix]:
                    return CheckResult(
                        False,
                        {
                            "kind": "step-law",
                            "conditioning_path": other,
                            "step": n + 1,
                            "pair_prefix": pair_prefix,
                            "given_path": sorted(margs[n].items()),
                            "given_history": sorted(declared[pair_prefix].items()),
                        },
                    )
    return CheckResult(True, None)


# ---------------------------------------------------------------------------
# random inputs

def _coarsen(p: FiniteProcess) -> FiniteProcess:
    """Round every coordinate down to an integer, so siblings share values
    and every law has to aggregate equal values on distinct branches."""

    def walk(node):
        return Node(
            tuple(
                Branch(
                    tuple(F(math.floor(c)) for c in br.value),
                    br.prob,
                    walk(br.child) if br.child is not None else None,
                )
                for br in node.branches
            )
        )

    return FiniteProcess(p.dimension, p.depth, walk(p.root))


def _behind_zero(p: FiniteProcess) -> PairProcess:
    """Pair whose first component is constantly zero, so condition (C.I.)
    asks the second component itself to have independent steps."""

    def walk(node):
        return Node(
            tuple(
                Branch(
                    (ZERO,) * p.dimension + br.value,
                    br.prob,
                    walk(br.child) if br.child is not None else None,
                )
                for br in node.branches
            )
        )

    return PairProcess(FiniteProcess(2 * p.dimension, p.depth, walk(p.root)), p.dimension)


def _processes(n=40, seed=5):
    rng = Random(seed)
    out = []
    for _ in range(n):
        depth, branching, dim = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)
        s = rng.randrange(10**9)
        out.append(random_process(depth, branching, dim, s, mds=rng.random() < 0.5))
        out.append(_coarsen(random_process(depth, branching, dim, s)))
    out.append(random_independent_process(3, 3, 1, rng.randrange(10**9), mds=True))
    out.append(random_dyadic_mds(3, 2, 1, rng.randrange(10**9)))
    out.append(REWEIGHTED)
    return out


# prefixes (1) and (-1) reach the same two nodes with other weights, so
# their classes differ and only (-1), walked second, has a nonzero mean
_UP = leaf(((F(2),), F(1, 2)), ((F(0),), F(1, 2)))
_DOWN = leaf(((F(-2),), F(1, 2)), ((F(0),), F(1, 2)))
REWEIGHTED = FiniteProcess(1, 2, Node((
    Branch((F(-1),), F(1, 6), _UP), Branch((F(-1),), F(1, 3), _DOWN),
    Branch((F(1),), F(1, 4), _UP), Branch((F(1),), F(1, 4), _DOWN),
)))


def _pairs(n=25, seed=7):
    rng = Random(seed)
    out = []
    for _ in range(n):
        depth, branching = rng.randint(1, 3), rng.randint(1, 3)
        s = rng.randrange(10**9)
        generic = PairProcess(random_process(depth, branching, 2, s), 1)
        tangent = random_tangent_pair(depth, branching, 1, s)
        mds = represent_mds(random_process(depth, branching, 1, s, mds=True))
        decoupled = pair_law(mds)
        coarse = PairProcess(_coarsen(random_process(depth, branching, 2, s)), 1)
        identical = pair_from_identical(random_process(depth, branching, 1, s, mds=True))
        lifted = _behind_zero(random_process(depth, branching, 1, s))
        for pq in (generic, tangent, decoupled, coarse, identical, lifted):
            out.extend([pq, swap_components(pq)])
    # equal second-step supports, history-dependent weights
    skewed = FiniteProcess(1, 2, Node((
        Branch((F(-1),), F(1, 2), leaf(((F(0),), F(1, 3)), ((F(1),), F(2, 3)))),
        Branch((F(1),), F(1, 2), leaf(((F(0),), F(2, 3)), ((F(1),), F(1, 3)))),
    )))
    out.append(_behind_zero(skewed))
    out.append(WRONG_WEIGHTS)
    return out


# full product support, but the atoms are not the products of the marginals:
# the one input that fails (C.I.) with kind "factorization"
WRONG_WEIGHTS = PairProcess(FiniteProcess(2, 1, leaf(
    ((ZERO, ZERO), F(2, 5)), ((ZERO, ONE), F(1, 10)),
    ((ONE, ZERO), F(1, 10)), ((ONE, ONE), F(2, 5)),
)), 1)


def _json_twin(pq: PairProcess) -> PairProcess:
    """The pair read back from its JSON, with equal subtrees shared."""
    return pair_process_from_json(pair_process_to_json(pq))


def _pair_law(*atoms):
    return tuple(((F(f), F(g)), F(q)) for (f, g), q in atoms)


# tangent, and both components have zero conditional mean
GOOD_LAWS = (
    _pair_law(((1, 1), "1/2"), ((-1, -1), "1/2")),
    _pair_law(((1, -1), "1/2"), ((-1, 1), "1/2")),
    _pair_law(((1, 1), "1/4"), ((1, -1), "1/4"), ((-1, 1), "1/4"), ((-1, -1), "1/4")),
    _pair_law(((2, 2), "1/3"), ((-1, -1), "2/3")),
)
BAD_LAWS = (
    _pair_law(((1, 0), "1/2"), ((-1, 1), "1/2")),  # not tangent, second mean 1/2
    _pair_law(((1, 1), "1/2"), ((0, 0), "1/2")),  # tangent, both means 1/2
    _pair_law(((2, 1), "1/3"), ((-1, "-1/2"), "2/3")),  # zero means, not tangent
    _pair_law(((0, 1), "1/2"), ((1, -1), "1/2")),  # not tangent, first mean 1/2
)


def _law_node(law, children):
    return Node(tuple(Branch(v, q, child) for (v, q), child in zip(law, children)))


def _shared_pairs(n=40, seed=13):
    """Depth-3 pairs whose nodes come from small per-level pools, so sibling
    and cousin prefixes reach the same class.  The top two levels are good,
    so a failure sits at depth 2 below classes that repeat.  The swapped
    twin goes through JSON to share its nodes too."""
    rng = Random(seed)

    def node(laws, pool):
        law = rng.choice(laws)
        return _law_node(law, [rng.choice(pool) for _ in law])

    product, good = GOOD_LAWS[2], _law_node(GOOD_LAWS[2], [None] * 4)
    out = [
        # the walk checks the last root branch's subtree, skipping a repeated
        # leaf class in it, then skips the third root branch (same middle
        # node as the fourth) and fails below the second, whose class the
        # first branch repeats
        PairProcess(FiniteProcess(2, 3, _law_node(product, [
            _law_node(GOOD_LAWS[1], [good, _law_node(bad, [None] * 2)])] * 2
            + [_law_node(GOOD_LAWS[0], [good, good])] * 2)), 1)
        for bad in (BAD_LAWS[0], BAD_LAWS[3])
    ]
    middle = _law_node(product, [good] * 4)
    out.append(PairProcess(FiniteProcess(2, 3, _law_node(product, [middle] * 4)), 1))
    # (C.I.) fails only because first value 1 leads to the product classes
    # of `good` and of `other`; `good` was met first after first value -1
    other = _law_node(_pair_law(((1, 2), "1/4"), ((1, -2), "1/4"), ((-1, 2), "1/4"),
                                ((-1, -2), "1/4")), [None] * 4)
    out.append(PairProcess(FiniteProcess(2, 2, _law_node(product, [good, other, good, good])), 1))
    for _ in range(n):
        leaves = [node(GOOD_LAWS * 3 + BAD_LAWS, [None]) for _ in range(rng.randint(1, 4))]
        middles = [node(GOOD_LAWS, leaves) for _ in range(rng.randint(1, 2))]
        out.append(PairProcess(FiniteProcess(2, 3, node(GOOD_LAWS, middles)), 1))
    return [twin for pq in out for twin in (pq, _json_twin(swap_components(pq)))]


PROCESSES = _processes()
PAIRS = _pairs()
SHARED_PAIRS = _shared_pairs()
JSON_PAIRS = [_json_twin(pq) for pq in PAIRS]


def test_inputs_reach_both_verdicts():
    assert {is_mds(p).ok for p in PROCESSES} == {True, False}
    assert {are_tangent(pq).ok for pq in PAIRS} == {True, False}
    assert {satisfies_ci(pq).ok for pq in PAIRS} == {True, False}
    kinds = {satisfies_ci(pq).witness["kind"] for pq in PAIRS if not satisfies_ci(pq).ok}
    assert kinds == {"factorization-support", "factorization", "step-law"}


def test_iter_prefix_laws_matches_reference_walk():
    for p in PROCESSES + [pq.process for pq in PAIRS]:
        got = [(prefix, law) for prefix, law in iter_prefix_laws(p)]
        want = [(prefix, ref_class_law(cls)) for prefix, cls in ref_walk(p)]
        assert repr(got) == repr(want)


def test_is_mds_matches_reference():
    shared = [process_from_json(process_to_json(p)) for p in PROCESSES]
    for p in PROCESSES + shared + [pq.process for pq in SHARED_PAIRS]:
        assert repr(is_mds(p)) == repr(ref_is_mds(p))


def test_conditional_law_matches_reference():
    for p in PROCESSES:
        for prefix, cls in ref_walk(p):
            assert conditional_law(p, prefix) == sorted(ref_class_law(cls).items())


def assert_ci_counterexample(pq: PairProcess, which: int, witness: dict) -> None:
    """Recompute the step laws the (C.I.) witness names and confirm that
    they break the local condition in the stated way."""
    d = pq.component_dim
    other, checked = (slice(d, None), slice(None, d)) if which == 0 else (
        slice(None, d), slice(d, None))

    def parts(prefix):
        law = dict(conditional_law(pq.process, prefix))
        a, b = ref_component_law(law, d, 1 - which), ref_component_law(law, d, which)
        return law, a, b

    law, a, b = parts(witness["prefix"])
    kind = witness["kind"]
    if kind == "factorization-support":
        assert witness["joint_support"] == len(law)
        assert witness["product_support"] == len(a) * len(b) != len(law)
    elif kind == "factorization":
        v = witness["value"]
        assert witness["joint"] == law[v]
        assert witness["product"] == a[v[other]] * b[v[checked]] != law[v]
    else:
        assert kind == "step-law"
        first_law, first_a, first_b = parts(witness["first_prefix"])
        assert [v[other] for v in witness["first_prefix"]] == [
            v[other] for v in witness["prefix"]]
        assert witness["law"] == sorted(law.items())
        assert witness["first_law"] == sorted(first_law.items())
        assert (a, b) != (first_a, first_b)


@pytest.mark.parametrize("which", [0, 1])
def test_pair_checks_match_reference(which):
    """Also on pairs that share nodes.  On a valid pair the local (C.I.)
    condition fails exactly when the fiber check does (its product and
    history conditions follow from the fiber check's step laws)."""
    for pq in PAIRS + JSON_PAIRS + SHARED_PAIRS:
        assert repr(are_tangent(pq)) == repr(ref_are_tangent(pq))
        assert repr(component_conditional_means(pq, which)) == repr(
            ref_component_conditional_means(pq, which)
        )
        ci = satisfies_ci(pq, which)
        assert ci.ok == ref_satisfies_ci(pq, which).ok
        if not ci.ok:
            assert_ci_counterexample(pq, which, ci.witness)


def _skips_before_failure(p: FiniteProcess, prefix) -> bool:
    """The failing prefix sits at depth >= 2 below a class that another
    prefix of that length reaches too, and the pruned walk (which skips
    such repeats) reaches it sooner than the full walk."""
    owners = {}
    for q, cls in ref_walk(p):
        owners.setdefault((len(q), tuple((id(n), w) for n, w in cls)), []).append(q)
    repeated = {q for qs in owners.values() if len(qs) > 1 for q in qs}
    below = any(prefix[:k] in repeated for k in range(1, len(prefix)))
    full = [q for q, _ in iter_prefix_laws(p)]
    pruned = [q for q, _ in iter_prefix_laws(p, len)]
    return len(prefix) >= 2 and below and pruned.index(prefix) < full.index(prefix)


def test_classes_with_equal_nodes_and_other_weights_stay_apart():
    assert repr(is_mds(REWEIGHTED)) == repr(ref_is_mds(REWEIGHTED))
    assert is_mds(REWEIGHTED).witness["prefix"] == ((F(-1),),)
    rep = canonical_representation(REWEIGHTED)
    assert law_of_representation(rep) == joint_law(REWEIGHTED)


def test_satisfies_ci_refuses_an_unnormalized_law():
    # every atom present is the product of its marginals, but two of the
    # four atoms of that product are missing (the law has mass 2)
    pq = PairProcess(FiniteProcess(2, 1, leaf(((ONE, ONE), ONE), ((ZERO, ZERO), ONE))), 1)
    result = satisfies_ci(pq, 1)
    assert not result.ok and not ref_satisfies_ci(pq, 1).ok
    assert result.witness["kind"] == "factorization-support"
    assert_ci_counterexample(pq, 1, result.witness)


def test_shared_pairs_fail_below_repeated_classes():
    def deep(result, pq):
        return not result.ok and _skips_before_failure(pq.process, result.witness["prefix"])

    assert any(deep(are_tangent(pq), pq) for pq in SHARED_PAIRS)
    for which in (0, 1):
        assert any(deep(component_conditional_means(pq, which), pq) for pq in SHARED_PAIRS)
    assert {satisfies_ci(pq).ok for pq in SHARED_PAIRS} == {True, False}


# ---------------------------------------------------------------------------
# find-cell-by-value callers keep their own exception types

@pytest.fixture(scope="module")
def rep():
    return canonical_representation(random_process(2, 3, 1, seed=21))


def _raises(exc_type, fn, *args):
    with pytest.raises(exc_type) as info:
        fn(*args)
    assert type(info.value) is exc_type
    return info.value.info


def test_locate_node_unreachable(rep):
    first = rep.root.branches[0].value
    missing = (F(99),)
    info = _raises(UnreachablePrefix, locate_node, rep, (missing,))
    assert set(info) == {"prefix", "step"} and info["step"] == 1
    assert set(_raises(UnreachablePrefix, locate_node, rep, (first, missing))) == {
        "prefix", "step"}
    child = rep.root.branches[0].child.branches[0].value
    assert set(_raises(UnreachablePrefix, locate_node, rep, (first, child))) == {"prefix"}
    assert set(_raises(UnreachablePrefix, locate_node, rep, (first, child, missing))) == {
        "prefix"}


def test_coordinate_recovery_unreachable(rep):
    first = rep.root.branches[0].value
    child = rep.root.branches[0].child.branches[0].value
    info = _raises(UnreachablePath, coordinate_recovery, rep, (first, (F(99),)))
    assert set(info) == {"path", "step"} and info["step"] == 2
    too_long = (first, child, first)
    assert set(_raises(UnreachablePath, coordinate_recovery, rep, too_long)) == {"path"}
    assert coordinate_recovery(rep, (first, child)) == (
        cells(rep.root)[0][0], cells(rep.root.branches[0].child)[0][0])


def test_transport_consistency_unknown_history_raises():
    pq = random_tangent_pair(2, 3, 1, seed=4)
    base = canonical_representation(pq.process)
    maps = build_transport(pq, base)
    section = maps[1].sections[0]
    stray = SectionTransport(((F(99), F(99)),), section.pairs)
    bad = [maps[0], TransportMap(2, (stray,))]
    info = _raises(UnreachablePrefix, verify_transport_consistency, base, bad, 1)
    assert info["prefix"] == stray.history


# ---------------------------------------------------------------------------
# one distinct-node walk

def test_distinct_nodes_lists_each_node_once_children_first():
    rep = represent_mds(random_process(4, 3, 1, seed=5, mds=True))
    pair = pair_law(rep).process
    read_back = process_from_json(process_to_json(pair))  # interns equal subtrees
    for root in (pair.root, read_back.root):
        nodes = distinct_nodes(root)
        position = {id(node): k for k, node in enumerate(nodes)}
        assert len(position) == len(nodes)
        expanded, stack = [], [root]  # every prefix's node, shared or not
        while stack:
            node = stack.pop()
            expanded.append(id(node))
            stack.extend(br.child for br in node.branches if br.child is not None)
        assert set(position) == set(expanded) and len(nodes) < len(expanded)
        for node in nodes:
            for br in node.branches:
                if br.child is not None:
                    assert position[id(br.child)] < position[id(node)]
        assert nodes[-1] is root


# ---------------------------------------------------------------------------
# one compiled tree

def test_compiled_tree_matches_arc_function_and_cells():
    rep = represent_mds(random_process(3, 4, 2, seed=8, mds=True))

    def walk(compiled, node):
        ends = cell_bounds(node)
        assert np.array_equal(compiled.bounds, [float(c) for c in ends[1:-1]])
        assert np.array_equal(
            compiled.values, [[float(c) for c in cell.value] for cell in node.branches]
        )
        assert compiled.angles == tuple(2.0 * math.pi * float(c) for c in ends)
        for sub, cell in zip(compiled.children, node.branches):
            if cell.child is None:
                assert sub is None
            else:
                walk(sub, cell.child)

    walk(compile_disk(rep), rep.root)


def test_compiled_tree_has_one_disk_node_per_distinct_node():
    shared_somewhere = False
    for seed in range(6):
        rep = representation_from_json(representation_to_json(
            represent_mds(random_dyadic_mds(3, 2, 1, seed=seed))))
        compiled: dict[int, object] = {}  # id of each node -> its DiskNode
        prefixes = 0
        stack = [(rep.root, compile_disk(rep))]
        while stack:
            node, disk = stack.pop()
            prefixes += 1
            assert compiled.setdefault(id(node), disk) is disk
            for cell, sub in zip(node.branches, disk.children):
                if cell.child is not None:
                    stack.append((cell.child, sub))
        assert len({id(disk) for disk in compiled.values()}) == len(compiled)
        shared_somewhere |= len(compiled) < prefixes
    assert shared_somewhere


# ---------------------------------------------------------------------------
# generators: one guard, one node-law draw, unchanged bytes

# sha256 of json.dumps(process_to_json(...), sort_keys=True), recorded
# before the generators shared their node-law draw
GENERATOR_DIGESTS = {
    "random_process(3, 4, 1, 5)": (
        lambda: random_process(3, 4, 1, 5),
        "4dcd39d63fa36a8728af18dd8da5e8be406d9dbc3d0c3f9350ba05974ff2b181"),
    "random_process(4, 4, 2, 7, mds=True)": (
        lambda: random_process(4, 4, 2, 7, mds=True),
        "7a9432329b3f141be6c529eaffd00481b45cf10a997eb8a4369416ea2c46bfe5"),
    "random_independent_process(3, 3, 1, 9)": (
        lambda: random_independent_process(3, 3, 1, 9),
        "68f258043434035c51f5385ee3d8ca7e76ae8af8e22bfdee77fa48363c17cb7b"),
    "random_independent_process(4, 4, 2, 11, mds=True)": (
        lambda: random_independent_process(4, 4, 2, 11, mds=True),
        "6059fdeabf8b2cd2f0bf4d9db42e20c04e16fb4821b6aa79e8ef3e69593dbfee"),
    "random_tangent_pair(3, 3, 1, 13)": (
        lambda: random_tangent_pair(3, 3, 1, 13).process,
        "3de9f97becb5b3b14911c3d66622d9070d9f5ae612242fcef849332b0bc8befa"),
    "random_dyadic_mds(3, 2, 2, 17)": (
        lambda: random_dyadic_mds(3, 2, 2, 17),
        "abbde59f3db10f6607b80daabc865424e2cc1baf3a9b0e3c85abb077ce05d6bc"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_unchanged(name):
    make, digest = GENERATOR_DIGESTS[name]
    blob = json.dumps(process_to_json(make()), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_process(2, 2, 0, seed=1),
        lambda: random_independent_process(2, 2, 0, seed=1),
        lambda: random_tangent_pair(2, 2, 0, seed=1),
        lambda: random_dyadic_mds(2, 2, 0, seed=1),  # looped forever before
        lambda: random_dyadic_mds(2, 1, 0, seed=1),
        lambda: random_dyadic_mds(2, 1, -1, seed=1),
    ],
)
def test_generators_reject_dimension_below_one(make):
    with pytest.raises(SizeGuard, match="dimension"):
        make()
