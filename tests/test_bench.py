import math
import time
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from canonrep import (
    Branch,
    DegenerateBatch,
    FiniteProcess,
    Node,
    NotMartingaleDifference,
    SizeGuard,
    canonical_representation,
    construct_ci_copy,
    decoupling_ratio,
    exact_moment_ratio,
    interleave_paths,
    law_of_representation,
    lp_norm,
    random_dyadic_mds,
    random_process,
    recover_sums,
    represent_mds,
    sample_paths,
)
from canonrep import bench
from canonrep.stats import chi_square_gof

from conftest import leaf, v1


@pytest.fixture(scope="module")
def coin_rep():
    p = FiniteProcess(1, 1, leaf((v1(-1), F(1, 2)), (v1(1), F(1, 2))))
    return represent_mds(p)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_deterministic(coin_rep):
    a = sample_paths(coin_rep, 50, seed=4)
    b = sample_paths(coin_rep, 50, seed=4)
    assert np.array_equal(a.paths, b.paths)
    assert a.generator.startswith("numpy.philox4x64")


def test_sampling_seek_by_index(coin_rep):
    full = sample_paths(coin_rep, 20, seed=8)
    solo = sample_paths(coin_rep, 1, seed=8)
    assert np.array_equal(solo.paths[0], full.paths[0])


def test_empirical_mean_clt_bound(coin_rep):
    m = 100_000
    batch = sample_paths(coin_rep, m, seed=2)
    mean = batch.paths[:, 0, 0].mean()
    assert abs(mean) <= 4.0 / math.sqrt(m)  # variance is exactly 1


def _marginal_chi_square(side, rep):
    law = sorted(law_of_representation(rep).items())
    keys = {
        np.array([[float(c) for c in v] for v in path]).tobytes(): i
        for i, (path, _) in enumerate(law)
    }
    probs = np.array([float(q) for _, q in law])
    counts = np.zeros(len(law))
    for row in side:
        counts[keys[np.ascontiguousarray(row).tobytes()]] += 1
    return chi_square_gof(counts, probs)


def test_pair_batch_marginal_chi_square():
    # randomized over seeds; flaky-test budget: rerun once on failure
    p = random_process(2, 3, 1, seed=61, mds=True)
    rep = represent_mds(p)
    rng = Random(2)
    seed = rng.randrange(10**9)
    batch = sample_paths(construct_ci_copy(rep), 100_000, seed=seed)
    if _marginal_chi_square(batch.direct, rep).p_value <= 0.01:
        batch = sample_paths(construct_ci_copy(rep), 100_000,
                             seed=rng.randrange(10**9))
        assert _marginal_chi_square(batch.direct, rep).p_value > 0.01


def test_pair_batch_both_marginals_chi_square_independent_source():
    from canonrep import random_independent_process

    p = random_independent_process(2, 3, 1, seed=62, mds=True)
    rep = represent_mds(p)
    batch = sample_paths(construct_ci_copy(rep), 100_000, seed=14)
    assert _marginal_chi_square(batch.direct, rep).p_value > 0.01
    assert _marginal_chi_square(batch.decoupled, rep).p_value > 0.01


# ---------------------------------------------------------------------------
# interleaved identities

def test_interleave_componentwise():
    d = np.array([[[1.0], [-1.0]]])
    e = np.array([[[1.0], [1.0]]])
    from canonrep.bench import PairSampleBatch

    r = interleave_paths(PairSampleBatch(d, e, 0, "test"))
    assert r[0, :, 0].tolist() == [2.0, 0.0, 0.0, -2.0]
    sd, se = recover_sums(r[0])
    assert sd[0] == 0.0 and se[0] == 2.0


def test_interleave_e_equals_d():
    d = np.array([[[0.5], [0.25]]])
    from canonrep.bench import PairSampleBatch

    r = interleave_paths(PairSampleBatch(d, d.copy(), 0, "test"))
    assert r[0, :, 0].tolist() == [1.0, 0.0, 0.5, 0.0]
    sd, se = recover_sums(r)
    assert np.array_equal(sd, se)


def test_interleave_zero_direct():
    e = np.array([[[1.0], [2.0]]])
    z = np.zeros_like(e)
    from canonrep.bench import PairSampleBatch

    r = interleave_paths(PairSampleBatch(z, e, 0, "test"))
    assert r[0, :, 0].tolist() == [1.0, -1.0, 2.0, -2.0]


def test_recover_all_zero():
    sd, se = recover_sums(np.zeros((4, 1)))
    assert sd[0] == 0.0 and se[0] == 0.0


def test_recovery_exact_on_dyadic_fixture():
    rep = represent_mds(random_dyadic_mds(3, 2, 1, seed=3))
    batch = sample_paths(construct_ci_copy(rep), 5000, seed=11)
    r = interleave_paths(batch)
    sd, se = recover_sums(r)
    assert np.array_equal(sd, batch.direct.sum(axis=1))
    assert np.array_equal(se, batch.decoupled.sum(axis=1))


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_single_coin(coin_rep):
    batch = sample_paths(coin_rep, 1000, seed=5)
    est, se = lp_norm(batch.paths.sum(axis=1), 2)
    assert est == 1.0 and se == 0.0  # |+-1|^2 = 1 exactly


def test_lp_norm_constant_sums():
    sums = np.full((100, 1), -3.0)
    est, se = lp_norm(sums, 4)
    assert est == 3.0 and se == 0.0


def test_lp_norm_scaling():
    rng = np.random.default_rng(3)
    sums = rng.normal(size=(500, 2))
    est, _ = lp_norm(sums, 3)
    est2, _ = lp_norm(2.5 * sums, 3)
    assert est2 == pytest.approx(2.5 * est, rel=1e-12)


@pytest.mark.parametrize("sums", [np.ones((1, 1)), np.zeros((1, 2))])
def test_lp_norm_rejects_single_sample(sums):
    with pytest.raises(ValueError, match="two samples"):
        lp_norm(sums, 2)


def test_lp_norm_degenerate_zero():
    assert lp_norm(np.zeros((10, 1)), 2) == (0.0, 0.0)


@pytest.mark.parametrize("p", [1.0, math.nan, math.inf])
def test_lp_norm_rejects_bad_p(p):
    with pytest.raises(ValueError):
        lp_norm(np.ones((10, 1)), p)


def test_lp_norm_second_moment_additivity():
    # N independent fair coins: E|sum|^2 = N exactly
    p = random_dyadic_mds(4, 1, 1, seed=19)
    rep = represent_mds(p)
    _, me, md = exact_moment_ratio(rep, 2)
    batch = sample_paths(rep, 50_000, seed=6)
    est, se = lp_norm(batch.paths.sum(axis=1), 2)
    assert abs(est**2 - float(md)) <= 5 * (2 * est * se + se**2 + 1e-12)


# ---------------------------------------------------------------------------
# decoupling ratio

def test_exact_ratio_p2_is_one():
    checked = 0
    for seed in range(20):
        p = random_process(3, 3, 1, seed=seed, mds=True)
        rep = represent_mds(p)
        try:
            ratio, me, md = exact_moment_ratio(rep, 2)
        except DegenerateBatch:  # the all-zero tree carries no signal
            continue
        assert me == md
        assert ratio == 1.0
        checked += 1
    assert checked >= 10


def test_ratio_p2_within_5_se():
    p = random_process(2, 3, 1, seed=41, mds=True)
    rep = represent_mds(p)
    report = decoupling_ratio(rep, 2.0, 50_000, seed=12)
    assert report.exact_ratio == 1.0
    assert abs(report.ratio - 1.0) <= 5 * report.stderr
    assert report.ci_low <= 1.0 <= report.ci_high


def test_ratio_p4_against_enumeration():
    # history-dependent zero-mean fixture: p = 2 stays exactly 1 but the
    # p = 4 ratio moves off 1; the enumeration oracle anchors the estimate
    from canonrep import Branch, Node

    step_a = leaf((v1(1), F(2, 3)), (v1(-2), F(1, 3)))
    step_b = leaf((v1(3), F(1, 2)), (v1(-3), F(1, 2)))
    root = Node(
        (
            Branch(v1(1), F(2, 3), step_a),
            Branch(v1(-2), F(1, 3), step_b),
        )
    )
    rep = represent_mds(FiniteProcess(1, 2, root))
    ratio2, me2, md2 = exact_moment_ratio(rep, 2)
    assert ratio2 == 1.0 and me2 == md2
    exact, me, md = exact_moment_ratio(rep, 4)
    assert me != md  # genuinely asymmetric at p = 4
    report = decoupling_ratio(rep, 4.0, 60_000, seed=13)
    assert report.exact_ratio == pytest.approx(exact)
    assert abs(report.ratio - exact) <= 5 * report.stderr


def test_ratio_rejects_non_mds(coin_rep):
    p = FiniteProcess(1, 1, leaf((v1(1), F(1, 2)), (v1(2), F(1, 2))))
    rep = canonical_representation(p)
    with pytest.raises(NotMartingaleDifference):
        decoupling_ratio(rep, 2.0, 100, seed=1)


def test_ratio_degenerate_zero_process():
    p = FiniteProcess(1, 2, FiniteProcess(
        1, 1, leaf((v1(0), F(1)))).root)
    # deterministic zero process of depth 1 (reuse leaf directly)
    p = FiniteProcess(1, 1, leaf((v1(0), F(1))))
    rep = represent_mds(p)
    with pytest.raises(DegenerateBatch):
        decoupling_ratio(rep, 2.0, 100, seed=1)


def test_exact_moment_ratio_requires_even_p(coin_rep):
    with pytest.raises(ValueError):
        exact_moment_ratio(coin_rep, 3)


# ---------------------------------------------------------------------------
# exact oracle against an enumeration of the pair law

def _enumerated_moments(rep, ps):
    """Reference: {p: (p-th moment of |sum e|, p-th moment of |sum d|)} for
    each even p in ``ps``, enumerating every (x-cell, y-cell) chain of the
    decoupled copy, (k^2)^N leaves in all."""
    zero = (F(0),) * rep.dimension
    moments = {p: [F(0), F(0)] for p in ps}

    def rec(node, prob, sd, se):
        for xcell in node.branches:
            sd2 = tuple(a + b for a, b in zip(sd, xcell.value))
            for ycell in node.branches:
                q = prob * xcell.prob * ycell.prob
                se2 = tuple(a + b for a, b in zip(se, ycell.value))
                if xcell.child is None:
                    norm_d = sum((c * c for c in sd2), F(0))
                    norm_e = sum((c * c for c in se2), F(0))
                    for p, m in moments.items():
                        m[0] += q * norm_e ** (p // 2)
                        m[1] += q * norm_d ** (p // 2)
                else:
                    rec(xcell.child, q, sd2, se2)

    rec(rep.root, F(1), zero, zero)
    return {p: tuple(m) for p, m in moments.items()}


def _assert_matches_enumeration(rep, ps):
    for p, (me, md) in _enumerated_moments(rep, ps).items():
        if md == 0:
            with pytest.raises(DegenerateBatch):
                exact_moment_ratio(rep, p)
        else:
            assert exact_moment_ratio(rep, p) == (float(me / md) ** (1.0 / p), me, md)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_exact_moment_ratio_equals_enumeration(depth):
    for branching in range(1, 5):
        for dimension in range(1, 4):
            seed = 100 * depth + 10 * branching + dimension
            rep = represent_mds(random_process(depth, branching, dimension, seed=seed, mds=True))
            _assert_matches_enumeration(rep, (2, 4, 6))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_exact_moment_ratio_high_p_is_exact_and_quick(depth):
    # the pass builds laws of sums, so its cost does not grow with p
    rep = represent_mds(random_process(depth, 3, 2, seed=0, mds=True))
    start = time.perf_counter()
    for p in (40, 200):
        exact_moment_ratio(rep, p)
    assert time.perf_counter() - start < 2.0
    _assert_matches_enumeration(rep, (40, 200))


def test_exact_moment_ratio_guard(monkeypatch):
    rep = represent_mds(random_process(3, 3, 1, seed=5, mds=True))
    assert exact_moment_ratio(rep, 2)[0] == 1.0
    monkeypatch.setattr(bench, "MAX_ORACLE_SUMS", 3)
    with pytest.raises(SizeGuard, match="more than 3 path sums"):
        exact_moment_ratio(rep, 2)
    assert decoupling_ratio(rep, 2.0, 1000, seed=1).exact_ratio is None


def test_exact_moment_ratio_refuses_huge_powers():
    # sums of norm 1 and 1/2 keep the float estimates finite at any p, so
    # only the bits guard stops Fraction(1, 4) ** (p // 2) from growing with p
    rep = represent_mds(FiniteProcess(1, 1, leaf((v1(1), F(1, 3)), (v1(F(-1, 2)), F(2, 3)))))
    assert exact_moment_ratio(rep, 2)[0] == 1.0
    start = time.perf_counter()
    with pytest.raises(SizeGuard, match="more than 16384 bits"):
        exact_moment_ratio(rep, 10**12)
    assert time.perf_counter() - start < 1.0


def test_exact_moment_ratio_refuses_ratio_beyond_floats(monkeypatch):
    # at p = 8400 the exact moment ratio of this depth-2 tree exceeds 1e308
    # while its p-th root, and the float estimates, stay near 1.09
    inner = leaf((v1(F(1, 12)), F(1, 2)), (v1(F(-1, 12)), F(1, 2)))
    outer = leaf((v1(F(10, 12)), F(1, 2)), (v1(F(-10, 12)), F(1, 2)))
    root = Node((Branch(v1(F(2, 12)), F(1, 3), inner), Branch(v1(F(-1, 12)), F(2, 3), outer)))
    rep = represent_mds(FiniteProcess(1, 2, root))
    monkeypatch.setattr(bench, "MAX_ORACLE_BITS", 10**6)
    assert exact_moment_ratio(rep, 8000)[0] == pytest.approx(1.09076, abs=1e-5)
    with pytest.raises(SizeGuard, match="float range"):
        exact_moment_ratio(rep, 8400)
    assert decoupling_ratio(rep, 8400.0, 2000, seed=1).exact_ratio is None


def _fraction_power_sum(norms, m):
    """Reference: the running Fraction sum the integer summation replaced."""
    return sum((q * n ** m for q, n in norms), F(0))


def test_power_sum_equals_fraction_summation():
    rng = Random(17)
    for _ in range(200):
        norms = [
            (F(rng.randint(1, 50), rng.randint(1, 60)), F(rng.randint(0, 40), rng.randint(1, 90)))
            for _ in range(rng.randint(1, 12))
        ]
        m = rng.randint(0, 30)
        assert bench._power_sum(norms, m) == _fraction_power_sum(norms, m)


@pytest.mark.parametrize("depth,branching,dimension", [(2, 3, 1), (3, 3, 2), (4, 3, 1)])
def test_oracle_moments_equal_fraction_summation(monkeypatch, depth, branching, dimension):
    """On random trees, at a small p and at the largest p the bits cap lets
    through, both moments equal the Fraction summation of the same terms."""
    rep = represent_mds(random_process(depth, branching, dimension, seed=33 + depth, mds=True))
    calls = []
    real = bench._power_sum
    monkeypatch.setattr(bench, "_power_sum", lambda norms, m: calls.append((norms, m)) or real(norms, m))
    exact_moment_ratio(rep, 4)
    bits = max(n.numerator.bit_length() + n.denominator.bit_length() for n in (
        n for norms, _ in calls for _, n in norms))
    p = 2 * (bench.MAX_ORACLE_BITS // bits)
    _, moment_e, moment_d = exact_moment_ratio(rep, p)
    (norms_d, m), (norms_e, _) = calls[-2:]
    assert m == p // 2 and len(calls) == 4
    assert (moment_e, moment_d) == (
        _fraction_power_sum(norms_e, m), _fraction_power_sum(norms_d, m))
    for norms, m in calls[:2]:
        assert real(norms, m) == _fraction_power_sum(norms, m)
    with pytest.raises(SizeGuard, match="bits"):
        exact_moment_ratio(rep, p + 2)
