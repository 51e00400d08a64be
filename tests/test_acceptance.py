"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
fixed here; the statistical items use frozen seeds so the whole suite is
deterministic on one platform.
"""

import math
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from canonrep import (
    BrownianConfig,
    are_tangent,
    build_transport,
    canonical_representation,
    construct_ci_copy,
    decoupling_ratio,
    harmonic_measure,
    interleave_paths,
    joint_law,
    law_of_representation,
    martingale_check,
    pair_law,
    random_dyadic_mds,
    random_independent_process,
    random_process,
    random_tangent_pair,
    recover_sums,
    represent_mds,
    sample_paths,
    satisfies_ci,
    simulate_grid_batch,
    simulate_increments,
    verify_measure_preserving,
    verify_transport_consistency,
    verify_zero_sections,
)
from canonrep.bench import exact_moment_ratio
from canonrep.cli import increment_chi_square
from canonrep.errors import DegenerateBatch
from canonrep.harmonic import TAU
from canonrep.process import PathLaw


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def _component_marginals(pq) -> tuple[PathLaw, PathLaw]:
    d = pq.component_dim
    first: PathLaw = {}
    second: PathLaw = {}
    for path, prob in joint_law(pq.process).items():
        a = tuple(v[:d] for v in path)
        b = tuple(v[d:] for v in path)
        first[a] = first.get(a, F(0)) + prob
        second[b] = second.get(b, F(0)) + prob
    return first, second


def test_criterion_1_law_preservation():
    """Exact law equality of the representation for 200 random processes."""
    rng = Random(20260101)
    checked = 0
    for _ in range(200):
        p = random_process(
            rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 3),
            seed=rng.randrange(10**9),
        )
        r = canonical_representation(p)
        assert law_of_representation(r) == joint_law(p)
        checked += 1
    _verdict(1, checked == 200,
             f"law_of_representation == joint_law exactly on {checked} "
             f"random processes (depth<=5, branching<=6, d<=3)")


def test_criterion_2_zero_sections():
    """Exactly zero section integrals for 200 random zero-mean fixtures."""
    rng = Random(20260102)
    worst = F(0)
    for _ in range(200):
        p = random_process(
            rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 3),
            seed=rng.randrange(10**9), mds=True,
        )
        report = verify_zero_sections(represent_mds(p))
        worst = max(worst, report.max_abs)
    _verdict(2, worst == 0,
             f"max section deviation over 200 random zero-mean fixtures = {worst}")


def test_criterion_3_decoupled_copy():
    """Tangency, decoupling condition, and exact marginal preservation.

    The law-equality half of the statement assumes the source itself is
    decoupled-compatible (its step laws do not depend on history), so the
    fixtures are drawn from that class; tangency and the decoupling
    condition are additionally asserted on unrestricted fixtures in the
    module tests.
    """
    rng = Random(20260103)
    checked = 0
    for _ in range(100):
        p = random_independent_process(
            rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2),
            seed=rng.randrange(10**9),
        )
        r = canonical_representation(p)
        pq = pair_law(construct_ci_copy(r))
        assert are_tangent(pq).ok
        assert satisfies_ci(pq, 1).ok
        first, second = _component_marginals(pq)
        src = law_of_representation(r)
        assert first == src and second == src
        checked += 1
    _verdict(3, checked == 100,
             f"{checked} decoupled copies: tangent, conditionally independent, "
             f"both marginals equal the source law exactly")


def test_criterion_4_transport():
    """Measure preservation and pointwise consistency of all transports."""
    rng = Random(20260104)
    pairs = 0
    sections = 0
    for i in range(100):
        if i % 2:
            # permutation-coupled pair: pathwise-dependent components
            pq = random_tangent_pair(
                rng.randint(1, 3), rng.randint(1, 3), 1,
                seed=rng.randrange(10**9),
            )
        else:
            p = random_process(
                rng.randint(1, 3), rng.randint(1, 3), 1,
                seed=rng.randrange(10**9),
            )
            pq = pair_law(construct_ci_copy(canonical_representation(p)))
        base = canonical_representation(pq.process)
        maps = build_transport(pq, base)
        for tm in maps:
            res = verify_measure_preserving(tm)
            assert res.ok, res.witness
            sections += len(tm.sections)
        res = verify_transport_consistency(base, maps, pq.component_dim)
        assert res.ok, res.witness
        # one spare draw per pair keeps the frozen sequence of 100 pairs
        rng.randrange(10**9)
        pairs += 1
    _verdict(4, pairs == 100,
             f"{pairs} tangent pairs, {sections} sections: measure preserving "
             f"and second = first o transport on every piece, exactly")


def test_criterion_5_interleaved_identities():
    """Exact pathwise recovery of both sums from the interleaved sequence."""
    rep = represent_mds(random_dyadic_mds(3, 2, 1, seed=20260105))
    batch = sample_paths(construct_ci_copy(rep), 100_000, seed=515)
    r = interleave_paths(batch)
    sum_d, sum_e = recover_sums(r)
    ok = np.array_equal(sum_d, batch.direct.sum(axis=1)) and np.array_equal(
        sum_e, batch.decoupled.sum(axis=1)
    )
    _verdict(5, ok,
             "recover_sums reproduces both path sums exactly on 10^5 sampled "
             "pair paths (dyadic fixture, zero tolerance)")


def test_criterion_6_p2_ratio():
    """Exact enumeration ratio 1 at p=2; Monte Carlo within 5 SE of 1."""
    rng = Random(20260106)
    enumerated = 0
    for _ in range(40):
        p = random_process(
            rng.randint(1, 4), rng.randint(1, 4), 1,
            seed=rng.randrange(10**9), mds=True,
        )
        rep = represent_mds(p)
        try:
            ratio, me, md = exact_moment_ratio(rep, 2)
        except DegenerateBatch:
            continue
        assert me == md and ratio == 1.0
        enumerated += 1
    assert enumerated >= 20

    mc_rep = represent_mds(random_process(3, 3, 1, seed=606, mds=True))
    report = decoupling_ratio(mc_rep, 2.0, 100_000, seed=616)
    mc_ok = abs(report.ratio - 1.0) <= 5 * report.stderr
    _verdict(6, enumerated >= 20 and report.exact_ratio == 1.0 and mc_ok,
             f"exact p=2 ratio == 1 on {enumerated} fixtures (depth<=4); "
             f"MC at M=10^5: {report.ratio:.5f} within 5 SE "
             f"({report.stderr:.5f}) of 1")


def test_criterion_7_harmonic_measure():
    """Closed form vs quadrature within 1e-10; center measure exact."""
    import cmath

    from scipy import integrate

    def quad_oracle(z: complex, lo: float, hi: float) -> float:
        r, phi = abs(z), math.atan2(z.imag, z.real)

        def kernel(theta):
            return (1 - r * r) / (
                2 * math.pi * (1 - 2 * r * math.cos(theta - phi) + r * r)
            )

        points = [phi + k * TAU for k in (-1, 0, 1) if lo < phi + k * TAU < hi]
        val, _ = integrate.quad(kernel, lo, hi, limit=400,
                                points=points or None, epsabs=1e-13)
        return val

    rng = Random(20260107)
    worst = 0.0
    for _ in range(1000):
        z = 0.98 * rng.random() * cmath.exp(1j * TAU * rng.random())
        lo = TAU * (rng.random() - 0.5)
        hi = lo + TAU * rng.random()
        worst = max(worst, abs(harmonic_measure(z, (lo, hi)) - quad_oracle(z, lo, hi)))

    # exactness from the center: measure == span / 2pi with float equality
    center_rng = Random(77)
    center_exact = harmonic_measure(0, (0.0, math.pi)) == 0.5
    for _ in range(200):
        lo = TAU * (center_rng.random() - 0.5)
        hi = lo + TAU * center_rng.random()
        center_exact = center_exact and (
            harmonic_measure(0, (lo, hi)) == (hi - lo) / TAU
        )
    _verdict(7, worst < 1e-10 and center_exact,
             f"closed form vs quadrature max |diff| = {worst:.2e} over 1000 "
             f"pairs; center measure = arc length / 2pi exactly")


@pytest.fixture(scope="module")
def embedding_fixture():
    p = random_process(3, 4, 1, seed=20260108, mds=True)
    return represent_mds(p)


def test_criterion_8_embedding_law_exit_sample(embedding_fixture):
    cfg = BrownianConfig(seed=818, scheme="exit_sample")
    batch = simulate_increments(embedding_fixture, 100_000, cfg)
    res = increment_chi_square(embedding_fixture, batch.increments)
    _verdict(8, res.p_value > 0.01,
             f"exit_sample increments vs exact path law: chi-square "
             f"p = {res.p_value:.4f} (M=10^5, depth 3)")


def test_criterion_8_embedding_law_euler(embedding_fixture):
    cfg = BrownianConfig(seed=828, scheme="euler", dt_base=5e-5)
    batch = simulate_increments(embedding_fixture, 100_000, cfg)
    res = increment_chi_square(embedding_fixture, batch.increments)
    _verdict(8, res.p_value > 0.01,
             f"euler increments vs exact path law: chi-square "
             f"p = {res.p_value:.4f} (M=10^5, depth 3, "
             f"restarts={batch.restarts}, coarse={batch.coarse_blocks})")


def test_criterion_9_martingale_proxy():
    rep = represent_mds(random_dyadic_mds(2, 2, 1, seed=20260109))
    cfg = BrownianConfig(seed=919, scheme="euler", dt_base=5e-5)
    grid = np.concatenate([np.array([0.15, 0.35, 0.55, 0.75, 0.95]),
                           1 + np.array([0.15, 0.35, 0.55, 0.75, 0.95])])
    values, _, _ = simulate_grid_batch(rep, grid, 10_000, cfg)
    report = martingale_check(values, grid)
    fitted = [s for s in report.slopes if s.slope is not None]
    _verdict(9, report.mean_ok(5.0) and report.slopes_ok(5.0) and fitted,
             f"10 checkpoints: max |mean|/SE = {report.max_mean_over_se:.2f} "
             f"<= 5; {len(fitted)} conditional-mean slopes within 5 SE of 1")


def test_criterion_10_determinism(tmp_path):
    from click.testing import CliRunner

    from canonrep.cli import main

    runner = CliRunner()
    outputs = {}
    for tag in ("x", "y"):
        base = tmp_path / tag
        base.mkdir()
        p_path = base / "p.json"
        r_path = base / "r.json"
        pair_path = base / "pair.json"
        t_path = base / "t.json"
        b_path = base / "bench.json"
        s_path = base / "sk.json"
        for args in (
            ["gen", "--depth", "2", "--branching", "3", "--dimension", "1",
             "--mds", "--seed", "7", "--out", str(p_path)],
            ["represent", "--in", str(p_path), "--out", str(r_path)],
            ["decouple", "--in", str(r_path), "--out", str(pair_path)],
            ["transport", "--in", str(pair_path), "--out", str(t_path)],
            ["bench", "--in", str(r_path), "--p", "2", "--samples", "20000",
             "--seed", "11", "--out", str(b_path)],
            ["skorohod", "--in", str(p_path), "--scheme", "exit_sample",
             "--samples", "20000", "--seed", "13", "--out", str(s_path)],
        ):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, (args, res.output)
        outputs[tag] = [
            f.read_bytes()
            for f in (p_path, r_path, pair_path, t_path, b_path, s_path)
        ]
    ok = outputs["x"] == outputs["y"]
    _verdict(10, ok, "all seeded commands byte-identical across two runs")
