import math
from fractions import Fraction as F

import numpy as np
import pytest

from canonrep import (
    BrownianConfig,
    FiniteProcess,
    NotMartingaleDifference,
    StepTooCoarse,
    XOutOfRange,
    martingale_check,
    random_process,
    represent_mds,
    simulate_F,
    simulate_grid_batch,
    simulate_increments,
)
from canonrep.cli import increment_chi_square
from canonrep.embedding import phi, phi_inverse
from canonrep.representation import canonical_representation

from conftest import leaf, v1


@pytest.fixture(scope="module")
def mds_rep():
    return represent_mds(random_process(2, 3, 1, seed=11, mds=True))


# ---------------------------------------------------------------------------
# time change

def test_phi_sanity():
    assert phi(0.0) == 0.0
    assert phi(0.5) == 1.0
    assert phi(0.999999) > 1e5
    grid = np.linspace(0.0, 0.99, 50)
    vals = [phi(t) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for s in (0.0, 0.7, 15.0):
        assert phi(phi_inverse(s)) == pytest.approx(s)


# ---------------------------------------------------------------------------
# config validation

def test_config_validation(mds_rep):
    with pytest.raises(ValueError):
        BrownianConfig(dt_base=0.0)
    with pytest.raises(ValueError):
        BrownianConfig(scheme="exact")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BrownianConfig(dt_base=bad)
        with pytest.raises(ValueError):
            BrownianConfig(phi_cap=bad)
    for grid_count in (-1, 4):  # more grid paths than paths, or fewer than none
        with pytest.raises(ValueError, match="grid_count"):
            simulate_increments(mds_rep, 3, BrownianConfig(), [0.5], grid_count)


# ---------------------------------------------------------------------------
# simulate_F basics

def test_f_starts_at_zero(mds_rep):
    cfg = BrownianConfig(seed=3, scheme="euler", dt_base=5e-5)
    path = simulate_F(mds_rep, [1e-9], cfg)
    assert path.values[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_f_rejects_non_mds():
    p = FiniteProcess(1, 1, leaf((v1(1), F(1, 2)), (v1(2), F(1, 2))))
    rep = canonical_representation(p)
    with pytest.raises(NotMartingaleDifference):
        simulate_F(rep, [0.5], BrownianConfig(seed=1))


def test_f_rejects_grid_outside_range(mds_rep):
    with pytest.raises(XOutOfRange):
        simulate_F(mds_rep, [2.5], BrownianConfig(seed=1))


def test_f_deterministic_given_seed(mds_rep):
    cfg = BrownianConfig(seed=21, scheme="euler", dt_base=5e-5)
    grid = [0.3, 0.9, 1.5]
    a = simulate_F(mds_rep, grid, cfg, path_index=4)
    b = simulate_F(mds_rep, grid, cfg, path_index=4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.exit_points, b.exit_points)


def test_f_freezes_after_exit(mds_rep):
    cfg = BrownianConfig(seed=5, scheme="euler", dt_base=5e-5)
    # grid points late in block 1: the exit has almost surely happened
    path = simulate_F(mds_rep, [0.999, 0.9995], cfg)
    if path.exit_times[0] < 0.999:
        assert path.values[0, 0] == path.values[1, 0] == path.increments[0, 0]


def test_f_increments_realizable(mds_rep):
    cfg = BrownianConfig(seed=7, scheme="exit_sample")
    path = simulate_F(mds_rep, [0.5, 1.5], cfg)
    atoms = {float(c.value[0]) for c in mds_rep.root.branches}
    assert path.increments[0, 0] in atoms


def test_exit_sample_skeleton_values(mds_rep):
    cfg = BrownianConfig(seed=9, scheme="exit_sample")
    path = simulate_F(mds_rep, [0.5, 1.5], cfg)
    assert path.values[0, 0] == 0.0  # block 1 starts at the center
    assert path.values[1, 0] == path.increments[0, 0]
    assert math.isnan(path.exit_times[0])


def test_deterministic_zero_process_embeds_to_zero():
    p = FiniteProcess(1, 1, leaf((v1(0), F(1))))
    rep = represent_mds(p)
    cfg = BrownianConfig(seed=2, scheme="euler", dt_base=5e-5)
    path = simulate_F(rep, [0.25, 0.75], cfg)
    assert np.all(path.values == 0.0)
    assert np.all(path.increments == 0.0)


@pytest.mark.parametrize("scheme, count, cap", [
    pytest.param("exit_sample", 200, 1e4, id="exit_sample-200"),
    pytest.param("euler", 6, 1e4, id="euler-6"),
    # about two attempts in three reach the cap and restart
    pytest.param("euler", 6, 0.3, id="euler-6-restarts"),
])
def test_grid_batch_matches_simulate_f(mds_rep, monkeypatch, scheme, count, cap):
    from canonrep import embedding

    cfg = BrownianConfig(seed=17, scheme=scheme, dt_base=5e-5, phi_cap=cap)
    grid = np.array([0.2, 0.5, 0.8, 1.2, 1.5, 1.8])
    paths = [simulate_F(mds_rep, grid, cfg, path_index=m) for m in range(count)]
    checks = []
    verify = embedding.verify_zero_sections

    def counted(rep):
        checks.append(rep)
        return verify(rep)

    monkeypatch.setattr(embedding, "verify_zero_sections", counted)
    values, increments, restarts = simulate_grid_batch(mds_rep, grid, count, cfg)
    assert len(checks) == 1  # the tree is verified once per batch, not per path
    assert np.array_equal(values, np.stack([p.values for p in paths]))
    assert np.array_equal(increments, np.stack([p.increments for p in paths]))
    assert restarts == sum(p.restarts for p in paths)
    assert (restarts > 0) == (cap < 1)


def test_euler_rows_match_a_shifted_range_across_chunks(mds_rep):
    # the batch runs its paths in chunks; any range of paths, simulated on
    # its own, has the rows it has inside the batch, restarts included
    from canonrep import embedding
    from canonrep.harmonic import compile_disk

    cfg = BrownianConfig(seed=23, scheme="euler", phi_cap=0.3)
    grid = np.array([0.2, 0.5, 1.2, 1.8])
    count = embedding._PATHS_PER_CHUNK + 3
    batch = simulate_increments(mds_rep, count, cfg, grid, count)
    start = count - 6  # three paths on each side of the chunk edge
    shifted = embedding._simulate_range(
        mds_rep, compile_disk(mds_rep), cfg, start, count,
        embedding._grid_by_block(grid, mds_rep.depth),
    )
    assert batch.restarts > 0 and shifted.restarts > 0
    for name in ("increments", "exit_angles", "exit_times", "values"):
        assert getattr(batch, name)[start:].tobytes() == getattr(shifted, name).tobytes()


@pytest.mark.parametrize("per_pass, max_width, kernel_pass", [
    pytest.param(1, 1, 4096, id="one-block-at-a-time"),
    pytest.param(1 << 20, 1 << 10, 4096, id="wide"),
    pytest.param(1 << 12, 64, 5, id="kernel-passes-of-5"),
])
def test_euler_bytes_do_not_depend_on_the_draw_width(
    mds_rep, monkeypatch, per_pass, max_width, kernel_pass
):
    # step k of an attempt reads Philox block k of its sub-stream however
    # many blocks a refill draws and however the kernel splits them, with
    # restarts (phi_cap=0.3) and grid positions
    from canonrep import embedding, rng

    cfg = BrownianConfig(seed=29, scheme="euler", phi_cap=0.3)
    grid = np.array([0.2, 0.5, 1.2, 1.8])
    default = simulate_increments(mds_rep, 40, cfg, grid, 30)
    monkeypatch.setattr(embedding, "_BLOCKS_PER_PASS", per_pass)
    monkeypatch.setattr(embedding, "_MAX_DRAW_STEPS", max_width)
    monkeypatch.setattr(rng, "_BLOCKS_PER_PASS", kernel_pass)
    batch = simulate_increments(mds_rep, 40, cfg, grid, 30)
    assert default.restarts > 0
    for name in ("increments", "exit_angles", "exit_times", "values"):
        assert getattr(batch, name).tobytes() == getattr(default, name).tobytes()
    assert (batch.restarts, batch.coarse_blocks, batch.steps) == (
        default.restarts, default.coarse_blocks, default.steps)


# ---------------------------------------------------------------------------
# increment law

def test_increment_law_exit_sample(mds_rep):
    cfg = BrownianConfig(seed=31, scheme="exit_sample")
    batch = simulate_increments(mds_rep, 50_000, cfg)
    res = increment_chi_square(mds_rep, batch.increments)
    assert res.p_value > 0.01


def test_increment_law_euler(mds_rep):
    cfg = BrownianConfig(seed=31, scheme="euler", dt_base=5e-5)
    batch = simulate_increments(mds_rep, 2_000, cfg)
    res = increment_chi_square(mds_rep, batch.increments)
    assert res.p_value > 0.01
    assert batch.coarse_blocks / batch.total_blocks < 0.01


def test_step_too_coarse_raises(mds_rep):
    cfg = BrownianConfig(seed=31, scheme="euler", dt_base=2e-3)
    with pytest.raises(StepTooCoarse):
        simulate_increments(mds_rep, 60, cfg)


def test_step_too_coarse_raises_for_every_sampler(mds_rep):
    # at dt 2e-3 a block cannot last the minimum number of steps
    cfg = BrownianConfig(seed=31, scheme="euler", dt_base=2e-3)
    grid = [0.5, 1.5]
    for run in (
        lambda: simulate_increments(mds_rep, 5, cfg),
        lambda: simulate_grid_batch(mds_rep, grid, 5, cfg),
        lambda: simulate_F(mds_rep, grid, cfg),
    ):
        with pytest.raises(StepTooCoarse, match="blocks exited in fewer than") as info:
            run()
        assert set(info.value.info) == {"coarse", "total"}
        assert info.value.info["coarse"] >= 0.01 * info.value.info["total"] > 0


def test_euler_exit_angles_uniform(mds_rep):
    # discretized motion from the center is rotation invariant, so the
    # crossing angle stays exactly uniform at any step size
    from canonrep.harmonic import TAU
    from canonrep.stats import chi_square_gof

    cfg = BrownianConfig(seed=77, scheme="euler", dt_base=5e-5)
    batch = simulate_increments(mds_rep, 1500, cfg)
    angles = batch.exit_angles.ravel()
    counts, _ = np.histogram(angles, bins=8, range=(0.0, TAU))
    assert chi_square_gof(counts, np.full(8, 1 / 8)).p_value > 0.01


def test_euler_exit_time_law(mds_rep):
    # the exit angles are uniform at any step size, so no chi-square test of
    # the increments sees the steps; the exit times do.  From the center,
    # P(tau > s) = sum_k 2 / (j_k J_1(j_k)) exp(-j_k^2 s / 2) over the zeros
    # j_k of J_0, and a block exits at time tau / (1 + tau)
    from scipy import special, stats

    batch = simulate_increments(mds_rep, 10_000, BrownianConfig(seed=101, scheme="euler"))
    rel = (batch.exit_times - np.arange(mds_rep.depth)).ravel()
    assert rel.size >= 20_000
    zeros = special.jn_zeros(0, 60)
    weights = 2.0 / (zeros * special.j1(zeros))

    def cdf(t):
        s = np.asarray(t) / (1.0 - np.asarray(t))
        return 1.0 - np.exp(-np.multiply.outer(s, zeros**2) / 2.0) @ weights

    assert stats.kstest(rel, cdf).pvalue > 0.01
    se = rel.std(ddof=1) / math.sqrt(rel.size)
    assert abs(rel.mean() - 0.303845) <= 5 * se


# ---------------------------------------------------------------------------
# martingale diagnostics

def test_martingale_check_requires_paths(mds_rep):
    with pytest.raises(ValueError):
        martingale_check(np.zeros((10, 3, 1)), [0.1, 0.2, 0.3])


def test_martingale_check_euler(mds_rep):
    cfg = BrownianConfig(seed=13, scheme="euler", dt_base=5e-5)
    grid = np.array([0.2, 0.5, 0.8, 1.2, 1.5, 1.8])
    values, _, _ = simulate_grid_batch(mds_rep, grid, 3000, cfg)
    report = martingale_check(values, grid, min_paths=1000)
    assert report.mean_ok()
    assert report.slopes_ok()
    fitted = [s for s in report.slopes if s.slope is not None]
    assert fitted, "no slope pair could be fitted"


def test_martingale_check_deterministic_zero():
    from canonrep import Branch, Node

    p = FiniteProcess(1, 2, Node((Branch((F(0),), F(1), leaf((v1(0), F(1)))),)))
    rep = represent_mds(p)
    cfg = BrownianConfig(seed=4, scheme="exit_sample")
    grid = np.array([0.5, 1.5])
    values, _, _ = simulate_grid_batch(rep, grid, 1500, cfg)
    report = martingale_check(values, grid, min_paths=1000)
    assert report.max_mean_over_se == 0.0  # means exactly zero
