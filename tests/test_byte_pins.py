"""Sampler and report bytes pinned by sha256.

The digests were recorded with the per-path sampling loops that preceded
the vectorized tree walk, the single-pass ``skorohod`` and the ``bench
--csv`` that reuses the ratio batch, so these tests hold the current code
to exactly the old bytes.  They hash bytes rather than compare with
``array_equal``, which treats 0.0 and -0.0 as equal where a CSV does
not.  JSON reports name the generator, and with it the numpy version;
that string is replaced by a fixed token before hashing.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from canonrep import (
    BrownianConfig,
    random_process,
    represent_mds,
    sample_paths,
    simulate_F,
    simulate_grid_batch,
    simulate_increments,
)
from canonrep.cli import main
from canonrep.harmonic import compile_disk
from canonrep.rng import GENERATOR_ID, path_stream


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, part.dtype.str)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# library samplers on a depth-3, dimension-2 zero-mean tree

GRID = np.array([0.0, 0.25, 0.999, 1.0, 1.5, 2.0, 2.75])


def _cfg(scheme):
    return BrownianConfig(seed=4, scheme=scheme)


def _library_case(name, rep):
    if name == "sample_paths":
        # pinned when a direct-only sample drew depth uniforms per path; the
        # pair batch's direct half has its bytes
        batch = sample_paths(rep, 500, seed=3)
        return _sha(batch.direct, batch.seed, batch.source)
    if name == "sample_paths_pair":
        batch = sample_paths(rep, 500, seed=3)
        return _sha(batch.direct, batch.decoupled, batch.seed, batch.source)
    scheme = name.rsplit("-", 1)[1]
    count = 300 if scheme == "exit_sample" else 6
    if name.startswith("simulate_increments"):
        b = simulate_increments(rep, count, _cfg(scheme))
        return _sha(b.increments, b.exit_angles, b.restarts, b.coarse_blocks,
                    b.total_blocks, b.seed, b.scheme)
    if name.startswith("simulate_grid_batch"):
        return _sha(*simulate_grid_batch(rep, GRID, count, _cfg(scheme)))
    path = simulate_F(rep, GRID, _cfg(scheme), path_index=7)
    return _sha(path.times, path.values, path.increments, path.exit_points,
                path.exit_times, path.restarts, path.coarse_blocks, path.scheme,
                path.seed, path.path_index)


# the euler pins were re-recorded when adaptive steps with a bridge-crossing
# test on the vectorized Philox kernel replaced the fixed-step numpy normals
LIBRARY_PINS = {
    "sample_paths":
        "28bb7361027d7c886be5df599bd2927c746c81c0c01298b7407ed7e99b6b4cc5",
    "sample_paths_pair":
        "fd8964e4572e3edaa1ad6eaba16670c1f7456ad11dfad8f6eee897c86d8376a2",
    "simulate_increments-exit_sample":
        "cc83d741abba136d063a4d1544cbdea276dd74d0507ad3e004df2fc6bfe69ff3",
    "simulate_increments-euler":
        "dc7920af216b3b01240108dad39fdbfa4dd98e21b0eef527919bfd65788d17d0",
    "simulate_grid_batch-exit_sample":
        "468d8e50b9055c3e9a9d7defd298dcc8e11cdee9f9cb3dbe6b964dae352d133a",
    "simulate_grid_batch-euler":
        "bc5aff91786eea969eb1db1b95d41a91420a2b2f423e27fdfd8fe4eed9e9dc4f",
    "simulate_F-exit_sample":
        "f957affc26d0d88fa1a3f19c5ef13b64d1164fc5aa64f04eb542dc453ed7f272",
    "simulate_F-euler":
        "5c0d4297fd7b67384eed9355f52341fcc772bf8e392418ce651cf9e738cfba02",
}


@pytest.fixture(scope="module")
def pin_rep():
    return represent_mds(random_process(3, 3, 2, seed=5, mds=True))


@pytest.mark.parametrize("name", sorted(LIBRARY_PINS))
def test_library_sampler_bytes(pin_rep, name):
    assert _library_case(name, pin_rep) == LIBRARY_PINS[name]


def test_euler_draws_few_normals_per_block(pin_rep):
    # the fixed-step scheme drew about 16,400 normals per block (two 4,096-step
    # chunks of two); every euler step draws two
    b = simulate_increments(pin_rep, 6, _cfg("euler"))
    assert 0 < 2 * b.steps * 30 <= 16_400 * b.total_blocks


# ---------------------------------------------------------------------------
# CLI outputs on the depth-2 fixture of ``gen --depth 2 --branching 3 --mds``

CLI_CASES = {
    "bench-p2-csv": (["bench", "--p", "2", "--samples", "3000", "--seed", "11"],
                     True, True),
    "bench-p3": (["bench", "--p", "3", "--samples", "3000", "--seed", "11"],
                 True, False),
    # 10003 paths: the first 10^4 carry the grid, the last three do not
    "skorohod-exit_sample-10003": (
        ["skorohod", "--scheme", "exit_sample", "--samples", "10003", "--seed", "5"],
        False, True),
    "skorohod-euler-40": (
        ["skorohod", "--scheme", "euler", "--samples", "40", "--seed", "5"],
        False, True),
}

CLI_PINS = {
    # CSV cells are repr(float(v)), so these bytes do not depend on how the
    # installed numpy prints its scalars
    "bench-p2-csv":
        "55c93a809c3994e30ccb84c294fcb14b1a3094b6be7bfdbdcd205c93d4aea39b",
    "bench-p3":
        "5e6cd715af62ef1c7592b46a10dbe0f3b36252dda3708470629c882d22754ad4",
    "skorohod-exit_sample-10003":
        "72c89f636362747b1d88130360c7f7ddd6efead68316933f929a32f2d96549f0",
    # re-recorded with the library's euler pins
    "skorohod-euler-40":
        "d106e427632096fb132185b59d10a0a9deeb56c19196b37444c86946cfc4bb46",
}


def _cli_case(name, tmp_path):
    runner = CliRunner()
    proc, rep = tmp_path / "p.json", tmp_path / "r.json"
    for args in (["gen", "--depth", "2", "--branching", "3", "--mds", "--seed", "7",
                  "--out", str(proc)],
                 ["represent", "--in", str(proc), "--out", str(rep)]):
        assert runner.invoke(main, args).exit_code == 0
    args, on_rep, with_csv = CLI_CASES[name]
    out, table = tmp_path / "out.json", tmp_path / "out.csv"
    res = runner.invoke(
        main,
        args + ["--in", str(rep if on_rep else proc), "--out", str(out)]
        + (["--csv", str(table)] if with_csv else []),
    )
    report = out.read_bytes().replace(GENERATOR_ID.encode(), b"GENERATOR")
    return _sha(res.exit_code, report, table.read_bytes() if with_csv else b"")


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_output_bytes(tmp_path, name):
    assert _cli_case(name, tmp_path) == CLI_PINS[name]


# ---------------------------------------------------------------------------
# the per-path loops the vectorized walk replaced, kept as references

def _loop_sample(rep, count, seed, decoupled):
    root = compile_disk(rep)
    depth, dim = rep.depth, rep.dimension
    direct = np.empty((count, depth, dim))
    copy = np.empty((count, depth, dim))
    for m in range(count):
        rng = path_stream(seed, m)
        xs = rng.random(depth)
        ys = rng.random(depth) if decoupled else None
        node = root
        for k in range(depth):
            i = int(np.searchsorted(node.bounds, xs[k], side="right"))
            direct[m, k] = node.values[i]
            if decoupled:
                copy[m, k] = node.values[int(np.searchsorted(node.bounds, ys[k], side="right"))]
            node = node.children[i]
    return direct, copy


def _loop_exit_sample(rep, grid, count, seed):
    root = compile_disk(rep)
    depth, dim = rep.depth, rep.dimension
    values = np.zeros((count, len(grid), dim))
    increments = np.zeros((count, depth, dim))
    for m in range(count):
        us = path_stream(seed, m).random(depth)
        node, partial = root, np.zeros(dim)
        for n in range(depth):
            for gi, t in enumerate(grid):
                if min(int(t), depth - 1) == n:
                    values[m, gi] = partial
            cell = int(np.searchsorted(node.bounds, us[n], side="right"))
            increments[m, n] = node.values[cell]
            partial = partial + increments[m, n]
            node = node.children[cell]
    return values, increments


@pytest.mark.parametrize(
    "depth, branching, dim, seed",
    [(1, 4, 1, 0), (2, 3, 1, 1), (3, 4, 2, 2), (4, 3, 1, 3), (5, 2, 3, 4)],
)
def test_walk_matches_per_path_loops(depth, branching, dim, seed):
    rep = represent_mds(random_process(depth, branching, dim, seed=seed, mds=True))
    # the direct half has the bytes of a walk that draws no copy uniforms
    pair = sample_paths(rep, 400, seed=seed)
    assert pair.direct.tobytes() == _loop_sample(rep, 400, seed, False)[0].tobytes()
    direct, copy = _loop_sample(rep, 400, seed, True)
    assert pair.direct.tobytes() == direct.tobytes()
    assert pair.decoupled.tobytes() == copy.tobytes()

    grid = np.concatenate([np.arange(depth), np.arange(depth) + 0.5])
    values, increments, _ = simulate_grid_batch(rep, grid, 400, BrownianConfig(seed=seed))
    loop_values, loop_increments = _loop_exit_sample(rep, grid, 400, seed)
    assert values.tobytes() == loop_values.tobytes()
    assert increments.tobytes() == loop_increments.tobytes()


@pytest.mark.parametrize("scheme", ["exit_sample", "euler"])
def test_one_pass_batch_matches_both_samplers(pin_rep, scheme):
    # skorohod's single pass: grid values for the first paths, increments
    # for all, each path simulated once, in path order
    count, grid_count = (500, 200) if scheme == "exit_sample" else (7, 3)
    cfg = _cfg(scheme)
    batch = simulate_increments(pin_rep, count, cfg, GRID, grid_count)
    alone = simulate_increments(pin_rep, count, cfg)
    assert batch.increments.tobytes() == alone.increments.tobytes()
    assert batch.exit_angles.tobytes() == alone.exit_angles.tobytes()
    if scheme == "euler":
        assert batch.exit_times.tobytes() == alone.exit_times.tobytes()
    assert (batch.restarts, batch.coarse_blocks, batch.total_blocks) == (
        alone.restarts, alone.coarse_blocks, alone.total_blocks)
    grid_values, _, _ = simulate_grid_batch(pin_rep, GRID, grid_count, cfg)
    assert batch.values.tobytes() == grid_values.tobytes()
    assert alone.values is None


# ---------------------------------------------------------------------------
# exact documents of ``represent``, ``decouple``, ``transport`` and
# ``transport --in2`` on ``gen --mds`` fixtures

# transport --in2 couples the representation with itself: tangent at depth
# 1, NotTangent (exit 1, message pinned) on the deeper, history-dependent trees
EXACT_FIXTURES = {  # name: (depth, branching, dimension, seed)
    "d1-b4-dim2": (1, 4, 2, 11),
    "d2-b3-dim1": (2, 3, 1, 7),
    "d3-b3-dim2": (3, 3, 2, 8),
    "d4-b3-dim1": (4, 3, 1, 9),
    "d4-b2-dim2": (4, 2, 2, 10),
}

EXACT_PINS = {
    "d1-b4-dim2":
        "e2248094798eee6486dce2971e007a6b589cd55361a383208180b62fad9632db",
    "d2-b3-dim1":
        "e4378db4b65b928759b4572e88702378ba60a430ae95bd17fc3a828b3ca9ada7",
    "d3-b3-dim2":
        "8e7aa1314c3794163b3eb7732f189e67eecdc995a079d226098a4825e230b786",
    "d4-b2-dim2":
        "ba03e87b20aae0866466f3c1bab0cb5b112138aa5d07e1cf205291d18be28adc",
    "d4-b3-dim1":
        "7a81f07917ece2691eef1ff0260e6e12c4fe918f397d2eaae5e18aa6523e9deb",
}


def _exact_documents(name, tmp_path):
    depth, branching, dim, seed = EXACT_FIXTURES[name]
    runner = CliRunner()
    proc, rep, pair = (tmp_path / f for f in ("p.json", "r.json", "pq.json"))
    steps = [
        ["gen", "--depth", str(depth), "--branching", str(branching), "--dimension",
         str(dim), "--mds", "--seed", str(seed), "--out", str(proc)],
        ["represent", "--in", str(proc), "--out", str(rep)],
        ["decouple", "--in", str(rep), "--out", str(pair)],
        ["transport", "--in", str(pair), "--out", str(tmp_path / "t.json")],
        ["transport", "--in", str(rep), "--in2", str(rep), "--out",
         str(tmp_path / "t2.json")],
    ]
    digests = []
    for args in steps:
        res = runner.invoke(main, args)
        out = tmp_path / args[-1]
        digests.append(_sha(res.exit_code, res.stdout, res.stderr,
                            out.read_bytes() if out.exists() else b""))
    return _sha(*digests[1:])


@pytest.mark.parametrize("name", sorted(EXACT_FIXTURES))
def test_exact_document_bytes(tmp_path, name):
    assert _exact_documents(name, tmp_path) == EXACT_PINS[name]
