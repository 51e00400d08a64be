import numpy as np
import pytest

from canonrep.rng import GENERATOR_ID, _philox_blocks, path_stream, path_uniforms


def test_generator_id_pins_name_and_version():
    assert GENERATOR_ID.startswith("numpy.philox4x64/")
    assert np.__version__ in GENERATOR_ID


def test_streams_reproducible():
    a = path_stream(3, 7).random(8)
    b = path_stream(3, 7).random(8)
    assert np.array_equal(a, b)


def test_streams_differ_across_indices_and_subs():
    base = path_stream(3, 0).random(8)
    assert not np.array_equal(base, path_stream(3, 1).random(8))
    assert not np.array_equal(base, path_stream(4, 0).random(8))
    assert not np.array_equal(base, path_stream(3, 0, sub=1).random(8))


def test_negative_seed_accepted():
    a = path_stream(-5, 2).random(4)
    b = path_stream(-5, 2).random(4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# vectorized Philox4x64-10 against numpy's per-path streams

SEEDS = [0, 11, 2**63 + 5, -5, 2**64 + 3]
RANGES = [
    (0, 5),
    (3, 11),  # start > 0
    (2**64 - 3, 2**64 + 2),  # the path index wraps to 0, 1
]
no_warnings = pytest.mark.filterwarnings("error")


def _reference(seed, start, stop, width):
    out = np.empty((stop - start, width))
    for i in range(stop - start):
        out[i] = path_stream(seed, start + i).random(width)
    return out


@no_warnings
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", range(1, 10))  # 1 to 3 counter blocks
def test_path_uniforms_bytes_match_per_path_streams(seed, width):
    for start, stop in RANGES:
        got = path_uniforms(seed, start, stop, width)
        ref = _reference(seed, start, stop, width)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), (start, stop)


@no_warnings
@pytest.mark.parametrize("seed", [11, 2**63 + 5])
@pytest.mark.parametrize("width", [3, 8])
def test_path_uniforms_across_chunk_edges(seed, width):
    # the kernel runs 2^11 rows at a time; this range spans three chunks
    start, stop = 7, 7 + 2 * 2**11 + 5
    got = path_uniforms(seed, start, stop, width)
    assert got.tobytes() == _reference(seed, start, stop, width).tobytes()


@no_warnings
def test_path_uniforms_empty_range():
    assert path_uniforms(3, 5, 5, 4).shape == (0, 4)
    assert path_uniforms(3, 5, 2, 8).shape == (0, 8)


@no_warnings
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_words_match_random_raw(seed):
    index = np.array([0, 1, 7, 2**64 - 1], dtype=np.uint64)
    words = _philox_blocks(seed, index, 2)
    for row, i in zip(words, index):
        key = np.array([seed & (2**64 - 1), int(i)], dtype=np.uint64)
        ref = np.random.Philox(key=key, counter=np.zeros(4, dtype=np.uint64))
        assert row.tobytes() == ref.random_raw(8).tobytes()


@no_warnings
@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("per_pass", [3, 6, 4096])  # the kernel runs this many blocks at a time
def test_kernel_words_match_sub_streams_from_any_block(monkeypatch, seed, per_pass):
    # per-row sub-streams (the euler step streams and, with bit 63 set, the
    # grid streams) and first blocks, across the path index wrap and the
    # counter's carry from its first word into its second
    from canonrep import rng

    monkeypatch.setattr(rng, "_BLOCKS_PER_PASS", per_pass)
    index = np.array([0, 5, 2**64 - 1, 3, 9, 2**64 - 2], dtype=np.uint64)
    sub = np.array([0, 1, 63, 64, 2**63 + 130, 2**64 - 1], dtype=np.uint64)
    first = np.array([0, 3, 17, 2**64 - 2, 1, 2**64 - 1], dtype=np.uint64)
    words = _philox_blocks(seed, index, 3, sub, first)
    for row, i, s, f in zip(words, index, sub, first):
        ref = path_stream(seed, int(i), int(s)).bit_generator
        ref.advance(int(f))
        assert row.tobytes() == ref.random_raw(12).tobytes(), (i, s, f)
