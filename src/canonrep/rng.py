"""Counter-based random streams for reproducible, seekable sampling.

Philox is a counter-based generator: distinct keys give statistically
independent streams and any stream can be reconstructed in isolation.
One sample path gets the 128-bit key (seed, path index); sub-streams
(per block, per retry) park the third counter word, which spaces them
2^128 draws apart inside the same keystream.

``_philox_blocks`` is a vectorized Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) that reproduces
numpy's ``Philox`` byte for byte: for many rows at once it computes any
run of blocks of any sub-stream.  ``path_uniforms`` reads the leading
uniforms of many paths from it, and the euler embedding its steps'
draws, so ``GENERATOR_ID`` names numpy's generator for all of them.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = f"numpy.philox4x64/{np.__version__}"

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and Weyl key increments.  Every constant and
# shift is an np.uint64, so arithmetic stays in uint64 under both numpy's
# legacy promotion and NEP 50.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_ROWS_PER_CHUNK = 1 << 11  # bounds path_uniforms' word arrays
_BLOCKS_PER_PASS = 1 << 12  # bounds the kernel's scratch arrays


def path_stream(seed: int, index: int = 0, sub: int = 0) -> np.random.Generator:
    """Independent stream for one (seed, path index, sub-stream) triple."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, sub & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product ``m * x``, built
    from 32-bit halves so no partial product leaves uint64."""
    m_lo, m_hi = m & _LO32, m >> _S32
    x_lo, x_hi = x & _LO32, x >> _S32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    mid = (lo_lo >> _S32) + (hi_lo & _LO32) + (lo_hi & _LO32)
    hi = m_hi * x_hi + (hi_lo >> _S32) + (lo_hi >> _S32) + (mid >> _S32)
    return hi, m * x


def _philox_blocks(
    seed: int, index: np.ndarray, blocks: int, sub=0, first=0
) -> np.ndarray:
    """(len(index), 4 * blocks) uint64 words: row i holds output blocks
    ``first[i]`` to ``first[i] + blocks - 1`` of
    ``path_stream(seed, index[i], sub[i])``, numpy's ``Philox`` keyed by
    (seed, index[i]) with counter (0, 0, sub[i], 0).  ``sub`` and
    ``first`` are uint64 and broadcast against ``index``.  numpy
    increments the counter before each block, so block b runs on counter
    (b + 1, 0, sub, 0), carrying into the second word when b + 1 wraps."""
    out = np.empty((index.size, blocks, 4), dtype=np.uint64)
    step = np.arange(1, blocks + 1, dtype=np.uint64)
    first = np.broadcast_to(np.asarray(first, dtype=np.uint64), index.shape)
    sub = np.broadcast_to(np.asarray(sub, dtype=np.uint64), index.shape)
    rows = max(_BLOCKS_PER_PASS // max(blocks, 1), 1)
    with np.errstate(over="ignore"):
        for lo in range(0, index.size, rows):
            part = slice(lo, lo + rows)
            k0 = np.uint64(seed & _MASK64)
            k1 = index[part, None]
            c0 = first[part, None] + step
            c1 = (c0 < step).astype(np.uint64)
            c2 = sub[part, None]
            c3 = np.zeros_like(c0)
            for _ in range(_ROUNDS):
                hi0, lo0 = _mulhilo(_M0, c0)
                hi1, lo1 = _mulhilo(_M1, c2)
                c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
                k0, k1 = k0 + _W0, k1 + _W1
            for w, c in enumerate((c0, c1, c2, c3)):
                out[part, :, w] = c
    return out.reshape(index.size, 4 * blocks)


def path_uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) array whose row i holds the first ``width``
    uniforms of the stream of path ``start + i``: byte for byte
    ``path_stream(seed, start + i).random(width)``."""
    count = max(stop - start, 0)
    out = np.empty((count, width))
    blocks = -(-width // 4)
    first = np.uint64(start & _MASK64)
    for lo in range(0, count, _ROWS_PER_CHUNK):
        hi = min(lo + _ROWS_PER_CHUNK, count)
        index = first + np.arange(lo, hi, dtype=np.uint64)  # wraps mod 2^64
        words = _philox_blocks(seed, index, blocks)[:, :width]
        # numpy's double: the top 53 bits scaled by 2^-53, exact in float64
        np.multiply((words >> _S11).astype(np.float64), 2.0**-53, out=out[lo:hi])
    return out
