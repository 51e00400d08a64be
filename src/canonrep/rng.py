"""Counter-based random streams for reproducible, seekable sampling.

Philox is a counter-based generator: distinct keys give statistically
independent streams and any stream can be reconstructed in isolation.
One sample path gets the 128-bit key (seed, path index); sub-streams
(per block, per retry) park the third counter word, which spaces them
2^128 draws apart inside the same keystream.

``_philox_passes`` is a vectorized Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) that reproduces
numpy's ``Philox`` byte for byte: for many rows at once it computes any
run of blocks of any sub-stream, a bounded pass at a time.
``path_uniforms`` reads the leading uniforms of many paths from it, and
the euler embedding its steps' draws, so ``GENERATOR_ID`` names numpy's
generator for all of them.
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
_BLOCKS_PER_PASS = 1 << 12  # bounds the kernel's scratch arrays


def path_stream(seed: int, index: int = 0, sub: int = 0) -> np.random.Generator:
    """Independent stream for one (seed, path index, sub-stream) triple."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, sub & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _mulhi(m: np.uint64, x: np.ndarray, hi, a, b, c) -> None:
    """``hi`` <- the high word of the 128-bit product ``m * x``, from 32-bit
    halves on the scratch ``a``, ``b``, ``c``.  The middle sum ``m_lo x_hi +
    (m_lo x_lo >> 32) + (m_hi x_lo & LO32)`` is below 2^64: one carry shift."""
    m_lo, m_hi = m & _LO32, m >> _S32
    np.bitwise_and(x, _LO32, out=a)
    np.right_shift(x, _S32, out=b)
    np.multiply(b, m_lo, out=hi)
    b *= m_hi
    np.multiply(a, m_lo, out=c)
    c >>= _S32
    hi += c
    a *= m_hi
    np.bitwise_and(a, _LO32, out=c)
    hi += c
    hi >>= _S32
    a >>= _S32
    hi += a
    hi += b


def _philox_passes(seed: int, index: np.ndarray, blocks: int, sub=0, first=0):
    """Yield (rows, words) per pass of at most ``_BLOCKS_PER_PASS`` blocks,
    the words overwritten by the next pass: word w of blocks ``first[i]``
    onwards of ``path_stream(seed, index[i], sub[i])`` is ``words[w][:, i]``
    for i in the slice ``rows`` (``sub`` and ``first`` broadcast).  Block b
    runs on counter (b + 1, 0, sub, 0), as numpy increments it first,
    carrying into the second word when b + 1 wraps.  The rounds run in
    place, block-major so that the per-row key runs along the inner axis."""
    step = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    first = np.broadcast_to(np.asarray(first, dtype=np.uint64), index.shape)
    sub = np.broadcast_to(np.asarray(sub, dtype=np.uint64), index.shape)
    rows = max(_BLOCKS_PER_PASS // max(blocks, 1), 1)
    scratch = [np.empty(min(rows, index.size) * blocks, dtype=np.uint64) for _ in range(4)]
    for lo in range(0, index.size, rows):
        part = slice(lo, lo + rows)
        # keys as arrays, whose arithmetic wraps without a warning
        k0 = np.full(1, seed & _MASK64, dtype=np.uint64)
        k1 = index[part]
        c0, c1, c2, c3 = (v[:k1.size * blocks].reshape(blocks, k1.size) for v in scratch)
        hi, a, b, c = (np.empty_like(c0) for _ in range(4))
        np.add(first[part], step, out=c0)
        np.less(c0, step, out=c1)
        c2[...] = sub[part]
        c3.fill(0)
        for _ in range(_ROUNDS):
            # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
            _mulhi(_M0, c0, hi, a, b, c)
            c3 ^= hi
            c3 ^= k1
            c0 *= _M0
            _mulhi(_M1, c2, hi, a, b, c)
            c1 ^= hi
            c1 ^= k0
            c2 *= _M1
            c0, c1, c2, c3 = c1, c2, c3, c0
            k0, k1 = k0 + _W0, k1 + _W1
        del hi, a, b, c  # free while the caller reads the words
        yield part, (c0, c1, c2, c3)


def path_uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) array whose row i holds the first ``width``
    uniforms of the stream of path ``start + i``: byte for byte
    ``path_stream(seed, start + i).random(width)``."""
    count = max(stop - start, 0)
    out = np.empty((count, width))
    index = np.uint64(start & _MASK64) + np.arange(count, dtype=np.uint64)  # wraps mod 2^64
    for part, words in _philox_passes(seed, index, -(-width // 4)):
        for w, word in enumerate(words[:width]):
            # uniform 4b + w: numpy's double from word w of block b's top 53 bits
            cols = out[part, w::4]
            np.multiply((word[:cols.shape[1]].T >> _S11).astype(np.float64), 2.0**-53, out=cols)
    return out
