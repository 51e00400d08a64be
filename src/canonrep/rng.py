"""Counter-based random streams for reproducible, seekable sampling.

Philox is a counter-based generator: distinct keys give statistically
independent streams and any stream can be reconstructed in isolation.
One sample path gets the 128-bit key (seed, path index); sub-streams
(per block, per retry) park the third counter word, which spaces them
2^128 draws apart inside the same keystream.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = f"numpy.philox4x64/{np.__version__}"

_MASK64 = (1 << 64) - 1


def path_stream(seed: int, index: int = 0, sub: int = 0) -> np.random.Generator:
    """Independent stream for one (seed, path index, sub-stream) triple."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, sub & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def path_uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) array whose row i holds the first ``width``
    uniforms of the stream of path ``start + i``."""
    out = np.empty((max(stop - start, 0), width))
    for i in range(out.shape[0]):
        out[i] = path_stream(seed, start + i).random(width)
    return out
