"""Counter-based deterministic random streams.

Every random decision in the package (weight init, shuffling, dropout masks,
augmentation offsets, synthetic data) is drawn from a stream keyed by an
explicit integer tuple, e.g. ``(seed, TAG_DROPOUT, epoch, sample_index)``.
Draw i of a stream is a pure function of (key, i), built on the SplitMix64
mixing function, so results are independent of execution order and identical
across platforms.

A key part may be an integer array, e.g. the sample indices of a batch. The
stream is then one stream per entry: every draw gains a leading axis with one
row per entry, and row r is bit-identical to the stream keyed with that part
replaced by its entry r. Scalar parts are taken modulo 2**64, so negative and
large seeds keep distinct streams. The mixed key is always a uint64 array
(one element for a scalar key), never a numpy scalar, because numpy wraps
array arithmetic silently but warns on scalar overflow.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_KEY_BASE = 0x8A5CD789635D2DFF

# Domain tags keep streams for distinct purposes disjoint even when the
# remaining key components collide.
TAG_INIT = 1
TAG_SHUFFLE = 2
TAG_DROPOUT = 3
TAG_AUGMENT = 4
TAG_SYNTH = 5
TAG_SPLIT = 6
TAG_MAXIMIZE = 7


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: scramble each word of a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class SplitMixStream:
    """Sequential stream of draws derived from an integer key tuple; one
    stream per entry when a key part is an integer array (see the module
    docstring). ``permutation`` and ``choice_weighted`` take scalar keys."""

    def __init__(self, *key):
        k = np.array([_KEY_BASE], dtype=np.uint64)
        self._rows = ()
        for part in key:
            if np.ndim(part):
                part = np.asarray(part).astype(np.uint64)
                self._rows = part.shape
            else:
                part = np.uint64(int(part) & _MASK64)
            k = mix64(k + part)
        self._key = k
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words of each row."""
        counters = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return mix64(self._key[..., None] + counters * _GOLDEN).reshape(self._rows + (n,))

    def uniform(self, shape=()) -> np.ndarray | float:
        """Uniform float64 draws in [0, 1)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        u = (self.raw(int(np.prod(shape))) >> np.uint64(11)) * (2.0 ** -53)
        shape = self._rows + shape
        return float(u[0]) if shape == () else u.reshape(shape)

    def normal(self, shape=()) -> np.ndarray | float:
        """Standard normal draws via the Box-Muller transform, paired within a row."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape))
        half = (n + 1) // 2
        # u1 in (0, 1] so the log is finite.
        u1 = ((self.raw(half) >> np.uint64(11)) + np.uint64(1)) * (2.0 ** -53)
        u2 = (self.raw(half) >> np.uint64(11)) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]
        shape = self._rows + shape
        return float(z[0]) if shape == () else z.reshape(shape)

    def randint(self, low: int, high: int) -> int | np.ndarray:
        """Uniform integer in [low, high] inclusive (an int64 per row when batched).

        Modulo reduction of a 64-bit word; bias is below 2**-40 for any range
        used here.
        """
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        v = self.raw(1)[..., 0] % np.uint64(high - low + 1)
        return low + (v.astype(np.int64) if self._rows else int(v))

    def bernoulli(self, p: float) -> bool | np.ndarray:
        return self.uniform() < p

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n). Position i's swap partner,
        for i from n-1 down to 1, is the next word modulo i + 1."""
        perm = list(range(n))
        partners = (self.raw(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), partners):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def choice_weighted(self, values, weights) -> object:
        """Pick one value with the given relative weights."""
        total = float(sum(weights))
        u = self.uniform() * total
        acc = 0.0
        for value, weight in zip(values, weights):
            acc += weight
            if u < acc:
                return value
        return values[-1]
