"""Deterministic pseudo-random numbers used everywhere randomness is needed.

The generator is xorshift64* (shifts 12, 25, 27; multiplier
2685821657736338717). Its stream of uniforms is exact integer arithmetic,
so it is the same on every platform, which keeps synthetic datasets,
parameter initialisation, and checkpoints reproducible. Gaussian draws
use the Box-Muller transform; no spare value is cached, so the full
generator state is a single 64-bit word. Their log, cos and sin come
from numpy loops that call the same C library as `math` (`logs`,
`unit_vectors`; tier-1 tests hold them to `math` bit for bit). So
Gaussian values, and what is made from them, follow the platform's libm.

The scalar stream is defined in `tests/oracles.py`: `next_u64` steps
the state and multiplies, and `uniform` keeps the top 53 bits of that
word. `uniforms(n)` is the array form of n `uniform` calls, bit-identical
to them and leaving the same state; `shuffle` draws its words the same
way. `normal_pairs(n)` is the Box-Muller step over `uniforms(2n)`: n
pairs, each bit for bit one call of the scalar `normal_pair` that
`tests/oracles.py` keeps as its reference.
`box_muller` lays them out as (2, n) planes, the first normal of every
pair in one contiguous row and the second in the other, so callers run
their arithmetic along whole rows; `normal_pairs` is the (n, 2)
transpose view of those planes.
The state update (before the multiply) is linear over GF(2)^64, so
advancing a state k steps is a 64x64 bit matrix, applied as the xor of
one table row per 8-bit or 4-bit digit of the state (`_lookup`; jumping
ahead by table is Haramoto et al., INFORMS J. Computing 2008). Two table
families are built at import from `_xorshift` itself, run on the 64
one-bit states: the lane tables give the `_LANE` states after a state,
and the block tables give the states `_LANE`, 2 `_LANE`, ...,
`_BLOCK` `_LANE` steps after it. `uniforms` (through `_words`) chains
the block tables to find the start (anchor) of every lane, expands all
anchors into their lanes with the lane tables, and runs the multiply,
shift and scaling in uint64/float64 (all exact).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717
# Substitute state for seed 0 (xorshift state must never be zero).
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _xorshift(x):
    """The state after state ``x``: a Python int, or a uint64 array, which
    is updated in place."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    x ^= x >> 27
    return x


class Xorshift64Star:
    """xorshift64* stream seeded from an arbitrary integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        state = seed & _MASK64
        if state == 0:
            state = _ZERO_SEED_STATE
        self.state = state

    def uniforms(self, n: int) -> np.ndarray:
        """(n,) array of n uniform floats in [0, 1) with 53 bits of
        resolution: the values that n calls of the scalar `uniform` in
        `tests/oracles.py`, which defines them, give bit for bit, leaving
        the generator in the same state."""
        if n < 0:
            raise ValueError("uniforms() needs a non-negative count")
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def _words(self, n: int) -> np.ndarray:
        """(n,) uint64 array of the n words that n calls of the scalar
        `next_u64` in `tests/oracles.py`, which defines them, give, leaving
        the generator in the same state.

        The n states are computed as lanes of `_LANE` consecutive states:
        lane j is the `_LANE` states after anchor j, the state `j * _LANE`
        steps after the current one. Each block-table lookup gives the
        next `_BLOCK` anchors after the last one found, and the lane
        tables expand `_CHUNK` anchors at a time, so the gathers'
        temporaries (at most 512 KB) do not grow with n.
        """
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        lanes = -(-n // _LANE)
        anchors = np.empty(lanes + _BLOCK, dtype=np.uint64)
        anchors[0] = self.state
        for j in range(0, lanes - 1, _BLOCK):
            anchors[j + 1:j + 1 + _BLOCK] = _lookup(_BLOCK_TABLES, anchors[j:j + 1])
        states = np.empty((lanes, _LANE), dtype=np.uint64)
        for j in range(0, lanes, _CHUNK):
            states[j:j + _CHUNK] = _lookup(_LANE_TABLES, anchors[j:min(j + _CHUNK, lanes)])
        states = states.ravel()[:n]
        self.state = int(states[-1])
        return states * np.uint64(_MULTIPLIER)

    def normal_pairs(self, n: int) -> np.ndarray:
        """(n, 2) array of the n pairs that n calls of the scalar
        `normal_pair` in `tests/oracles.py` give, bit for bit, leaving the
        generator in the same state. It is the transpose view of
        `box_muller`'s (2, n) planes, so ``.T`` gives them back contiguous."""
        if n < 0:
            raise ValueError("normal_pairs() needs a non-negative count")
        return box_muller(self.uniforms(2 * n)).T

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i from len(items) - 1 down to
        1, swap items i and the next word modulo i + 1 (a plain modulo; its
        tiny bias does not matter here, determinism does). The scalar loop
        `shuffle` in `tests/oracles.py` defines it; the n - 1 words come
        from one `_words` call, so the order and the state after it are
        that loop's."""
        n = len(items)
        picks = self._words(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]


def box_muller(u: np.ndarray) -> np.ndarray:
    """(2, n) planes of normals from the 2n uniforms ``u``, taken in
    pairs: the radius r from the first (a first uniform of 0 is raised to
    2^-53, and ``u`` is changed there) and the angle from the second. Row
    0 holds r cos, row 1 r sin. The log is `logs`, the values of
    `math.log`; cos and sin are numpy's, as in `unit_vectors`."""
    u1, u2 = u[0::2], u[1::2]
    u1[u1 <= 0.0] = _INV_2_53
    r = np.sqrt(-2.0 * logs(u1))
    angles = 2.0 * math.pi * u2
    out = np.empty((2, len(angles)))
    np.cos(angles, out=out[0])
    np.sin(angles, out=out[1])
    # In place: a separate product array raised eval_bok_circle's peak
    # RSS by about 2.6 MB.
    out *= r
    return out


def logs(x: np.ndarray) -> np.ndarray:
    """The natural log of every entry of the aligned 1-D float64 array ``x``,
    as `math.log` gives it: numpy's float64 log runs contiguous and
    positively strided input through its own SIMD code, which rounds some
    inputs differently (about 1 in 300 uniforms), but runs a reversed view
    into a fresh output through its scalar loop, which calls the C
    library's ``log`` as `math.log` does. Misaligned input is copied back
    onto the SIMD path, so ``x`` must be a numpy allocation or a slice of
    one, as every array the package passes is."""
    return np.log(x[::-1])[::-1]


def unit_vectors(angles: np.ndarray) -> np.ndarray:
    """(..., 2) array of the (cos, sin) of every angle, from numpy's
    float64 loops, which call the same C library as `math.cos` and
    `math.sin`."""
    out = np.empty((*angles.shape, 2))
    np.cos(angles, out=out[..., 0])
    np.sin(angles, out=out[..., 1])
    return out


# States per lane, anchors per block-table lookup, and lanes per
# lane-table gather in `uniforms`. The lane tables are indexed by bytes
# (512 KB): every draw goes through them, and 4-bit digits would double
# the gather. The block tables are looked up one anchor at a time, so
# 4-bit digits cost nothing there and keep them at 128 KB.
_LANE = 32
_BLOCK = 64
_CHUNK = 8192 // _LANE


def _lookup(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(m, k) images of the (m,) uint64 ``words`` under the k linear maps
    whose digit tables are ``tables`` (64 / w, 2^w, k): for each word, the
    xor over its w-bit digits d of tables[d, digit d]."""
    digits, size = tables.shape[:2]
    shifts = np.arange(0, 64, 64 // digits, dtype=np.uint64)[:, None]
    index = (words >> shifts) & np.uint64(size - 1)
    return np.bitwise_xor.reduce(tables[np.arange(digits)[:, None], index], axis=0)


def _digit_tables(images: np.ndarray, width: int) -> np.ndarray:
    """(64 / width, 2^width, k) digit tables of the k linear maps whose
    one-bit images are the rows of ``images`` (k, 64): entry [d, v, j] is
    map j applied to state v << (width * d), which is the xor of the
    images of v's set bits."""
    k = len(images)
    bits = images.T.reshape(64 // width, width, k)
    tables = np.zeros((64 // width, 1 << width, k), dtype=np.uint64)
    for bit in range(width):
        tables[:, 1 << bit:2 << bit] = tables[:, :1 << bit] ^ bits[:, bit, None]
    return tables


def _powers(images: np.ndarray, count: int) -> np.ndarray:
    """(count, 64) one-bit images of M, M^2, ..., M^count, for the linear
    map M whose one-bit images are ``images``. Each pass applies the
    highest power so far, M^h, to the images of M..M^h."""
    powers = images[None]
    while len(powers) < count:
        later = _lookup(_digit_tables(powers[-1:], 8), powers.ravel())
        powers = np.concatenate([powers, later.reshape(powers.shape)])
    return powers[:count]


_LANE_POWERS = _powers(_xorshift(np.uint64(1) << np.arange(64, dtype=np.uint64)), _LANE)
_LANE_TABLES = _digit_tables(_LANE_POWERS, 8)
_BLOCK_TABLES = _digit_tables(_powers(_LANE_POWERS[-1], _BLOCK), 4)
