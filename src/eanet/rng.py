"""Deterministic pseudo-random numbers used everywhere randomness is needed.

The generator is xorshift64* (shifts 12, 25, 27; multiplier
2685821657736338717). It is implemented on plain Python integers so the
stream of draws is byte-identical across platforms, which keeps synthetic
datasets, parameter initialisation, and checkpoints reproducible. Gaussian
draws use the Box-Muller transform; no spare value is cached, so the full
generator state is a single 64-bit word.

`uniforms(n)` is the array form of n `uniform()` calls, bit-identical
to them and leaving the same state. `normal_pairs(n)` is the Box-Muller
step over `uniforms(2n)`: n pairs, each bit for bit one call of the
scalar `normal_pair` that `tests/oracles.py` keeps as its reference.
The state update (before the multiply) is linear over GF(2)^64, so
advancing `_LANE` states is one 64x64 bit matrix, applied as
the xor of eight byte-table lookups (`_jump`); the tables are built at
import from `next_u64` itself. `uniforms` cuts the chain of n states into
lanes of `_LANE`, finds each lane's start with one jump, and advances all
lanes together in uint64 numpy arrays, whose shifts drop high bits exactly
as the scalar `& _MASK64` does. The multiply, shift and scaling run in
uint64/float64 (all exact), and log, cos and sin come from `math` (cos
and sin through `unit_vectors`), because numpy's versions round some
inputs differently by one ulp.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717
# Substitute state for seed 0 (xorshift state must never be zero).
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


class Xorshift64Star:
    """xorshift64* stream seeded from an arbitrary integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        state = seed & _MASK64
        if state == 0:
            state = _ZERO_SEED_STATE
        self.state = state

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of resolution."""
        return (self.next_u64() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """(n,) array of the n values that n `uniform()` calls give, bit for
        bit, leaving the generator in the same state.

        The n states are computed as lanes of `_LANE` consecutive states:
        lane j starts `j * _LANE` steps after the current state, and all
        lanes take their steps together in numpy.
        """
        if n < 0:
            raise ValueError("uniforms() needs a non-negative count")
        if n == 0:
            return np.empty(0)
        x = self.state
        starts = [x]
        for _ in range((n - 1) // _LANE):
            x = _jump(x)
            starts.append(x)
        lanes = np.array(starts, dtype=np.uint64)
        block = np.empty((min(n, _LANE), len(starts)), dtype=np.uint64)
        for row in block:
            lanes ^= lanes >> np.uint64(12)
            lanes ^= lanes << np.uint64(25)
            lanes ^= lanes >> np.uint64(27)
            row[:] = lanes
        states = block.T.ravel()[:n]
        self.state = int(states[-1])
        words = states * np.uint64(_MULTIPLIER)
        return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal_pairs(self, n: int) -> np.ndarray:
        """(n, 2) array of the n pairs that n calls of the scalar
        `normal_pair` in `tests/oracles.py` give, bit for bit, leaving the
        generator in the same state."""
        if n < 0:
            raise ValueError("normal_pairs() needs a non-negative count")
        return box_muller(self.uniforms(2 * n))

    def below(self, n: int) -> int:
        """Integer in [0, n). Uses a plain modulo; the tiny bias does not
        matter here, determinism does."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def box_muller(u: np.ndarray) -> np.ndarray:
    """(n, 2) normals from the 2n uniforms ``u``, taken in pairs: the
    radius from the first (a first uniform of 0 is raised to 2^-53, and
    ``u`` is changed there) and the angle from the second."""
    u1, u2 = u[0::2], u[1::2]
    u1[u1 <= 0.0] = _INV_2_53
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1)))
    out = unit_vectors(2.0 * math.pi * u2)
    # In place: a separate product array raised eval_bok_circle's peak
    # RSS by about 2.6 MB.
    out *= r[:, None]
    return out


def unit_vectors(angles: np.ndarray) -> np.ndarray:
    """(..., 2) array of the (cos, sin) of every angle, from `math`."""
    flat = angles.ravel().tolist()
    out = np.empty((len(flat), 2))
    out[:, 0] = np.fromiter(map(math.cos, flat), np.float64, len(flat))
    out[:, 1] = np.fromiter(map(math.sin, flat), np.float64, len(flat))
    return out.reshape(*angles.shape, 2)


# States per lane in `uniforms`, and the length of one `_jump`.
_LANE = 32


def _jump_tables() -> tuple[tuple[int, ...], ...]:
    """Byte tables of the linear map "advance `_LANE` states": entry
    [b][v] is the state reached from state v << 8b, which by linearity is
    the xor of the images of v's set bits. The 64 one-bit images come
    from `next_u64` itself, so no constant is assumed."""
    rng = Xorshift64Star()
    images = []
    for bit in range(64):
        rng.state = 1 << bit
        for _ in range(_LANE):
            rng.next_u64()
        images.append(rng.state)
    tables = []
    for b in range(8):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ images[8 * b + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


_JUMP_TABLES = _jump_tables()


def _jump(x: int) -> int:
    """The state `_LANE` steps after state x."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _JUMP_TABLES
    return (t0[x & 0xFF] ^ t1[x >> 8 & 0xFF] ^ t2[x >> 16 & 0xFF] ^ t3[x >> 24 & 0xFF]
            ^ t4[x >> 32 & 0xFF] ^ t5[x >> 40 & 0xFF] ^ t6[x >> 48 & 0xFF] ^ t7[x >> 56])
