"""Seeded random number generation.

All stochastic routines in this package draw from numpy's PCG64 generator
and take an explicit seed.  Experiment drivers derive independent streams
from one root seed and a tuple of integer counters (trial index, link
indices, ...) so that results are reproducible regardless of execution
order or worker count.

A key's stream is ``default_rng(SeedSequence(key))``: :func:`derive_rng`
returns it for one key.  :func:`keyed_normals` draws from many keys at once
and reproduces each stream bit for bit: numpy's SeedSequence hash runs as
one uint32 array computation, then PCG64's seeding step on Python ints.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's multiplier.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_rng(root_seed: int, *counters: int) -> np.random.Generator:
    """Return a generator keyed by ``(root_seed, *counters)``.

    The same key always yields the same stream; distinct keys yield
    statistically independent streams (SeedSequence hashing).
    """
    entropy = [int(root_seed)] + [int(c) for c in counters]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def keyed_normals(keys, shape) -> np.ndarray:
    """Standard normals of shape ``(len(keys), *shape)``: row k is bit-equal
    to ``derive_rng(*keys[k]).standard_normal(shape)``.  Keys may differ in
    length; a negative key raises ``ValueError`` as ``derive_rng`` does."""
    out = np.empty((len(keys), *shape))
    gen = np.random.Generator(np.random.PCG64(0))
    for row, state in zip(out.reshape(len(keys), int(np.prod(shape))), _pcg64_states(keys)):
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    return out


def _pcg64_states(keys):
    """Yield ``default_rng(SeedSequence(key)).bit_generator.state`` of each key."""
    words = []  # SeedSequence entropy: each int as little-endian 32-bit words, 0 as [0]
    for key in keys:
        ints = [int(c) for c in key]
        if min(ints) < 0:
            raise ValueError("expected non-negative integer")
        words.append([c >> s & _MASK32 for c in ints for s in range(0, max(c.bit_length(), 1), 32)])
    lengths = np.array([len(w) for w in words], dtype=np.intp)
    width = max([_POOL, *map(len, words)])
    entropy = np.array([w + [0] * (width - len(w)) for w in words], np.uint32).reshape(-1, width)
    # Every key makes the same sequence of hashmix calls: call j XORs the
    # j-th of these constants and multiplies by the next.
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * width)

    def hashmix(value, j, n):
        value = value ^ consts[j : j + n]
        value *= consts[j + 1 : j + n + 1]
        value ^= value >> _SHIFT
        return value

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        result ^= result >> _SHIFT
        return result

    pool = hashmix(entropy[:, :_POOL], 0, _POOL)
    for src in range(_POOL):  # pool[src] is fixed while it mixes into the other three
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], _POOL + 3 * src, 3))
    for src in range(_POOL, width):  # entropy longer than the pool
        mixed = mix(pool, hashmix(entropy[:, src, None], _POOL * src, _POOL))
        pool = np.where((src < lengths)[:, None], mixed, pool)
    # generate_state(4, np.uint64): 8 words cycling over the pool, then PCG64's srandom.
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    seeds = hashmix(np.tile(pool, 2), 0, 2 * _POOL).astype("<u4").view("<u8").tolist()
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        seeded = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": seeded, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**j mod 2**32`` for j = 0..n, as uint32."""
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(n + 1)], np.uint32)
