"""Numeric kernels: the linear-congruential state sequence behind every
extern sampler, and the seed derivation for each extern.

LCG states are generated in numpy by doubling affine blocks instead of
looping over the states one by one.
"""
from __future__ import annotations

import numpy as np

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
DEFAULT_SEED = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive per-extern seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: str) -> int:
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_seed(global_seed: int, name: str) -> int:
    return splitmix64((global_seed ^ fnv1a64(name)) & _MASK)


def lcg_states(seed: int, n: int) -> np.ndarray:
    """States s_1..s_n of s_{i+1} = a*s_i + c mod 2^64, without a Python loop.

    Blocks double in size: given states[0:m] and the affine map (A, C) with
    s_{i+m} = A*s_i + C, the next block is A*states[0:m] + C elementwise.
    """
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    out = np.empty(n, dtype=np.uint64)
    a = np.uint64(LCG_MULT)
    c = np.uint64(LCG_INC)
    out[0] = (LCG_MULT * (seed & _MASK) + LCG_INC) & _MASK
    m = 1
    block_a, block_c = a, c
    with np.errstate(over="ignore"):
        while m < n:
            take = min(m, n - m)
            out[m : m + take] = block_a * out[:take] + block_c
            block_c = block_a * block_c + block_c
            block_a = block_a * block_a
            m += take
    return out


def lcg_uniforms_from(state: int, n: int) -> tuple[np.ndarray, int]:
    """The n uniforms in [0, 1) following `state` (the top 53 bits of each
    64-bit state), and the last state generated.

    Passing the returned state back in continues the same sequence, so the
    uniforms of lcg_uniforms_from(seed, m + n) are those of
    lcg_uniforms_from(seed, m) followed by the n uniforms from its returned
    state.
    """
    states = lcg_states(state, n)
    last = int(states[-1]) if n > 0 else state & _MASK
    return (states >> np.uint64(11)).astype(np.float64) * (2.0 ** -53), last
