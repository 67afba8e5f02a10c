"""PCG64 states of the noise streams, a block of indices at a time.

Reception ``i`` of a channel with seed ``s`` draws its noise from
``PCG64(SeedSequence([s, i]))``.  Building that SeedSequence and generator
per reception costs tens of microseconds, yet the result is a pure
function of ``(s, i)``: SeedSequence hashes its entropy words with 32-bit
arithmetic whose constants are the same for every input, and PCG64 seeds
itself from four output words with two steps of its 128-bit LCG.
``pcg64_states`` runs the same hash on numpy columns of consecutive
indices and returns, per index, the ``(state, inc)`` pair numpy's own
seeding would give, so a reused generator set to it draws bit-identical
noise.  The algorithm is numpy's ``SeedSequence`` with its default pool of
four words and no spawn key.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _word_count(n: int) -> int:
    """How many 32-bit words SeedSequence splits the integer n into."""
    return max(1, -(-n.bit_length() // 32))


def pcg64_states(seed: int, start: int, count: int) -> list[tuple[int, int]]:
    """``PCG64(SeedSequence([seed, i])).state``'s ``(state, inc)`` for each
    ``i`` in ``range(start, start + count)``.  Seed and indices are
    non-negative integers of any size, numpy's included."""
    seed, start = operator.index(seed), operator.index(start)
    if seed < 0 or start < 0:
        raise ValueError("seed and indices must be non-negative")
    states: list[tuple[int, int]] = []
    stop = start + count
    while start < stop:  # one run per word count, as it changes the mixing
        run_stop = min(stop, 1 << (32 * _word_count(start)))
        states += _run_states(seed, start, run_stop)
        start = run_stop
    return states


def _hashmixer(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 columns, which wrap as its
    arithmetic does; each call moves the shared hash constant on."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _run_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """``pcg64_states`` for indices that all split into the same number of
    words."""
    n = stop - start
    entropy = [np.full(n, (seed >> s) & _MASK32, dtype=np.uint32)
               for s in range(0, 32 * _word_count(seed), 32)]
    entropy += [np.array([(i >> s) & _MASK32 for i in range(start, stop)], dtype=np.uint32)
                for s in range(0, 32 * _word_count(start), 32)]
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    # SeedSequence.mix_entropy
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # SeedSequence.generate_state(4, np.uint64): eight words cycled from
    # the pool, each little-endian pair one uint64
    hashmix = _hashmixer(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    seed_words = [(out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)]

    # PCG64's seeding: initstate = (s0, s1) and initseq = (s2, s3) as
    # 128-bit (high, low); the state starts at 0 with inc = 2 * initseq + 1,
    # takes one LCG step, adds initstate and takes another
    states = []
    for s0, s1, s2, s3 in zip(*seed_words):
        inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
        state = (((inc + ((s0 << 64) | s1)) * _PCG_MULT) + inc) & _MASK128
        states.append((state, inc))
    return states


def set_state(rng: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """``rng``, its PCG64 set to one ``(state, inc)`` of ``pcg64_states``
    with nothing buffered, so it draws that stream from its start."""
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state[0], "inc": state[1]},
                               "has_uint32": 0, "uinteger": 0}
    return rng
