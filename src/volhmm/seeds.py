"""Deterministic seed derivation, and the random streams the seeds start.

All randomness in experiments and CLI commands flows from one root seed. Child
seeds are derived by hashing "root|part|part|..." with SHA-256 and taking the
first 8 bytes, so results are reproducible across runs, platforms, and worker
counts. Parts are purpose tags and trial indices, e.g.
derive_seed(seed, "llr-data", trial). ``derive_seeds(seed, "llr-data", indices=trials)``
gives the same seeds for a block of trials: the key prefix "root|part|...|" they share
is hashed once, and the hash state is copied and finished with each index.

``streams(seeds)`` yields, seed by seed, a generator whose draws are bit for bit
those of ``np.random.default_rng(seed)``: it is in the same PCG64 state. It
relies on two fixed algorithms, as numpy implements them:

- numpy's SeedSequence: an int seed in [0, 2^64) is entropy words [low, high]
  (a seed below 2^32 is one word; the pool's zero padding makes it the same
  thing), hashed into a pool of four uint32 words, the pool mixed word against
  word, and eight output words hashed out of the pool (``generate_state(4,
  np.uint64)``, two words to a uint64, low word first). The hash constants do
  not depend on the seed, so they are computed once, and every seed of a call
  is mixed at once as a (4, B) uint32 array, whose output words become Python
  ints in one ``tolist`` call.
- PCG64 seeding (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", HMC-CS-2014-0905,
  ``pcg_setseq_128_srandom_r``): with initstate and initseq the first and
  second pair of output uint64 words, high word first, inc = initseq << 1 | 1,
  and the state is two steps of the 128-bit LCG from 0, initstate added after
  the first.

Any other seed (another type, negative, 2^64 or more) goes to
``np.random.default_rng`` itself, so it keeps numpy's stream or raises numpy's
exception when its turn comes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key(root: int, parts) -> str:
    return "|".join([str(int(root))] + [str(p) for p in parts])


def derive_seed(root: int, *parts) -> int:
    """64-bit child seed for (root, *parts); stable across processes."""
    digest = hashlib.sha256(_key(root, parts).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(root: int, *parts, indices) -> list:
    """``derive_seed(root, *parts, i)`` for each i in indices, as a list of ints.

    The shared prefix "root|part|...|" is hashed once; each index finishes a copy of
    that hash state, and the first 8 bytes of every digest are read as big-endian
    uint64 in one pass."""
    prefix = hashlib.sha256((_key(root, parts) + "|").encode("ascii"))
    heads = bytearray()
    for i in indices:
        h = prefix.copy()
        h.update(str(i).encode("ascii"))
        heads += h.digest()[:8]
    return np.frombuffer(heads, dtype=">u8").tolist()


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_SHIFT, _MIX_L, _MIX_R = np.array([16, 0xCA01F9DD, 0x4973F715], dtype=np.uint32)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 successive values of a SeedSequence hash constant, from init."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _mixing_consts(consts: np.ndarray):
    """(xor, mult) of shape (4, 4, 1): entry [src, dst] hashes source word src for its
    mix into word dst, in SeedSequence's order (src outer, dst inner, dst != src)."""
    xor, mult = np.zeros((2, 4, 4, 1), dtype=np.uint32)
    turn = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                xor[src, dst], mult[src, dst] = consts[turn], consts[turn + 1]
                turn += 1
    return xor, mult


_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # 4 pool fills, then 12 mixes
_FILL_XOR, _FILL_MULT = _POOL_CONSTS[:4, None], _POOL_CONSTS[1:5, None]
_MIX_XOR, _MIX_MULT = _mixing_consts(_POOL_CONSTS)
_OUT_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_OUT_XOR, _OUT_MULT = _OUT_CONSTS[:-1].reshape(2, 4, 1), _OUT_CONSTS[1:].reshape(2, 4, 1)


def _hashmix(words, xor, mult):
    """SeedSequence's hashmix of each word, broadcast against the constants."""
    words = words ^ xor
    words *= mult
    words ^= words >> _SHIFT
    return words


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(seed).generate_state(8) of each seed, as columns (8, B) of uint32."""
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[:2] = np.array(seeds, dtype=np.uint64) >> np.array([[0], [32]], dtype=np.uint64)
    pool = _hashmix(entropy, _FILL_XOR, _FILL_MULT)
    for src in range(4):  # word src's three mixes go at once: every row mixes, row src is put back
        hashed = _hashmix(pool[src], _MIX_XOR[src], _MIX_MULT[src])
        hashed *= _MIX_R
        word = pool[src].copy()
        pool *= _MIX_L
        pool -= hashed
        pool ^= pool >> _SHIFT
        pool[src] = word
    return _hashmix(pool, _OUT_XOR, _OUT_MULT).reshape(8, -1)  # the pool twice over


def _is_plain(seed) -> bool:
    return type(seed) is int and 0 <= seed < 1 << 64


def streams(seeds):
    """For each seed in turn, a generator in the state ``np.random.default_rng(seed)``
    starts in (see the module docstring).

    The states of the plain int seeds are computed in this call, before any is
    drawn. Their generator is one Generator of this call, reset for each such seed:
    draw from it before taking the next one. Any other seed gets
    ``np.random.default_rng(seed)`` itself.
    """
    seeds = list(seeds)
    columns = iter(_seed_words([s for s in seeds if _is_plain(s)]).T.tolist())  # ints, one call
    gen = np.random.Generator(np.random.PCG64(0))  # its seed is overwritten by every reset
    return (_reset(gen, next(columns)) if _is_plain(s) else np.random.default_rng(s) for s in seeds)


def _reset(gen, w):
    """gen in the PCG64 state that a seed with these SeedSequence words (a list of 8
    ints, two to a uint64, low word first) starts in."""
    initstate = w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32
    initseq = w[4] << 64 | w[5] << 96 | w[6] | w[7] << 32
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen
