"""Many numpy PCG64 streams advanced in lockstep, one array lane per stream.

``Streams(seed, n)`` holds the n generators
``np.random.default_rng(np.random.SeedSequence(seed).spawn(n)[i])`` and
makes the same draws numpy's ``Generator`` makes on each of them, bit for
bit, as plain uint64 array arithmetic:

- seeding: the children's ``SeedSequence`` pools share every mixing step
  but the last, which folds in the spawn-key word i; each pool then seeds a
  PCG64 (O'Neill 2014) whose 128-bit LCG state is held as two uint64 limbs;
- ``random()`` is ``(next64 >> 11) * 2**-53``;
- ``integers(high)`` and every draw inside ``choice`` are Lemire's bounded
  draws (Lemire 2019) on 32-bit words. A generator splits a 64-bit output
  into two such words and keeps the unused half for its next 32-bit draw;
  a range of one value consumes nothing;
- ``choice(r, k)`` without replacement is numpy's Floyd sample followed by
  a Fisher-Yates shuffle, or its tail shuffle of ``arange(r)`` when
  r > 10000 and k > r // 50.

Every call runs over all lanes at once. A lane that makes no draw in a step
(a range of one value, a shorter loop, a lane already accepted by the
rejection loop) keeps its state. The cost is a few dozen array operations per
draw whatever n is, so many streams with few draws each are cheap, while a
few streams with many draws each cost more than numpy's own generators.
"""

from __future__ import annotations

import numpy as np

_U32 = np.uint64(0xFFFFFFFF)
# PCG64's 128-bit LCG multiplier as (high, low) limbs, split again into
# 32-bit halves for the 64 x 64 -> 128-bit product of the low limbs.
_MUL_HI = np.uint64(0x2360ED051FC65DA4)
_MUL_LO = np.uint64(0x4385DF649FCCF645)
_MUL_LO_0 = _MUL_LO & _U32
_MUL_LO_1 = _MUL_LO >> np.uint64(32)

# SeedSequence's hash constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# choice() shuffles the tail of arange(r) above this population size.
_TAIL_MIN_POPULATION = 10_000


def _n_words(entropy) -> int:
    """How many uint32 words SeedSequence makes of an int or nested sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(_n_words(e) for e in entropy)


def _child_pools(seq: np.random.SeedSequence, n: int) -> np.ndarray:
    """The (4, n) uint32 pools of ``seq.spawn(n)``, as uint64 words.

    A child mixes the parent's entropy, zero-padded to the pool size, then
    its spawn key (i,). Up to that key it repeats the parent's own mixing
    exactly, so the parent's pool is the common prefix. Each mix step
    advances the hash constant once whatever its input, so the constant at
    the spawn word depends only on how many entropy words came before it.
    """
    words = _n_words(seq.entropy)
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * max(words - _POOL, 0)
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) % (1 << 32)
    key = np.arange(n, dtype=np.uint64)
    pool = []
    for word in seq.pool.tolist():
        value = key ^ np.uint64(const)
        const = const * _MULT_A % (1 << 32)
        value = (value * np.uint64(const)) & _U32
        value ^= value >> np.uint64(16)
        mixed = (np.uint64(_MIX_L * word & 0xFFFFFFFF) - np.uint64(_MIX_R) * value) & _U32
        pool.append(mixed ^ (mixed >> np.uint64(16)))
    return np.array(pool)


def _generate_state(pool: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)`` per lane, from (4, n) pools."""
    const = _INIT_B
    halves = []
    for t in range(8):
        value = pool[t % _POOL] ^ np.uint64(const)
        const = const * _MULT_B % (1 << 32)
        value = (value * np.uint64(const)) & _U32
        halves.append(value ^ (value >> np.uint64(16)))
    return [halves[2 * t] | (halves[2 * t + 1] << np.uint64(32)) for t in range(4)]


class Streams:
    """n PCG64 generators seeded as ``SeedSequence(seed).spawn(n)``, drawn in lockstep."""

    def __init__(self, seed, n: int):
        pools = _child_pools(np.random.SeedSequence(seed), n)
        seed_hi, seed_lo, inc_hi, inc_lo = _generate_state(pools)
        # pcg64_set_seed: inc = (initseq << 1) | 1, then
        # state = (inc + initstate) * MUL + inc, all mod 2**128.
        one = np.uint64(1)
        self.inc_hi = (inc_hi << one) | (inc_lo >> np.uint64(63))
        self.inc_lo = (inc_lo << one) | one
        self.lo = self.inc_lo + seed_lo
        self.hi = self.inc_hi + seed_hi + (self.lo < seed_lo).astype(np.uint64)
        self.hi, self.lo = self._step()
        # The upper half of the last 64-bit output, kept for the next 32-bit draw.
        self.has_half = np.zeros(n, dtype=bool)
        self.half = np.zeros(n, dtype=np.uint64)

    def _step(self) -> tuple[np.ndarray, np.ndarray]:
        """The LCG state after one step, state * MUL + inc mod 2**128, in every lane."""
        hi, lo = self.hi, self.lo
        lo0, lo1 = lo & _U32, lo >> np.uint64(32)
        p00, p01 = lo0 * _MUL_LO_0, lo0 * _MUL_LO_1
        p10, p11 = lo1 * _MUL_LO_0, lo1 * _MUL_LO_1
        mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
        carry = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
        new_hi = carry + hi * _MUL_LO + lo * _MUL_HI
        new_lo = lo * _MUL_LO + self.inc_lo
        new_hi += self.inc_hi + (new_lo < self.inc_lo).astype(np.uint64)
        return new_hi, new_lo

    def _next64(self, active: np.ndarray | None = None) -> np.ndarray:
        """Step the lanes in ``active`` (all if None); XSL-RR output of every lane's state."""
        hi, lo = self._step()
        if active is not None:
            hi, lo = np.where(active, hi, self.hi), np.where(active, lo, self.lo)
        self.hi, self.lo = hi, lo
        x, rot = hi ^ lo, hi >> np.uint64(58)
        return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))

    def _next32(self, active: np.ndarray) -> np.ndarray:
        """A 32-bit word in each lane of ``active``: a kept upper half, else a fresh output's lower."""
        fresh = active & ~self.has_half
        out = self.half
        if fresh.any():
            x = self._next64(fresh)
            out = np.where(fresh, x & _U32, self.half)
            self.half = np.where(fresh, x >> np.uint64(32), self.half)
        self.has_half ^= active
        return out

    def _bounded(self, bound: np.ndarray) -> np.ndarray:
        """Lemire's draw in [0, bound] per lane, bound < 2**32; a 0 bound draws nothing."""
        size = bound.astype(np.uint64) + np.uint64(1)
        threshold = np.uint64(1 << 32) % size
        out = np.zeros(size.shape, dtype=np.uint64)
        todo = bound > 0
        while todo.any():
            product = self._next32(todo) * size
            accept = todo & ((product & _U32) >= threshold)
            out = np.where(accept, product >> np.uint64(32), out)
            todo = todo & ~accept
        return out.astype(np.int64)

    def random(self) -> np.ndarray:
        """``Generator.random()`` in every lane."""
        return (self._next64() >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, high: int) -> np.ndarray:
        """``Generator.integers(high)`` in every lane."""
        return self._bounded(np.full(self.hi.shape, high - 1))

    def choice(self, r, k: int) -> np.ndarray:
        """``Generator.choice(r, size=k, replace=False)`` per lane, ``r`` one per lane.

        Returns an (n, k) int64 array; every r must be at least k.
        """
        r = np.broadcast_to(np.asarray(r, dtype=np.int64), self.hi.shape)
        tail = (r > _TAIL_MIN_POPULATION) & (k > r // 50)
        # Floyd: the t-th draw is in [0, j] for j = r - k + t; a value drawn
        # before is replaced by j, which no earlier step could have taken.
        out = np.zeros(r.shape + (k,), dtype=np.int64)
        for t in range(k):
            j = r - k + t
            value = self._bounded(np.where(tail, 0, j))
            seen = (out[:, :t] == value[:, None]).any(axis=1)
            out[:, t] = np.where(seen, j, value)
        lanes = np.arange(len(r))
        for i in range(k - 1, 0, -1):
            j = self._bounded(np.where(tail, 0, i))
            out[lanes, i], out[lanes, j] = out[lanes, j], out[lanes, i]
        if tail.any():
            out[tail] = self._tail_shuffle(tail, r[tail], k)
        return out

    def _tail_shuffle(self, lanes: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
        """Shuffle positions r-1 down to max(r-k, 1) of arange(r), return the last k.

        Position i swaps with a draw j in [0, i]. The draws do not depend on
        the values moved, so they are made first; the swaps then run on the
        few positions they touch, renumbered, instead of on all of arange(r).
        """
        steps = np.minimum(k, r - 1)
        t = np.arange(steps.max())
        live = t < steps[:, None]
        i = np.where(live, r[:, None] - 1 - t, r[:, None] - 1)
        j = np.empty_like(i)
        bound = np.zeros(lanes.shape, dtype=np.int64)
        for c in t:
            bound[lanes] = np.where(live[:, c], i[:, c], 0)
            j[:, c] = self._bounded(bound)[lanes]
        # One key space for all lanes: lane s owns [s * max(r), (s + 1) * max(r)).
        base = (np.arange(len(r)) * r.max())[:, None]
        kept = r[:, None] - k + np.arange(k)
        keys, slot = np.unique(np.hstack([i, j, kept]) + base, return_inverse=True)
        slot = slot.reshape(len(r), -1)
        si, sj = slot[:, :len(t)], slot[:, len(t):2 * len(t)]
        for c in t:
            a, b = si[live[:, c], c], sj[live[:, c], c]
            keys[a], keys[b] = keys[b], keys[a]
        return keys[slot[:, 2 * len(t):]] - base
