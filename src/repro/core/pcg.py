"""numpy's ``default_rng`` in pure Python, bit for bit.

:class:`PCG64` reproduces ``numpy.random.default_rng(seed)``: the
``SeedSequence`` that seeds it, the PCG64 (XSL-RR 128/64) bit generator
with its buffered 32-bit half-word, and the numpy algorithms
:class:`repro.core.rng.RandomSource` draws with (Lemire bounded integers,
``random_interval``, Floyd's sampling, the ziggurat normal and
exponential).  Each method names the numpy function it ports, and every
stream matches numpy's to the last bit; ``tests/proptest/
test_rng_differential.py`` checks that against numpy itself.

Only the stdlib is used, so a run that draws random numbers needs no
third-party module.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_right
from typing import List, Sequence

from repro.core._ziggurat import FE, FI, KE, KI, WE, WI

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
M128 = (1 << 128) - 1

# --- SeedSequence (numpy/random/bit_generator.pyx) -------------------------

_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> List[int]:
    """``init * mult**k`` (mod 2**32) for ``k < count``: the running hash
    constant, which does not depend on the data being hashed."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & M32)
    return out


#: ``hashmix`` call ``k`` xors with ``_A[k]`` and multiplies by ``_A[k + 1]``.
#: Seeding a pool of four words from at most four words of entropy makes
#: 16 calls; longer entropy extends the list on demand.
_A = _hash_constants(_INIT_A, _MULT_A, 17)
#: ``generate_state`` word ``k`` xors with ``_B[k]`` and multiplies by
#: ``_B[k + 1]``; PCG64 seeding takes eight words.
_B = _hash_constants(_INIT_B, _MULT_B, 9)
#: The pool words that only hash the zero padding (calls 0-3 of the fill).
_ZERO_FILL = [((_A[k] * _A[k + 1]) & M32) ^ (((_A[k] * _A[k + 1]) & M32) >> 16)
              for k in range(_POOL_SIZE)]
#: ``(source, destination, xor, multiplier)`` of each step of the
#: all-pairs mixing round (``hashmix`` calls 4-15), in order.
_CROSS = [(src, dst) for src in range(_POOL_SIZE)
          for dst in range(_POOL_SIZE) if src != dst]
_CROSS = [(src, dst, _A[k], _A[k + 1])
          for k, (src, dst) in enumerate(_CROSS, start=_POOL_SIZE)]


def _entropy_words(entropy) -> List[int]:
    """``_coerce_to_uint32_array``: an int as little-endian 32-bit words
    (``[0]`` for zero), a sequence as its items' words concatenated."""
    if type(entropy) is int and 0 <= entropy <= M32:
        return [entropy]
    if isinstance(entropy, (float, complex, str, bytes)):
        raise TypeError(
            f"SeedSequence expects int or sequence of ints for entropy "
            f"not {entropy!r}"
        )
    try:
        value = operator.index(entropy)
    except TypeError:
        words: List[int] = []
        for item in entropy:
            words.extend(_entropy_words(item))
        return words
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & M32]
    value >>= 32
    while value:
        words.append(value & M32)
        value >>= 32
    return words


def seed_state(entropy, n_words: int) -> List[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` as a list of
    uint32 words.

    ``entropy`` is a non-negative int or a (nested) sequence of them.
    """
    words = _entropy_words(entropy)
    length = len(words)
    # mix_entropy: hash the entropy (or zeros) into the pool ...
    a = _A
    pool = _ZERO_FILL[:]
    for i in range(min(length, _POOL_SIZE)):
        value = (words[i] ^ a[i]) * a[i + 1] & M32
        pool[i] = value ^ (value >> 16)
    # ... mix every word into every other, so late bits reach early ones ...
    for src, dst, xor, mult in _CROSS:
        value = (pool[src] ^ xor) * mult & M32
        value = (_MIX_MULT_L * pool[dst]
                 - _MIX_MULT_R * (value ^ (value >> 16))) & M32
        pool[dst] = value ^ (value >> 16)
    # ... and fold in the entropy beyond the pool size.
    if length > _POOL_SIZE:
        k = _POOL_SIZE * _POOL_SIZE
        a = _hash_constants(_INIT_A, _MULT_A, k + _POOL_SIZE * (length - _POOL_SIZE) + 1)
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                value = (word ^ a[k]) * a[k + 1] & M32
                value = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * (value ^ (value >> 16))) & M32
                pool[dst] = value ^ (value >> 16)
                k += 1
    b = _B if n_words < len(_B) else _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    state = []
    for i in range(n_words):
        value = (pool[i % _POOL_SIZE] ^ b[i]) * b[i + 1] & M32
        state.append(value ^ (value >> 16))
    return state


# --- PCG64 and the Generator algorithms -------------------------------------

#: ``PCG_DEFAULT_MULTIPLIER_128``.
_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341
#: ``next_double``: the top 53 bits of a 64-bit draw, scaled to [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: ``ziggurat_nor_r``, ``ziggurat_nor_inv_r`` and ``ziggurat_exp_r``.
_NOR_R = 3.654152885361009
_NOR_INV_R = 0.2736612373297583
_EXP_R = 7.69711747013105


class PCG64:
    """``numpy.random.default_rng(seed)``: PCG64 seeded through
    ``SeedSequence``, with the Generator algorithms ported from numpy.

    ``seed=None`` seeds from 128 bits of OS entropy, as numpy does.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed=None) -> None:
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        w = seed_state(seed, 8)
        # generate_state(4, uint64): little-endian pairs of uint32 words.
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        # pcg_setseq_128_srandom_r
        inc = ((initseq << 1) | 1) & M128
        state = (inc + initstate) & M128
        self._state = (state * _MULTIPLIER + inc) & M128
        self._inc = inc
        self._has_uint32 = False
        self._uinteger = 0

    # bit generator ----------------------------------------------------------

    def next64(self) -> int:
        """``pcg64_next64``: step, then the XSL-RR output of the new state."""
        state = (self._state * _MULTIPLIER + self._inc) & M128
        self._state = state
        word = (state >> 64) ^ (state & M64)
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & M64

    def next32(self) -> int:
        """``pcg64_next32``: the low half of a 64-bit draw, keeping the high
        half for the next call."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        word = self.next64()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & M32

    def random(self) -> float:
        """``next_double``: a float uniform on [0, 1)."""
        return (self.next64() >> 11) * _DOUBLE_SCALE

    # bounded integers -------------------------------------------------------

    def bounded(self, rng: int) -> int:
        """``random_bounded_uint64`` (Lemire, unmasked): an int uniform on
        ``[0, rng]``, for ``0 <= rng < 2**64``."""
        if rng == 0:
            return 0
        if rng < M32:
            # buffered_bounded_lemire_uint32
            excl = rng + 1
            product = self.next32() * excl
            if product & M32 < excl:
                threshold = (M32 - rng) % excl
                while product & M32 < threshold:
                    product = self.next32() * excl
            return product >> 32
        if rng == M32:
            return self.next32()
        if rng == M64:
            return self.next64()
        # bounded_lemire_uint64
        excl = rng + 1
        product = self.next64() * excl
        if product & M64 < excl:
            threshold = (M64 - rng) % excl
            while product & M64 < threshold:
                product = self.next64() * excl
        return product >> 64

    def interval(self, maximum: int) -> int:
        """``random_interval``: an int uniform on ``[0, maximum]`` by
        masked rejection (what ``shuffle`` draws with)."""
        if maximum == 0:
            return 0
        mask = (1 << maximum.bit_length()) - 1
        if maximum <= M32:
            value = self.next32() & mask
            while value > maximum:
                value = self.next32() & mask
        else:
            value = self.next64() & mask
            while value > maximum:
                value = self.next64() & mask
        return value

    def shuffle(self, items: list) -> None:
        """``Generator.shuffle`` of a list: Fisher-Yates from the end, each
        place drawn by :meth:`interval`."""
        interval = self.interval
        for i in range(len(items) - 1, 0, -1):
            j = interval(i)
            items[i], items[j] = items[j], items[i]

    def choice_without_replacement(self, population: int, size: int) -> List[int]:
        """``Generator.choice(population, size, replace=False)``: distinct
        indices in random order."""
        bounded = self.bounded
        if population > 10000 and size > population // 50:
            # Tail shuffle: the last ``size`` places of a partial shuffle.
            out = list(range(population))
            first = max(population - size, 1)
        else:
            # Floyd's algorithm, then a shuffle of the picks.
            picked = set()
            out = []
            for j in range(population - size, population):
                value = bounded(j)
                if value in picked:
                    value = j
                picked.add(value)
                out.append(value)
            first = 1
        # _shuffle_int: unlike ``shuffle``, it draws with ``bounded``.
        for i in range(len(out) - 1, first - 1, -1):
            j = bounded(i)
            out[i], out[j] = out[j], out[i]
        return out[len(out) - size:]

    def weighted_index(self, probabilities: Sequence[float]) -> int:
        """``Generator.choice(len(p), p=p)``: an index drawn by inverting
        the normalised cumulative sum."""
        cdf = []
        total = 0.0
        for p in probabilities:
            total += p
            cdf.append(total)
        last = cdf[-1]
        return bisect_right([c / last for c in cdf], self.random())

    # ziggurat ---------------------------------------------------------------

    def standard_normal(self) -> float:
        """``random_standard_normal``."""
        while True:
            bits = self.next64()
            idx = bits & 0xFF
            bits >>= 8
            rabs = (bits >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if bits & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        if (rabs >> 8) & 1:
                            return -(_NOR_R + xx)
                        return _NOR_R + xx
            elif ((FI[idx - 1] - FI[idx]) * self.random() + FI[idx]
                  < math.exp(-0.5 * x * x)):
                return x

    def standard_exponential(self) -> float:
        """``random_standard_exponential``."""
        while True:
            bits = self.next64() >> 3
            idx = bits & 0xFF
            bits >>= 8
            x = bits * WE[idx]
            if bits < KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - math.log1p(-self.random())
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return x
