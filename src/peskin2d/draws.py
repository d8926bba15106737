"""Seeded draws, bit for bit those of numpy's Philox and PCG64 generators.

Philox(seed) draws what numpy's Generator(Philox(seed)) draws, and
PCG64(seed) what numpy's default_rng(seed) draws, in the same order: both
are keyed through numpy's SeedSequence(seed).  They are written out here
because importing numpy's random package loads OpenSSL (through secrets)
and numpy's generator extensions, about 6 MiB of resident memory, for a
few hundred draws.  The streams are Philox4x64-10 (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11) and PCG64, the 128-bit LCG
with the XSL-RR output (O'Neill, "PCG: a family of simple fast
space-efficient statistically good algorithms", 2014).
"""

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

# numpy's SeedSequence: a pool of four 32-bit words and its hash constants
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16

PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # key bumps (Weyl)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_state(seed, n_words):
    """SeedSequence(seed).generate_state(n_words, uint64), as Python ints."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed & MASK32]   # the seed's 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> XSHIFT

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:   # entropy past the pool, mixed into every word
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    words, hash_const = [], INIT_B
    for i in range(2 * n_words):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> XSHIFT)
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class _Stream:
    def uniform(self, low, high):
        """A float in [low, high): numpy's low + (high - low) * next_double."""
        return low + (high - low) * ((self.next64() >> 11) * 2.0 ** -53)


class Philox(_Stream):
    """Philox4x64-10 keyed by SeedSequence(seed), counter from 0."""

    def __init__(self, seed):
        self._key = seed_state(seed, 2)
        self._counter = 0          # 256 bits, its 64-bit words least significant first
        self._buffer = []

    def next64(self):
        if not self._buffer:       # the counter is incremented before each block
            self._counter += 1
            c = self._counter
            x = [c & MASK64, c >> 64 & MASK64, c >> 128 & MASK64, c >> 192 & MASK64]
            k0, k1 = self._key
            for _ in range(10):
                p0, p1 = PHILOX_M[0] * x[0], PHILOX_M[1] * x[2]
                x = [p1 >> 64 ^ x[1] ^ k0, p1 & MASK64, p0 >> 64 ^ x[3] ^ k1, p0 & MASK64]
                k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
            self._buffer = x[::-1]
        return self._buffer.pop()


class PCG64(_Stream):
    """PCG64 keyed by SeedSequence(seed), as numpy's default_rng(seed)."""

    def __init__(self, seed):
        s_hi, s_lo, i_hi, i_lo = seed_state(seed, 4)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        # one step from 0 gives inc; add the seed, then step once more
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * PCG_MULT + self._inc) & MASK128
        self._half = None          # the high half of a 64-bit draw, kept by next32

    def next64(self):
        self._state = (self._state * PCG_MULT + self._inc) & MASK128
        x, rot = (self._state >> 64 ^ self._state) & MASK64, self._state >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self.next64()
        self._half = value >> 32
        return value & MASK32

    def integers(self, low, high):
        """An int in [low, high), by numpy's 32-bit Lemire rejection."""
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(f"integers needs 0 < high - low < 2**32, got {span}")
        if span == 1:
            return low
        product = self.next32() * span
        if product & MASK32 < span:
            threshold = (1 << 32) % span   # numpy's (UINT32_MAX - rng) % rng_excl
            while product & MASK32 < threshold:
                product = self.next32() * span
        return low + (product >> 32)
