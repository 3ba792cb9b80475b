"""Deterministic 64-bit pseudo-random generator used for every random choice.

The generator is xorshift64* : the state is advanced with the shift triple
(12, 25, 27) and the output is the state multiplied by 0x2545F4914F6CDD1D,
truncated to 64 bits.  Integer seeds are scrambled through one round of the
splitmix64 finalizer so that small consecutive seeds give unrelated streams;
a scrambled value of zero (illegal for xorshift) is replaced with the
golden-ratio constant 0x9E3779B97F4A7C15.

Derived draws are pinned too, so any faithful reimplementation of this file
reproduces shuffles, splits, weight initializations and search traces bit
for bit:

* uniform doubles take the top 53 bits of the next output, divided by 2**53
  (values in [0, 1));
* bounded integers use rejection sampling on the raw 64-bit output, so every
  residue is exactly equally likely;
* ``shuffle`` is a Fisher-Yates pass from the last index down to 1;
* ``sample_indices`` is a partial Fisher-Yates over ``range(n)`` returning
  the first k slots in ascending order.

Block draws (``uniform_block``, ``shuffle``) yield the same stream as the
scalar calls, computed many states at a time.  The state update T is linear
over GF(2), so a state 2**j steps ahead is T**(2**j) applied to the current
one, and each T**(2**j) is stored as eight 256-entry tables, one per state
byte: a jump is eight table lookups XORed together.  A block takes a short
scalar run of states, then doubles it level by level,
``x[k + 2**j] = T**(2**j) x[k]``, up to a chunk of 2**11 states; each later
chunk is the one before it jumped ahead by a whole chunk.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53

# numpy operands are explicit uint64 scalars, so no result depends on how a
# numpy version promotes Python ints.  States are little-endian so that a
# byte view of one lists its bytes from the lowest up.
_U64 = np.dtype("<u8")
_MULTIPLIER_U64 = np.uint64(_MULTIPLIER)
_MAX_U64 = np.uint64(_MASK64)
_ONE_U64 = np.uint64(1)
_SHIFT_U64 = np.uint64(11)
_INV_2_53_F64 = np.float64(_INV_2_53)
_SEED_RUN_BITS = 5   # a chunk starts with 2**5 scalar steps ...
_CHUNK_BITS = 11     # ... and doubles up to 2**11 states
_CHUNK = 1 << _CHUNK_BITS


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _step(x: int) -> int:
    """One xorshift update of a state: the (12, 25, 27) shift triple."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK64
    return x ^ (x >> 27)


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """(8, 256) tables of the GF(2)-linear map with basis images ``images``.

    ``tables[b, v]`` is the image of byte value v at byte b of a state, so
    the map sends x to the XOR over b of ``tables[b, byte b of x]``.
    """
    bits = images.reshape(8, 8)
    tables = np.zeros((8, 256), dtype=_U64)
    for k in range(8):
        tables[:, 1 << k:2 << k] = tables[:, :1 << k] ^ bits[:, k:k + 1]
    return tables


_BYTE_OFFSETS = np.arange(0, 8 * 256, 256, dtype=np.intp).reshape(8, 1)


def _apply(tables: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i]`` = the map of ``tables`` applied to ``x[i]``."""
    octets = x.view(np.uint8).reshape(-1, 8).T
    terms = np.take(tables.reshape(-1), np.add(octets, _BYTE_OFFSETS, dtype=np.intp))
    terms[:4] ^= terms[4:]
    terms[:2] ^= terms[2:4]
    return np.bitwise_xor(terms[0], terms[1], out=out)


@functools.cache
def _jump_tables() -> tuple[np.ndarray, ...]:
    """Tables of T**(2**j) for the doubling levels j of one chunk and, last,
    for the jump by a whole chunk; built on first use and read-only."""
    images = []
    for i in range(64):
        x = 1 << i
        for _ in range(1 << _SEED_RUN_BITS):
            x = _step(x)
        images.append(x)
    images = np.array(images, dtype=_U64)
    levels = []
    for _ in range(_SEED_RUN_BITS, _CHUNK_BITS + 1):
        levels.append(_byte_tables(images))
        # The images of M∘M are M applied to the images of M.
        images = _apply(levels[-1], images, np.empty_like(images))
        levels[-1].flags.writeable = False
    return tuple(levels)


def _states_after(state: int, n: int) -> np.ndarray:
    """The n (at most one chunk) states that follow ``state``, in order."""
    seed = []
    for _ in range(min(n, 1 << _SEED_RUN_BITS)):
        state = _step(state)
        seed.append(state)
    out = np.empty(n, dtype=_U64)
    size = len(seed)
    out[:size] = np.array(seed, dtype=_U64)
    for table in _jump_tables():
        if size >= n:
            break
        step = min(size, n - size)
        _apply(table, out[:step], out[size:size + step])
        size += step
    return out


class XorShift64Star:
    """Sequential xorshift64* stream seeded from a Python integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _splitmix64(seed & _MASK64) or _GOLDEN

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULTIPLIER) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * _INV_2_53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.randrange(high - low + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (descending index order)."""
        for top in range(len(items), 1, -_CHUNK):
            low = max(top - _CHUNK, 1)
            picks = self._randrange_block(np.arange(top, low, -1, dtype=np.uint64))
            for i, j in zip(range(top - 1, low - 1, -1), picks.tolist()):
                items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of range(n), returned ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} indices from range({n})")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def _chunks(self, count: int):
        """Yield (offset, states) for the next ``count`` states, in chunks.

        Each chunk after the first is the one before it jumped ahead by a
        whole chunk, so callers must not write to the states.
        """
        states = None
        for lo in range(0, count, _CHUNK):
            n = min(_CHUNK, count - lo)
            if states is None:
                states = _states_after(self._state, n)
            else:
                states = _apply(_jump_tables()[-1], states[:n], np.empty(n, dtype=_U64))
            self._state = int(states[-1])
            yield lo, states

    def _u64_block(self, count: int) -> np.ndarray:
        """uint64 array of the next ``count`` ``next_u64`` outputs."""
        out = np.empty(count, dtype=np.uint64)
        for lo, states in self._chunks(count):
            np.multiply(states, _MULTIPLIER_U64, out=out[lo:lo + len(states)])
        return out

    def _randrange_block(self, bounds: np.ndarray) -> np.ndarray:
        """``randrange(m)`` for each uint64 m in ``bounds`` in turn.

        Draws exactly the raw outputs the scalar calls would, a rejected one
        included: the bound it was drawn for retries with the next output.
        """
        # 2**64 mod m; u is rejected when u >= 2**64 - rem, i.e. rem > MAX - u.
        rem = (_MAX_U64 % bounds + _ONE_U64) % bounds
        out = np.empty_like(bounds)
        raw = self._u64_block(len(bounds))
        done = 0
        while True:
            rejected = np.flatnonzero(rem[done:] > _MAX_U64 - raw)
            if rejected.size == 0:
                np.remainder(raw, bounds[done:], out=out[done:])
                return out
            r = int(rejected[0])
            np.remainder(raw[:r], bounds[done:done + r], out=out[done:done + r])
            done += r
            raw = np.concatenate((raw[r + 1:], self._u64_block(1)))

    def uniform_block(self, count: int) -> np.ndarray:
        """float64 array of `count` sequential uniform [0, 1) draws."""
        out = np.empty(count, dtype=np.float64)
        scratch = np.empty(min(count, _CHUNK), dtype=np.uint64)
        for lo, states in self._chunks(count):
            u = np.multiply(states, _MULTIPLIER_U64, out=scratch[:len(states)])
            np.right_shift(u, _SHIFT_U64, out=u)
            np.multiply(u, _INV_2_53_F64, out=out[lo:lo + len(u)])
        return out
