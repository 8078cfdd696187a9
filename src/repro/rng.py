"""Deterministic, splittable random number generation.

The paper stresses that DATAGEN output is *deterministic regardless of the
Hadoop configuration* (number of nodes / mappers / reducers).  We obtain the
same property by never sharing one sequential RNG across entities: every
random decision is made by a stream keyed on ``(seed, purpose, entity id)``.
Re-partitioning the work across workers then cannot change which stream any
decision draws from.

The implementation uses SplitMix64 to hash keys into a 64-bit seed and a
small xoshiro256** generator for the stream itself.  Both are well-known,
compact, and fully reproducible across platforms (pure integer arithmetic).
"""

from __future__ import annotations

import math
from typing import Sequence, TypeVar

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state; return ``(new_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def mix_key(*parts: int | str) -> int:
    """Hash a heterogeneous key tuple into a single 64-bit value.

    Strings are folded byte-by-byte so the result does not depend on
    Python's randomized ``hash()``.
    """
    state = 0x8BADF00D_DEADBEEF
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                state, _ = splitmix64(state ^ byte)
        else:
            state, _ = splitmix64(state ^ (part & _MASK64))
    _, out = splitmix64(state)
    return out


class RandomStream:
    """A small, fast, deterministic random stream (xoshiro256**).

    The API mirrors the parts of :class:`random.Random` the generator
    needs, plus a few distribution helpers used throughout DATAGEN.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int) -> None:
        state = seed & _MASK64
        state, self._s0 = splitmix64(state)
        state, self._s1 = splitmix64(state)
        state, self._s2 = splitmix64(state)
        state, self._s3 = splitmix64(state)

    @classmethod
    def for_key(cls, *parts: int | str) -> "RandomStream":
        """Build a stream keyed on an arbitrary tuple (seed, purpose, id...)."""
        return cls(mix_key(*parts))

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = ((s1 * 5) & _MASK64)
        result = (((result << 7) | (result >> 57)) & _MASK64)
        result = (result * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements (order of discovery)."""
        n = len(seq)
        if k > n:
            raise ValueError(f"sample size {k} exceeds population {n}")
        picked: list[T] = []
        chosen: set[int] = set()
        while len(picked) < k:
            idx = self.next_u64() % n
            if idx not in chosen:
                chosen.add(idx)
                picked.append(seq[idx])
        return picked

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def geometric(self, p: float) -> int:
        """Number of failures before the first success; support ``{0,1,..}``."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric probability must be in (0,1], got {p}")
        if p == 1.0:
            return 0
        u = self.random()
        # Guard against log(0).
        u = max(u, 1e-300)
        return int(math.log(u) / math.log(1.0 - p))

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        u = max(self.random(), 1e-300)
        return -mean * math.log(u)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Index in ``[0, n)`` following an (approximate) Zipf law.

        Uses the inverse-CDF of the continuous bounded Pareto approximation,
        which is accurate enough for dictionary-rank selection and O(1).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        if skew == 1.0:
            # Harmonic-law inverse: rank ~ exp(U * ln(n+1)) - 1
            u = self.random()
            rank = math.exp(u * math.log(n + 1.0)) - 1.0
        else:
            one_minus = 1.0 - skew
            u = self.random()
            hi = (n + 1.0) ** one_minus
            rank = (u * (hi - 1.0) + 1.0) ** (1.0 / one_minus) - 1.0
        idx = int(rank)
        return min(max(idx, 0), n - 1)

    def weighted_choice(self, weights: Sequence[float]) -> int:
        """Pick an index with probability proportional to its weight."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        target = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                return i
        return len(weights) - 1


class ZipfSampler:
    """Table-driven Zipf-rank sampler: O(1) per draw.

    Precomputes the inverse CDF of :meth:`RandomStream.zipf_index` at a
    fixed resolution; each draw costs one raw u64 plus a table lookup.
    Used on hot paths (message text generation draws millions of
    Zipf-ranked words).
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, skew: float = 1.0,
                 resolution: int = 1024) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        table = []
        for i in range(resolution):
            u = (i + 0.5) / resolution
            if n == 1:
                rank = 0.0
            elif skew == 1.0:
                rank = math.exp(u * math.log(n + 1.0)) - 1.0
            else:
                one_minus = 1.0 - skew
                hi = (n + 1.0) ** one_minus
                rank = (u * (hi - 1.0) + 1.0) ** (1.0 / one_minus) - 1.0
            table.append(min(max(int(rank), 0), n - 1))
        self.table = table

    def sample(self, stream: RandomStream) -> int:
        """Draw one Zipf-distributed index in ``[0, n)``."""
        table = self.table
        return table[stream.next_u64() % len(table)]
