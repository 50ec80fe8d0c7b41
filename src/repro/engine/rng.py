"""Deterministic pseudo-random number generation for simulations.

All stochastic choices inside a simulation (victim selection, R-MAT edge
placement, backoff jitter) draw from :class:`XorShift64` streams seeded from
the system configuration, so a given (config, app, input) triple always
produces bit-identical results.  Python's global ``random`` module is never
used by simulator code.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class XorShift64:
    """Marsaglia xorshift64* generator: tiny, fast, deterministic."""

    def __init__(self, seed: int):
        if seed == 0:
            seed = 0x9E3779B97F4A7C15
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        # The state stays below 2**64, so only the left shift needs a mask.
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def choice_excluding(self, n: int, exclude: int) -> int:
        """Uniform integer in [0, n) excluding ``exclude`` (requires n >= 2)."""
        if n < 2:
            raise ValueError("need at least two options")
        value = self.randint(0, n - 2)
        return value + 1 if value >= exclude else value

    def fork(self) -> "XorShift64":
        """Derive an independent child stream."""
        return XorShift64(self.next_u64() ^ 0xDEADBEEFCAFEF00D)
