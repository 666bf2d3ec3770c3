"""Deterministic counter-based 64-bit generator used for every random corpus.

The generator is fixed by its update equations so that corpora are portable
across implementations (no dependence on any library's RNG internals):

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64          # golden gamma
    z       <- state
    z       <- ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       <- ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  <- z xor (z >> 31)

``mix64`` is the output stage alone.  Substreams / derived seeds:

    derive_seed(p1, p2, ..., pk):  s <- 0; for each p: s <- mix64(s + GOLDEN + p)

Integers below a bound are drawn by rejection (no modulo bias):
draw 64-bit words until one falls below the largest multiple of n, reduce.
"""

from __future__ import annotations

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    s = 0
    for p in parts:
        s = mix64(s + GOLDEN + p)
    return s


class SplitRng:
    """Counter-based stream over the equations above."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < lim:
                return r % n
