"""Seeded, portable sampling of family members and curves.

Every item gets its own stream derived from (seed, q, s, index), so a corpus
is reproducible item-by-item and independent of iteration order.
"""

from __future__ import annotations

from .boolfn import TracePoly
from .genus2 import QuinticCurve
from .rng import SplitRng, derive_seed


def sample_tracepoly(rng: SplitRng, q: int, s: int) -> TracePoly:
    a7 = 1 + rng.below(q - 1)  # nonzero
    return TracePoly(a7, tuple(rng.below(q) for _ in range(s + 1)))


def sample_curve(rng: SplitRng, q: int) -> QuinticCurve:
    return QuinticCurve(a=1 + rng.below(q - 1), b=rng.below(q),
                        c=rng.below(q), d=rng.below(q))


def standard_corpus(q: int, count: int, s: int, seed: int) -> list[TracePoly]:
    return [sample_tracepoly(SplitRng(derive_seed(seed, q, s, i)), q, s)
            for i in range(count)]


def curve_corpus(q: int, count: int, seed: int) -> list[QuinticCurve]:
    return [sample_curve(SplitRng(derive_seed(seed, q, 5, i)), q) for i in range(count)]
