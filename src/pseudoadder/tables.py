"""Synthetic chain-error tables shaped like real pseudo-adder behavior.

A conservative pseudo-adder can only miss carries, so a chain (i, j) can
err in two bit patterns: the end bit reads 0 instead of 1 (+2^j) and any
subset of the propagate positions reads 1 instead of 0 (-2^k each).
Every realizable entry is therefore ``y_j * 2^j - m`` with ``y_j`` in
{0, 1} and ``m`` any value whose set bits lie in positions i..j-1.
Randomized tests must stay inside this shape: the sign of a pair's total
error is only pinned by its dominating chain when each chain's error
lives in the chain's own bit span.
"""

from __future__ import annotations

import random

from .model import CarryChain, ChainErrorTable, all_chains


def random_realizable_error(c: CarryChain, rng: random.Random) -> int:
    """A random error the chain could actually exhibit (possibly zero)."""
    width = c.j - c.i
    m = rng.getrandbits(width) << c.i if width else 0
    end_failed = rng.random() < 0.5
    return ((1 << c.j) if end_failed else 0) - m


def random_realizable_table(n: int, rng: random.Random, density: float = 0.6) -> ChainErrorTable:
    """Random table with every entry realizable by some conservative adder.

    ``density`` is the probability that a chain errs at all.
    """
    entries: dict[CarryChain, int] = {}
    for c in all_chains(n):
        if rng.random() < density:
            entries[c] = random_realizable_error(c, rng)
    return ChainErrorTable(n, entries)
