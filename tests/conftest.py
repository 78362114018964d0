import random

import pytest

from pseudoadder import CarryChain, InputPair
from pseudoadder.stats import chain_membership


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def membership8():
    """Cached per-chain membership arrays for n=8 (used by several suites)."""
    return chain_membership(8)


def exhaustive_pairs(n):
    for a in range(1 << n):
        for b in range(1 << n):
            yield InputPair(n, a, b)


def chains_by_scan(p):
    """Independent chain oracle: test every (i, j) against the definition,
    bit by bit, without the production scanner."""
    found = []
    for i in range(1, p.n + 1):
        for j in range(i, p.n + 1):
            if p.a_bit(i - 1) == 1 and p.b_bit(i - 1) == 1:
                if all(p.a_bit(k) != p.b_bit(k) for k in range(i, j)) and p.a_bit(
                    j
                ) == p.b_bit(j):
                    found.append(CarryChain(i, j))
    return found


def pair_index(p):
    return p.a + (p.b << p.n)


def traced_sum(trace, net, t):
    """Sum read at time t from an event-simulator trace (the oracle)."""
    return sum(trace.value_at(gid, t) << pos for pos, gid in net.outputs.items())


def lane_transitions(steps, lane):
    """One lane's ``(time, value)`` changes in a lane-parallel waveform."""
    out, prev = [], 0
    for t, mask in steps:
        v = (mask >> lane) & 1
        if v != prev:
            out.append((t, v))
            prev = v
    return out
