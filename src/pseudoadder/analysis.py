"""Model-level checks and chain-error extraction for netlists.

A netlist read at time T fits the carry-chain error model when (a) the
recovered carries ``c'_k = s'_k ^ a_k ^ b_k`` never exceed the true
carries (no spurious carries) and (b) the position-0 sum bit is not
stale (``s'_0 = a_0 ^ b_0``), since position 0 receives no carry and an
error there cannot be attributed to any chain.  Only then does the sum
of the per-chain errors reproduce every pair's total error.  That rule
is :func:`pseudoadder.sweep.read_carries`; every check here runs its pairs
as one lane batch of :class:`~pseudoadder.sweep.PairSweep`.

Chain-error tables stream from :func:`ec_table_sweep`: an iterator of
``(t, table)`` per listed read time, in the caller's order, that raises
at the first T whose probes leave the model; :func:`extract_ec_table`
is its one-time case.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from heapq import merge
from itertools import islice

from .chains import canonical_word, chain_predicate
from .model import (
    CarryChain,
    ChainErrorTable,
    ConservativenessError,
    InputPair,
    Record,
    all_chains,
    pair_word,
    word_pair,
)
from .netlist import Netlist, Time
from .sweep import PairSweep, block_sweeps


class ConservativeReport(Record):
    """Outcome of a no-spurious-carries check at one read time."""

    __slots__ = ("read_time", "checked", "violations", "counterexamples")

    def __init__(self, read_time: Time):
        self.read_time = read_time
        self.checked = self.violations = 0
        #: counterexamples are (a, b, position), capped; position 0 flags a
        #: stale low-order sum bit rather than a spurious carry proper.
        self.counterexamples: list[tuple[int, int, int]] = []

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def add(self, sweep: PairSweep) -> None:
        """Count in the lanes of a sweep that answers at the read time: a
        sample, or one lane block of an exhaustive check.  Counterexamples
        stay the first 10 by position, then by lane, where lanes of
        several blocks are ordered by :func:`~pseudoadder.model.pair_word`."""
        _, bad = sweep.carries_at(self.read_time)
        self.checked += sweep.pair_count
        self.violations += sum(mask.bit_count() for mask in bad)
        found = []
        for k, mask in enumerate(bad):
            while mask and len(found) < 10:
                lane = (mask & -mask).bit_length() - 1
                found.append((*sweep.lane_pair(lane), k))
                mask &= mask - 1
        n = sweep.n
        merged = merge(self.counterexamples, found, key=lambda c: (c[2], pair_word(c[0], c[1], n)))
        self.counterexamples = list(islice(merged, 10))


class AssumptionReport(Record):
    """Commutativity and lower-position-independence verdicts."""

    __slots__ = ("read_time", "commutative", "independent",
                 "commutativity_counterexamples", "independence_counterexamples")

    def __init__(self, read_time: Time, commutative: bool, independent: bool):
        self.read_time, self.commutative, self.independent = read_time, commutative, independent
        self.commutativity_counterexamples: list[tuple[int, int]] = []
        self.independence_counterexamples: list[tuple[CarryChain, int, int]] = []

    @property
    def passed(self) -> bool:
        return self.commutative and self.independent


def check_conservative(net: Netlist, t: Time, pairs: list[InputPair] | None = None) -> ConservativeReport:
    """Verify ``c'_k <= c_k`` and a fresh position-0 bit for every pair
    (or the given sample) at T.

    With ``pairs=None`` the check is exhaustive over all 4^n pairs, one
    lane block at a time.  Counterexamples are listed by position, then
    by lane.  An empty sample raises ValueError.
    """
    report = ConservativeReport(read_time=t)
    if pairs is None:
        sweeps = block_sweeps(net, [t])
    else:
        if any(p.n != net.n for p in pairs):
            raise ValueError(f"width mismatch: netlist n={net.n}, pairs of another width")
        sweeps = [PairSweep(net, words=[pair_word(p.a, p.b, net.n) for p in pairs], times=[t])]
    for sw in sweeps:
        report.add(sw)
    if not report.checked:
        raise ValueError("check_conservative needs at least one pair")
    return report


def extract_ec_table(net: Netlist, t: Time) -> ChainErrorTable:
    """Measure every chain's error by reading its canonical isolated pair.

    For chain (i, j) the probe is ``a = generate | propagates``,
    ``b = generate``; its true sum is ``2**j`` and the entry is
    ``2**j - s'``.  A probe whose read is not conservative raises
    :class:`ConservativenessError` naming the chain.  This is the
    one-time case of :func:`ec_table_sweep`.
    """
    return next(ec_table_sweep(net, [t]))[1]


def ec_table_sweep(net: Netlist, times: list[Time]) -> Iterator[tuple[Time, ChainErrorTable]]:
    """Iterate ``(t, table)`` over ``times`` in the caller's order, from
    one lane-parallel run of all n(n+1)/2 probes that answers at every
    read time.

    Each table is built when it is asked for, so a consumer that drops
    each one holds one table at a time; a time listed twice yields its
    own pair each time.  At the first T in that order where some probe's
    read is not conservative, :class:`ConservativenessError` is raised
    naming the failing chain, after the pairs before it were yielded.
    """
    chains = all_chains(net.n)
    sw = PairSweep(net, words=[canonical_word(c, net.n) for c in chains], times=times)
    for t in times:
        failing = 0
        for mask in sw.carries_at(t)[1]:
            failing |= mask
        if failing:
            c = chains[(failing & -failing).bit_length() - 1]
            raise ConservativenessError(f"probe for chain {c} reads a spurious carry at T={t}", c)
        yield t, ChainErrorTable(net.n, {c: (1 << c.j) - s for c, s in zip(chains, sw.lane_sums(t))})


def _random_witness(c: CarryChain, n: int, rng: random.Random) -> int:
    """A random pair generating chain c (free positions randomized), as a
    lane word (:func:`~pseudoadder.model.pair_word`)."""
    a = b = 1 << (c.i - 1)
    for k in range(c.i, c.j):
        if rng.random() < 0.5:
            a |= 1 << k
        else:
            b |= 1 << k
    if c.j < n and rng.random() < 0.5:
        a |= 1 << c.j
        b |= 1 << c.j
    for k in (*range(c.i - 1), *range(c.j + 1, n)):
        bits = rng.randrange(4)
        a |= (bits & 1) << k
        b |= (bits >> 1) << k
    assert chain_predicate(InputPair(n, a, b), c.i, c.j)
    return pair_word(a, b, n)


def verify_assumptions(
    net: Netlist,
    t: Time,
    samples: int = 64,
    seed: int = 0,
) -> AssumptionReport:
    """Spot-check the two premises behind per-chain error attribution.

    Commutativity: ``s'(a, b) == s'(b, a)`` for sampled pairs.
    Independence: for sampled chains, the error restricted to the chain's
    bit span matches the canonical probe's error on every sampled witness,
    regardless of the bits outside the chain.  Every pair generating chain
    (i, j) has the same true sum bits i..j (0 at i..j-1, 1 at j: the
    generate at i-1 always carries in), so two span errors are equal
    exactly when the read bits i..j are equal, and those are compared.
    A failure means per-chain errors are ill-defined for this netlist and
    the fast statistics do not apply.  ``samples`` must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    n = net.n
    report = AssumptionReport(read_time=t, commutative=True, independent=True)

    ordered = [(0, 1), (1, 0), (0, 0)]
    ordered += [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(samples)]
    chains = all_chains(n)
    rng.shuffle(chains)
    per_chain = max(2, samples // max(1, len(chains)))
    witnessed = [
        (c, [_random_witness(c, n, rng) for _ in range(per_chain)])
        for c in chains[: max(1, min(len(chains), samples))]
    ]
    # one lane batch: (a, b) then (b, a) per ordered pair, then per chain
    # its probe followed by its witnesses
    words = [pair_word(x, y, n) for a, b in ordered for x, y in ((a, b), (b, a))]
    for c, witnesses in witnessed:
        words += [canonical_word(c, n), *witnesses]
    sums = iter(PairSweep(net, words=words, times=[t]).lane_sums(t))

    for a, b in ordered:
        fwd, rev = next(sums), next(sums)
        if fwd != rev:
            report.commutative = False
            if len(report.commutativity_counterexamples) < 10:
                report.commutativity_counterexamples.append((a, b))

    for c, witnesses in witnessed:
        span = (1 << (c.j + 1)) - (1 << c.i)  # bits i..j
        expected = next(sums) & span
        for w in witnesses:
            if next(sums) & span != expected:
                report.independent = False
                if len(report.independence_counterexamples) < 10:
                    report.independence_counterexamples.append((c, *word_pair(w, n)))
    return report
