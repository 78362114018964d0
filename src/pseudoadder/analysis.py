"""Model-level checks and chain-error extraction for netlists.

A netlist read at time T fits the carry-chain error model when (a) the
recovered carries ``c'_k = s'_k ^ a_k ^ b_k`` never exceed the true
carries (no spurious carries) and (b) the position-0 sum bit is not
stale (``s'_0 = a_0 ^ b_0``), since position 0 receives no carry and an
error there cannot be attributed to any chain.  Only then does the sum
of the per-chain errors reproduce every pair's total error.  That rule
is :func:`pseudoadder.sweep.read_carries`.  :func:`check_conservative`
applies it to all pairs; :func:`validity` gives the verdict on it and the
two other premises, and says how it was reached.

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

from . import ORACLE_LIMIT, SAMPLES
from .chains import canonical_word
from .model import (
    CarryChain,
    ChainErrorTable,
    ConservativenessError,
    Record,
    all_chains,
    pair_word,
    word_pair,
)
from .netlist import Netlist, Time
from .stats import sae_oracle_simulate
from .sweep import PairSweep, block_sweeps


class ConservativeReport(Record):
    """Outcome of a no-spurious-carries check at one read time: ``checked`` counts pairs, and
    ``violations`` counts each pair once per position where its read leaves the model."""

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

    def add(self, sweep: PairSweep, lanes: int) -> None:
        """Count in the ``lanes`` mask of a sweep that answers at the read time: a sample's
        run of lanes, a whole lane block (``sw.full``) or the one lane of a failing chain probe.
        Counterexamples stay the first 10 by position, then by lane, where
        lanes of several blocks are ordered by :func:`~pseudoadder.model.pair_word`."""
        bad = [mask & lanes for mask in sweep.carries_at(self.read_time)[1]]
        self.checked += lanes.bit_count()
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
    """The verdict of :func:`validity` on the chain model's three premises
    at one read time, and how it was reached."""

    __slots__ = ("n", "read_time", "seed", "conservative", "commutativity_counterexamples",
                 "independence_counterexamples", "oracle")

    def __init__(self, n: int, read_time: Time, seed: int):
        self.n, self.read_time, self.seed = n, read_time, seed
        self.conservative = ConservativeReport(read_time)
        self.commutativity_counterexamples: list[tuple[int, int]] = []
        self.independence_counterexamples: list[tuple[CarryChain, int, int]] = []
        self.oracle = None  # the StatsReport of the exhaustive pass, when one ran

    @property
    def commutative(self) -> bool:
        return not self.commutativity_counterexamples

    @property
    def independent(self) -> bool:
        return not self.independence_counterexamples

    @property
    def passed(self) -> bool:
        return self.conservative.passed and self.commutative and self.independent

    @property
    def method(self) -> str:
        """``exhaustive`` iff conservativeness was checked on all 4^n pairs, else the unproven ``sampled``."""
        return "exhaustive" if self.conservative.checked == 1 << 2 * self.n else "sampled"

    def to_json_dict(self) -> dict:
        """The ``validity`` block of ``stats`` and ``ec``: each premise's counterexamples, at most 10."""
        c = self.conservative
        return {"passed": self.passed, "method": self.method, "pairs": c.checked, "seed": self.seed,
                "violations": c.violations, "counterexamples": c.counterexamples,
                "commutativity_counterexamples": self.commutativity_counterexamples,
                "independence_counterexamples": self.independence_counterexamples}


def check_conservative(net: Netlist, t: Time) -> ConservativeReport:
    """Verify ``c'_k <= c_k`` and a fresh position-0 bit for all 4^n pairs
    at T, one lane block at a time.  Counterexamples are listed by
    position, then by lane; :func:`validity` gives the verdict."""
    report = ConservativeReport(read_time=t)
    for sw in block_sweeps(net, [t]):
        report.add(sw, sw.full)
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
    return pair_word(a, b, n)


def validity(net: Netlist, t: Time, limit: int = ORACLE_LIMIT, samples: int = SAMPLES,
             seed: int = 0) -> AssumptionReport:
    """The verdict on the three premises of per-chain error attribution at T.

    Conservativeness (``.conservative``) covers all 4^n pairs iff n <= ``limit``, counted
    in :func:`~pseudoadder.stats.sae_oracle_simulate`'s exhaustive pass, which runs first and
    is kept as ``.oracle``.  Otherwise it covers the first ``samples`` distinct pairs that
    ``Random(seed)`` draws, a then b, in the order of their first draw (above half of all
    4^n pairs, one ``rng.sample`` of words; every pair in
    :func:`~pseudoadder.model.pair_word` order when ``samples`` is at least 4^n).  At every n
    that sample and (0, 1) check commutativity, ``s'(a, b) == s'(b, a)``, and sampled chains
    independence: the error restricted to a chain's bit span matches the canonical probe's
    on every sampled witness.  Every pair generating chain (i, j) has the same true sum bits
    i..j (0 at i..j-1, 1 at j: the generate at i-1 always carries in), so two span errors are
    equal exactly when the read bits i..j are equal, and those are compared.  One lane batch
    answers every sampled check.  ``samples`` must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n = net.n
    report = AssumptionReport(n, t, seed)
    if n <= limit:
        report.oracle = sae_oracle_simulate(net, t, conservative=report.conservative)
    rng = random.Random(seed)

    m = min(samples, 1 << 2 * n)  # distinct pairs: a repeated draw is skipped
    # above half of all pairs one draw per pair, not a coupon collector's many
    words = range(m) if m == 1 << 2 * n else rng.sample(range(1 << 2 * n), m) if 2 * m > 1 << 2 * n else ()
    drawn = dict.fromkeys(word_pair(w, n) for w in words)
    while len(drawn) < m:
        drawn[rng.randrange(1 << n), rng.randrange(1 << n)] = None
    pairs = list(drawn)
    chains = all_chains(n)
    rng.shuffle(chains)
    per_chain = max(2, samples // len(chains))
    witnessed = [(c, [_random_witness(c, n, rng) for _ in range(per_chain)]) for c in chains[:samples]]
    # one lane batch: the sample as (a, b) in its first lanes, then as
    # (b, a), then (0, 1) and (1, 0), then per chain its probe followed
    # by its witnesses
    words = [pair_word(a, b, n) for a, b in pairs] + [pair_word(b, a, n) for a, b in pairs]
    words += [pair_word(0, 1, n), pair_word(1, 0, n)]
    for c, witnesses in witnessed:
        words += [canonical_word(c, n), *witnesses]
    sw = PairSweep(net, words=words, times=[t])
    if report.oracle is None:
        report.conservative.add(sw, (1 << m) - 1)
    sums = sw.lane_sums(t)

    one, other = sums[2 * m : 2 * m + 2]
    mirrored = [((0, 1), one, other), ((1, 0), other, one), *zip(pairs, sums, sums[m:])]
    # (0, 1) and (1, 0) may also be in the sample
    report.commutativity_counterexamples = list(dict.fromkeys(ab for ab, fwd, rev in mirrored if fwd != rev))[:10]

    rest, found = iter(sums[2 * m + 2 :]), []
    for c, witnesses in witnessed:
        span = (1 << (c.j + 1)) - (1 << c.i)  # bits i..j
        expected = next(rest) & span
        found += [(c, *word_pair(w, n)) for w, s in zip(witnesses, rest) if s & span != expected]
    report.independence_counterexamples = list(dict.fromkeys(found))[:10]  # witnesses may repeat
    return report
