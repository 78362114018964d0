"""Model-level checks and chain-error extraction for netlists.

A netlist read at time T fits the carry-chain error model when (a) the
recovered carries ``c'_k = s'_k ^ a_k ^ b_k`` never exceed the true
carries (no spurious carries) and (b) the position-0 sum bit is not
stale (``s'_0 = a_0 ^ b_0``), since position 0 receives no carry and an
error there cannot be attributed to any chain.  Only then does the sum
of the per-chain errors reproduce every pair's total error.  That rule
is :func:`pseudoadder.sweep.read_carries`; every check here runs its pairs
as one lane batch of :class:`~pseudoadder.sweep.PairSweep`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .chains import canonical_pair, chain_predicate
from .model import (
    CarryChain,
    ChainErrorTable,
    ConservativenessError,
    InputPair,
    all_chains,
)
from .netlist import Netlist, Time
from .sweep import PairSweep


@dataclass
class ConservativeReport:
    """Outcome of a no-spurious-carries check at one read time."""

    read_time: Time
    checked: int
    violations: int = 0
    counterexamples: list[tuple[int, int, int]] = field(default_factory=list)
    #: counterexamples are (a, b, position), capped; position 0 flags a
    #: stale low-order sum bit rather than a spurious carry proper.

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class AssumptionReport:
    """Commutativity and lower-position-independence verdicts."""

    read_time: Time
    commutative: bool
    independent: bool
    commutativity_counterexamples: list[tuple[int, int]] = field(default_factory=list)
    independence_counterexamples: list[tuple[CarryChain, int, int]] = field(
        default_factory=list
    )

    @property
    def passed(self) -> bool:
        return self.commutative and self.independent


def check_conservative(
    net: Netlist,
    t: Time,
    pairs: list[InputPair] | None = None,
    sweep: PairSweep | None = None,
) -> ConservativeReport:
    """Verify ``c'_k <= c_k`` and a fresh position-0 bit for every pair
    (or the given sample) at T.

    With ``pairs=None`` the check is exhaustive over all 4^n pairs; pass
    a prebuilt sweep that answers at T to share it with other checks.
    Counterexamples are listed by position, then by lane.  An empty
    sample raises ValueError.
    """
    sw = sweep if sweep is not None else PairSweep(net, pairs=pairs, times=[t])
    if not sw.pair_count:
        raise ValueError("check_conservative needs at least one pair")
    _, bad = sw.carries_at(t)
    report = ConservativeReport(read_time=t, checked=sw.pair_count)
    report.violations = sum(mask.bit_count() for mask in bad)
    for k, mask in enumerate(bad):
        while mask and len(report.counterexamples) < 10:
            lane = (mask & -mask).bit_length() - 1
            report.counterexamples.append((*sw.lane_pair(lane), k))
            mask &= mask - 1
    return report


def extract_ec_table(net: Netlist, t: Time) -> ChainErrorTable:
    """Measure every chain's error by reading its canonical isolated pair.

    For chain (i, j) the probe is ``a = generate | propagates``,
    ``b = generate``; its true sum is ``2**j`` and the entry is
    ``2**j - s'``.  A probe whose read is not conservative raises
    :class:`ConservativenessError` naming the chain.
    """
    return ec_table_sweep(net, [t])[t]


def ec_table_sweep(net: Netlist, times: list[Time]) -> dict[Time, ChainErrorTable]:
    """Extract the chain-error table at several read times from one
    lane-parallel run of all n(n+1)/2 probes.

    Raises :class:`ConservativenessError` naming the first failing chain
    at the earliest read time where some probe's read is not conservative.
    """
    chains = all_chains(net.n)
    sw = PairSweep(net, pairs=[canonical_pair(c, net.n) for c in chains], times=times)
    tables: dict[Time, ChainErrorTable] = {}
    for t in sorted(times):
        failing = 0
        for mask in sw.carries_at(t)[1]:
            failing |= mask
        if failing:
            c = chains[(failing & -failing).bit_length() - 1]
            raise ConservativenessError(f"probe for chain {c} reads a spurious carry at T={t}", c)
        sums = sw.lane_sums(t)
        tables[t] = ChainErrorTable(net.n, {c: (1 << c.j) - s for c, s in zip(chains, sums)})
    return {t: tables[t] for t in times}


def _random_witness(c: CarryChain, n: int, rng: random.Random) -> InputPair:
    """A random pair generating chain c (free positions randomized)."""
    a = 1 << (c.i - 1)
    b = 1 << (c.i - 1)
    for k in range(c.i, c.j):
        if rng.random() < 0.5:
            a |= 1 << k
        else:
            b |= 1 << k
    if c.j < n and rng.random() < 0.5:
        a |= 1 << c.j
        b |= 1 << c.j
    free = [k for k in range(n) if k < c.i - 1 or k > c.j]
    for k in free:
        bits = rng.randrange(4)
        a |= (bits & 1) << k
        b |= (bits >> 1) << k
    p = InputPair(n, a, b)
    assert chain_predicate(p, c.i, c.j)
    return p


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
    lanes = [InputPair(n, x, y) for a, b in ordered for x, y in ((a, b), (b, a))]
    lanes += [p for c, witnesses in witnessed for p in (canonical_pair(c, n), *witnesses)]
    sums = iter(PairSweep(net, pairs=lanes, times=[t]).lane_sums(t))

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
                    report.independence_counterexamples.append((c, w.a, w.b))
    return report
