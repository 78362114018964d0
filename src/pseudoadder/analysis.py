"""Model-level checks and chain-error extraction for netlists.

A netlist read at time T fits the carry-chain error model when (a) the
recovered carries ``c'_k = s'_k ^ a_k ^ b_k`` never exceed the true
carries (no spurious carries) and (b) the position-0 sum bit is not
stale (``s'_0 = a_0 ^ b_0``), since position 0 receives no carry and an
error there cannot be attributed to any chain.  That rule is
:func:`pseudoadder.sweep.read_carries`, and :func:`check_conservative`
applies it to all pairs.  :func:`validity` gives the verdict on the
whole attribution with one per-pair rule on the same carries: each
pair's missed carries are those its chains' probes missed, so its read
equals the chain model's prediction.  It says how it was reached.

Chain-error tables stream from :func:`ec_table_sweep`, an iterator of
``(t, table)`` per listed read time that raises at the first T whose
probes leave the model; :func:`extract_ec_table` is its one-time case,
and :func:`validity` reads its table off the same probe lanes.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from functools import reduce
from heapq import merge
from itertools import chain, islice
from operator import or_

from . import ORACLE_LIMIT, SAMPLES
from .model import CarryChain, ChainErrorTable, ConservativenessError, Record, _rank, _spans, all_chains, pair_word
from .netlist import Netlist, Time
from .stats import _chain_masks, sae_oracle_simulate
from .sweep import PairSweep, block_sweeps, pair_masks, probe_masks


def _first_ten(found: list, sweep: PairSweep, masks: list[int]) -> list[tuple[int, int, int]]:
    """``found`` and the lanes of ``masks`` (one per position) as ``(a, b, position)``: the first
    10 by position, then by lane, lanes of several blocks ordered by :func:`~pseudoadder.model.pair_word`."""
    new = []
    for k, mask in enumerate(masks):
        while mask and len(new) < 10:
            lane = (mask & -mask).bit_length() - 1
            new.append((*sweep.lane_pair(lane), k))
            mask &= mask - 1
    return list(islice(merge(found, new, key=lambda c: (c[2], pair_word(c[0], c[1], sweep.n))), 10))


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

    def add(self, sweep: PairSweep) -> int:
        """Count in every lane of a sweep that answers at the read time (a sample, a lane block or
        a failing chain probe), keeping :func:`_first_ten`; return the lanes that leave the model."""
        bad = sweep.carries_at(self.read_time)[1]
        self.checked += sweep.pair_count
        self.violations += sum(mask.bit_count() for mask in bad)
        self.counterexamples = _first_ten(self.counterexamples, sweep, bad)
        return reduce(or_, bad)


class AssumptionReport(Record):
    """The verdict of :func:`validity` on per-chain error attribution at one
    read time, how it was reached, and the chain-error table it judged."""

    __slots__ = ("n", "read_time", "seed", "conservative", "independence_counterexamples",
                 "table", "probe_error", "oracle")

    def __init__(self, n: int, read_time: Time, seed: int | None):
        self.n, self.read_time, self.seed = n, read_time, seed  # seed: None when no sample was drawn
        self.conservative = ConservativeReport(read_time)
        #: conservative pairs read otherwise than predicted, as (a, b, lowest differing bit)
        self.independence_counterexamples: list[tuple[int, int, int]] = []
        self.table: ChainErrorTable | None = None  # None when a chain probe leaves the model
        self.probe_error: str | None = None  # then why
        self.oracle = None  # the StatsReport of the exhaustive pass, when one ran

    @property
    def independent(self) -> bool:
        """The rule held on every conservative pair checked; False unchecked (no table)."""
        return self.table is not None and not self.independence_counterexamples

    @property
    def passed(self) -> bool:
        return self.conservative.passed and self.independent

    @property
    def method(self) -> str:
        """``exhaustive`` iff the block pass over all 4^n pairs ran, else the unproven ``sampled``."""
        return "exhaustive" if self.oracle is not None else "sampled"

    def add(self, sweep: PairSweep) -> None:
        """Count in a sweep's lanes: their conservativeness, then the rule on the conservative ones,
        whose missed carries ``c ^ c'`` must be those their chains' probes missed, the bits of
        ``2^j ^ (2^j - e)`` for chain (i, j) of entry e; a chain in no lane is skipped."""
        seen = self.conservative.add(sweep)  # the lanes leaving the model, then those differing lower
        if self.table is None:
            return
        diff = [x ^ y for x, y in zip(sweep.true_carry_masks(), sweep.carries_at(self.read_time)[0])]
        a, b = ([sweep.operand_bit_mask(x, k) for k in range(self.n)] for x in "ab")
        for (_, j), e, m in zip(_spans(self.n), self.table._ec, _chain_masks(a, b)):
            flip = 1 << j ^ (1 << j) - e if m and e else 0
            while flip:
                diff[k := flip.bit_length() - 1] ^= m
                flip ^= 1 << k
        for k, x in enumerate(diff):  # per bit, the conservative lanes that first differ there
            diff[k], seen = x & ~seen, seen | x
        self.independence_counterexamples = _first_ten(self.independence_counterexamples, sweep, diff)

    def to_json_dict(self) -> dict:
        """The ``validity`` block of ``stats`` and ``ec``; a failed verdict with an exhaustive
        pass also carries that pass's true statistics."""
        c = self.conservative
        block = {"passed": self.passed, "method": self.method, "pairs": c.checked, "seed": self.seed,
                 "violations": c.violations, "counterexamples": c.counterexamples,
                 "independence_counterexamples": None if self.table is None else self.independence_counterexamples}
        if self.oracle is not None and not self.passed:
            stats = self.oracle.to_json_dict()
            block["stats"] = {"path": "oracle", **{k: stats[k] for k in ("sae", "er_avg", "mse", "max_abs_error")}}
        return block


def check_conservative(net: Netlist, t: Time) -> ConservativeReport:
    """Verify ``c'_k <= c_k`` and a fresh position-0 bit for all 4^n pairs
    at T, one lane block at a time.  Counterexamples are listed by
    position, then by lane; :func:`validity` gives the verdict."""
    report = ConservativeReport(read_time=t)
    for sw in block_sweeps(net, [t]):
        report.add(sw)
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


def _read_probes(sw: PairSweep, t: Time) -> ChainErrorTable | ConservativenessError:
    """The table at T from the probes, a sweep's last n(n+1)/2 lanes in rank order, or the first failing one's error."""
    first = sw.pair_count - sw.n * (sw.n + 1) // 2
    failing = reduce(or_, sw.carries_at(t)[1]) >> first
    if failing:
        c = CarryChain(*next(islice(_spans(sw.n), (failing & -failing).bit_length() - 1, None)))
        return ConservativenessError(f"probe for chain {c} reads a spurious carry at T={t}", c)
    ends = chain.from_iterable(range(i, sw.n + 1) for i in range(1, sw.n + 1))  # probe (i, j) adds up to 2^j
    return ChainErrorTable._of(sw.n, [(1 << j) - s for j, s in zip(ends, sw.lane_sums(t)[first:])])


def ec_table_sweep(net: Netlist, times: list[Time]) -> Iterator[tuple[Time, ChainErrorTable]]:
    """Iterate ``(t, table)`` over ``times`` in the caller's order, from
    one sweep of the :func:`~pseudoadder.sweep.probe_masks` lanes.

    Each table is built when it is asked for, so a consumer that drops
    each one holds one table at a time; a time listed twice yields its
    own pair each time.  At the first T in that order where some probe's
    read is not conservative, :class:`ConservativenessError` is raised
    naming the failing chain, after the pairs before it were yielded.
    """
    sw = PairSweep(net, masks=probe_masks(net.n), times=times)
    for t in times:
        if isinstance(read := _read_probes(sw, t), ConservativenessError):
            raise read
        yield t, read


def _random_witness(c: CarryChain, n: int, rng: random.Random) -> int:
    """A uniformly random pair generating chain c, as a lane word: both bits at i-1, one bit at
    each of i..j-1, equal bits at j and any bits elsewhere."""
    gen, span, end = 1 << (c.i - 1), (1 << c.j) - (1 << c.i), (1 << c.j) % (1 << n)
    a = rng.getrandbits(n) | gen
    return pair_word(a, (rng.getrandbits(n) | gen) & ~(span | end) | ~a & span | a & end, n)


def _sample_words(n: int, samples: int, seed: int) -> list[int]:
    """The first ``samples`` (< 4^n) distinct pairs ``Random(seed)`` draws, a then b, then two random
    witnesses each of ``samples`` shuffled chains (a uniform pair rarely holds a long chain), as lane words."""
    rng = random.Random(seed)
    # above half of all pairs one draw per pair, not a coupon collector's many
    drawn = dict.fromkeys(rng.sample(range(1 << 2 * n), samples) if 2 * samples > 1 << 2 * n else ())
    while len(drawn) < samples:  # a repeated draw is skipped
        drawn[pair_word(rng.randrange(1 << n), rng.randrange(1 << n), n)] = None
    chains = all_chains(n)  # not plain tuples, which CPython keeps on a free list once freed
    rng.shuffle(chains)
    drawn.update(dict.fromkeys(_random_witness(c, n, rng) for c in 2 * chains[:samples]))
    return list(drawn)


def validity(net: Netlist, t: Time, limit: int = ORACLE_LIMIT, samples: int = SAMPLES,
             seed: int = 0) -> AssumptionReport:
    """The verdict on per-chain error attribution at T: each checked pair's read must equal the
    chain model's prediction, its true sum minus the table entries of its chains.

    The table comes first (``.table``; None, with ``.probe_error``, when a probe leaves the
    model, which fails the verdict).  With conservative probes, a read equals its prediction iff
    it is conservative and independent of the bits below each chain, and then (a, b) and (b, a)
    read alike.  ``.conservative`` counts the pairs leaving the model, and
    ``.independence_counterexamples`` lists the others read otherwise.  Both cover all 4^n pairs
    iff n <= ``limit`` or ``samples`` >= 4^n, in :func:`~pseudoadder.stats.sae_oracle_simulate`'s
    pass (``.oracle``), else the :func:`_sample_words` of ``seed``: one batch holds their
    ``pair_masks`` lanes, then the ``probe_masks`` lanes, which give the table; a probe outside
    the model that the sample missed counts from its own lane.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n = net.n
    exhaustive = n <= limit or samples >= 1 << 2 * n
    report = AssumptionReport(n, t, None if exhaustive else seed)
    sw = PairSweep(net, masks=probe_masks(n, pair_masks([] if exhaustive else _sample_words(n, samples, seed), n)),
                   times=[t])  # probes last, as _read_probes reads them; no sample word or mask is held beside them
    read = _read_probes(sw, t)
    report.table, report.probe_error = (None, str(read)) if isinstance(read, ConservativenessError) else (read, None)
    if exhaustive:
        report.oracle = sae_oracle_simulate(net, t, check=report.add)
        return report
    report.add(sample := sw.lanes(0, sw.pair_count - n * (n + 1) // 2))
    if report.table is None and report.conservative.passed:
        report.conservative.add(sw.lanes(k := sample.pair_count + _rank(n, *read.chain), k + 1))
    return report
