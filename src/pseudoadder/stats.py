"""Exact error statistics: brute-force oracles and fast chain algorithms.

The oracles enumerate all 2^(2n) input pairs, bit-sliced over the lanes
of one lane block at a time (:func:`~pseudoadder.sweep.lane_blocks`):
every pair's signed error is a bit of each of a few two's-complement
slice masks.  A block holds O(n) masks of 8 KB, as no list of chain
masks is kept, and is reduced to its SAE, SSE and max |error| before
the next is built.  They run at any n, 4^(n-8) blocks above n = 8; the
caller chooses the width (``validity(limit=)``, ``verify
--exhaustive-n-limit``).  The simulation
oracle also hands each block's sweep to a check when given one, so
``validity`` simulates every block once.  The fast path,
:func:`analyze_table`, works from a chain-error table: one scan over bit
positions yields SAE/Er_avg, MSE, max |error| with a witness, and the
per-chain tallies of every erring chain, in quadratic time.  It is exact
for any table realizable by a conservative pseudo-adder, checks the sign
law this rests on, and raises ``ValueError`` for a table that breaks it.
``er_avg_fast``, ``mse_fast`` and ``maxerror.max_abs_error`` are views
of the same scan.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .model import CarryChain, ChainErrorTable, ChainSet, ChainTally, StatsReport, _rank, all_chains
from .netlist import Netlist, Time
from .sweep import block_sweeps, lane_blocks, operand_masks


def _chain_masks(a: list[int], b: list[int]) -> Iterator[int]:
    """Every chain's lane mask, from the lane masks of a's and b's bits, in the tables' rank order:
    the generate mask at i-1, narrowed by one running propagate prefix per start and cut by an
    equal-bits end (none at j = n)."""
    n, prop = len(a), [x ^ y for x, y in zip(a, b)]
    for i in range(1, n + 1):
        run = a[i - 1] & b[i - 1]
        for j in range(i, n):
            rest = run & prop[j]
            yield run ^ rest  # run & ~prop[j], without a negative mask
            run = rest
        yield run


def _table_errors(ec: ChainErrorTable, masks: Iterable[int], width: int) -> list[int]:
    """Every lane's table error, the sum of its chains' entries, as ``width`` two's-complement
    slices (sign on top), from :func:`_chain_masks`: each entry e is added in its chain's lanes by
    a ripple carry (e > 0) or borrow (e < 0) that stops once it dies out; overflow past the top
    slice wraps."""
    d = [0] * width
    for e, m in zip(ec._ec, masks):
        v, c = abs(e), 0
        for k, x in enumerate(d):
            if not (m and (v or c)):
                break
            y = x if e > 0 else ~x
            if v & 1:
                d[k] = x ^ m ^ c
                c = m & (y | c)
            else:
                d[k] = x ^ c
                c &= y
            v >>= 1
    return d


def _slice_sums(d: list[int]) -> tuple[int, int, int]:
    """SAE, SSE and max |error| of the per-lane signed errors held in the
    two's-complement slices d (top slice = sign, magnitude below it)."""
    sign = c = d[-1]
    mag = []
    for x in d[:-1]:
        x ^= sign
        mag.append(x ^ c)
        c &= x
    pops = [m.bit_count() for m in mag]
    sae = sum(p << k for k, p in enumerate(pops))
    sse = sum(p << (2 * k) for k, p in enumerate(pops))
    for k, mk in enumerate(mag):
        if mk:
            for l in range(k + 1, len(mag)):
                sse += (mk & mag[l]).bit_count() << (k + l + 1)
    top, cand = 0, -1  # cand: the lanes whose |error| has every bit of top
    for k in reversed(range(len(mag))):
        if cand & mag[k]:
            cand &= mag[k]
            top |= 1 << k
    return sae, sse, top


def _oracle_report(n: int, blocks: Iterable[tuple[int, int, int]]) -> StatsReport:
    """One report from the SAE, SSE and max |error| of lane blocks that
    together hold all 4^n pairs."""
    sae = sse = top = 0
    for block_sae, block_sse, block_top in blocks:
        sae, sse, top = sae + block_sae, sse + block_sse, max(top, block_top)
    pairs = 1 << (2 * n)
    return StatsReport(n, sae, Fraction(sae, pairs), Fraction(sse, pairs), top)


def sae_oracle_chains(ec: ChainErrorTable) -> StatsReport:
    """Ground truth by enumerating pairs through chain detection.

    Every pair's error is the sum of its chains' table entries; the
    report also tallies, per chain, how many generating pairs fall under
    a positive or negative dominating chain.  It runs 4^(n-8) lane
    blocks at n > 8 and makes each block's chain masks twice, as streams
    (errors and signs, then tallies), so it holds O(n) masks, not n(n+1)/2.
    """
    n = ec.n
    # a pair's chains end at distinct positions j, so this bounds |error|
    bound = sum(max(abs(ec.get(i, j)) for i in range(1, j + 1)) for j in range(1, n + 1))
    nu_plus, nu_minus = [0] * len(ec._ec), [0] * len(ec._ec)  # in rank order

    def blocks() -> Iterator[tuple[int, int, int]]:
        for block, width in lane_blocks(n):
            a, b, _ = operand_masks(n, block, width)
            pos = neg = 0

            def signed(masks: Iterator[int]) -> Iterator[int]:
                # dominating sign per pair: chains by ascending start, so the
                # last error-contributing hit (largest start = leftmost) wins
                nonlocal pos, neg
                for e, m in zip(ec._ec, masks):
                    if e:
                        pos, neg = (pos | m, neg & ~m) if e > 0 else (pos & ~m, neg | m)
                    yield m

            d = _table_errors(ec, signed(_chain_masks(a, b)), bound.bit_length() + 1)
            for r, m in enumerate(_chain_masks(a, b)):
                nu_plus[r] += (m & pos).bit_count()
                nu_minus[r] += (m & neg).bit_count()
            yield _slice_sums(d)

    report = _oracle_report(n, blocks())
    report.nu_plus, report.nu_minus = (dict(zip(all_chains(n), x)) for x in (nu_plus, nu_minus))
    return report


def sae_oracle_simulate(net: Netlist, t: Time, check: Callable[[PairSweep], None] | None = None) -> StatsReport:
    """Ground truth by simulating every pair, one lane block at a time (4^(n-8) blocks at n > 8);
    independent of the chain model (no per-chain tallies).  Each block's signed errors, true sum
    minus read, are n + 2 two's-complement slices; ``check(sweep)`` is then called on the block
    before it is reduced, so one exhaustive pass also serves :func:`~pseudoadder.analysis.validity`."""

    def blocks() -> Iterator[tuple[int, int, int]]:
        for sw in block_sweeps(net, [t]):
            n, bit, c = sw.n, sw.operand_bit_mask, sw.true_carry_masks()
            d, borrow = [], 0
            for k, y in enumerate(sw.output_masks_at(t)):
                x = bit("a", k) ^ bit("b", k) ^ c[k] if k < n else c[n]  # true sum bit
                d.append(x ^ y ^ borrow)
                borrow = (~x & (y | borrow)) | (y & borrow)
            d.append(borrow)
            if check is not None:
                check(sw)
            yield _slice_sums(d)

    return _oracle_report(net.n, blocks())


def nu_single(n: int, c: CarryChain) -> int:
    """Number of pairs generating the chain (i, j).

    Positions below the generate are free, the chain pattern is fixed,
    the end position has two equal-bits choices unless it is the forced
    top position, and everything above is free.
    """
    c = CarryChain(*c).validate(n)
    end = 1 if c.j == n else 2 * 4 ** (n - 1 - c.j)
    return 4 ** (c.i - 1) * 2 ** (c.j - c.i) * end


def _scan(ec: ChainErrorTable) -> tuple[StatsReport, ChainSet]:
    """Every fast statistic and a max witness from one top-down scan.

    Past position k, a pair's state is its open chain end e (positions
    k+1..e-1 propagate) and the sign s of its leftmost erring chain (0
    while none errs).  Only a 00 or a generate (11) at k moves a pair to
    end k, so each state is made once, at its end, and read at a lower k
    scaled by 2^(e-1-k); running sums of those reads leave a step only
    the chains that close there.  A generate at k closes chain (k+1, e)
    and adds its error w, read from the table's row of start k+1.  A state
    carries its pair count, the sums of s*error and error^2, the extremes
    of s*error, and a back-pointer to the largest (end, sign, and start i
    of the chain closed there or None).  The smallest s*error must not
    fall below zero (the sign law), or the summed s*error is not the SAE.
    """
    n = ec.n
    # made[e][s] = [count, sum s*error, sum error^2, max s*error, min s*error, back-pointer]
    made: list[dict[int, list]] = [{} for _ in range(n)] + [{0: [1, 0, 0, 0, 0, None]}]
    tot = {0: [1, 0, 0]}  # per sign: the first three fields of all made states, read at k
    far = {0: (0, n)}  # per sign: the largest s*error of a made state, and its end
    near = {0: 0}  # per sign: the smallest s*error of a made state
    nu_plus, nu_minus = [0] * len(ec._ec), [0] * len(ec._ec)  # in the table's rank order
    for k in range(n - 1, -1, -1):
        # a 00 at k, or a generate closing an error-free chain, keeps the sign
        step = {s: [2 * x for x in tot[s]] + [far[s][0], near[s], (far[s][1], s, None)] for s in tot}
        base = _rank(n, k + 1, k + 1) - k - 1  # chain (k + 1, j) has rank base + j
        for j, w in enumerate(ec.row(k + 1), k + 1):
            if not w:
                continue
            sh, tally = j - 1 - k, [0, 0, 0]  # pairs per new sign, at [1] and [-1]
            for s, (c, a, q, hi, lo, _) in made[j].items():
                c, a, q = c << sh, a << sh, q << sh
                kept = step[s]  # these pairs close an erring chain instead
                kept[0], kept[1], kept[2] = kept[0] - c, kept[1] - a, kept[2] - q
                s2 = s or (1 if w > 0 else -1)
                v = s2 * w
                tally[s2] += c
                new = [c, a + v * c, q + 2 * w * s * a + w * w * c, hi + v, lo + v, (j, s, k + 1)]
                cur = step.setdefault(s2, new)
                if cur is not new:
                    cur[0], cur[1], cur[2] = cur[0] + c, cur[1] + new[1], cur[2] + new[2]
                    if new[3] > cur[3]:
                        cur[3], cur[5] = new[3], new[5]
                    if new[4] < cur[4]:
                        cur[4] = new[4]
            nu_plus[base + j], nu_minus[base + j] = tally[1] << 2 * k, tally[-1] << 2 * k
        made[k] = step
        for s, st in step.items():
            tot[s] = [2 * x + y for x, y in zip(tot.get(s, (0, 0, 0)), st)]
            if s not in far or st[3] > far[s][0]:
                far[s] = (st[3], k)
            near[s] = min(near.get(s, st[4]), st[4])
    if min(near.values()) < 0:
        raise ValueError(
            "chain-error table breaks the sign law: some pair's error has "
            "the opposite sign of its leftmost erring chain"
        )
    top, s = max((v, s) for s, (v, _) in far.items())  # ties prefer the positive side
    e, chains = far[s][1], []
    while s:
        e, s, i = made[e][s][5]  # a chain (i, e) closed there, or none
        if i is not None:
            chains.append(CarryChain(i, e))
    sae, sq = (sum(t[x] for t in tot.values()) for x in (1, 2))
    pairs = 1 << (2 * n)
    report = StatsReport(
        n, sae, Fraction(sae, pairs), Fraction(sq, pairs), top, ChainTally(ec, nu_plus), ChainTally(ec, nu_minus)
    )
    return report, ChainSet(n, tuple(chains))


def analyze_table(ec: ChainErrorTable) -> StatsReport:
    """Exact SAE/Er_avg, MSE, max |error| and the per-chain tallies of
    every erring chain, in O(n^2) from one scan over bit positions.

    Each pair's error takes the sign of its dominating (leftmost
    erring) chain in any table a conservative pseudo-adder realizes;
    the scan checks this and raises ``ValueError`` for a table that
    breaks it, where no exact SAE follows from the chain counts.
    """
    return _scan(ec)[0]


def er_avg_fast(ec: ChainErrorTable) -> StatsReport:
    """The :func:`analyze_table` report, under its expected-error name."""
    return analyze_table(ec)


def mse_fast(ec: ChainErrorTable) -> Fraction:
    """Mean squared error of the table, from :func:`analyze_table`."""
    return analyze_table(ec).mse
