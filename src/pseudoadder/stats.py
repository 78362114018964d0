"""Exact error statistics: brute-force oracles and fast chain algorithms.

The oracles enumerate all 2^(2n) input pairs, bit-sliced over the
all-pairs sweep's lanes: every pair's signed error is a bit of each of
a few two's-complement slice masks, O(n * 4^n / 8) bytes in all; a width
limit gates them.  The fast paths work from a chain-error table in
quadratic time and are exact for any table realizable by a conservative
pseudo-adder.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from fractions import Fraction

from .counting import nu_signed_all
from .maxerror import max_abs_error
from .model import CarryChain, ChainErrorTable, OracleLimitError, StatsReport
from .netlist import Netlist, Time
from .sweep import PairSweep, _index_bit_masks

DEFAULT_ORACLE_LIMIT = 10
ORACLE_LIMIT_ENV = "PSEUDOADDER_ORACLE_LIMIT"


def oracle_limit() -> int:
    """Width limit for exhaustive enumeration (env-overridable)."""
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    return int(raw) if raw else DEFAULT_ORACLE_LIMIT


def _check_oracle_width(n: int, force: bool) -> None:
    limit = oracle_limit()
    if n > limit and not force:
        raise OracleLimitError(
            f"exhaustive enumeration over 4^{n} pairs exceeds the width "
            f"limit {limit}; pass force=True or raise {ORACLE_LIMIT_ENV}"
        )


def _chain_masks(gen: list[int], prop: list[int]) -> Iterator[tuple[CarryChain, int]]:
    """Every chain with its lane mask, ascending (i, j): the generate
    mask at i-1, narrowed by one running propagate prefix per start and
    cut by an equal-bits end (none at j = n)."""
    n = len(gen)
    for i in range(1, n + 1):
        run = gen[i - 1]
        for j in range(i, n):
            yield CarryChain(i, j), run & ~prop[j]
            run &= prop[j]
        yield CarryChain(i, n), run


def _add_masked(d: list[int], m: int, e: int) -> None:
    """Add the constant e to the two's-complement slices d in the lanes
    of m, by a ripple carry (e > 0) or borrow (e < 0) that stops once
    it dies out; overflow past the top slice wraps."""
    v, c = abs(e), 0
    for k, x in enumerate(d):
        if not (v or c):
            break
        y = x if e > 0 else ~x
        if v & 1:
            d[k] = x ^ m ^ c
            c = m & (y | c)
        else:
            d[k] = x ^ c
            c &= y
        v >>= 1


def _slices_report(n: int, d: list[int], full: int) -> StatsReport:
    """SAE, MSE and max |error| of the per-lane signed errors held in the
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
    top, cand = 0, full
    for k in reversed(range(len(mag))):
        if cand & mag[k]:
            cand &= mag[k]
            top |= 1 << k
    pairs = 1 << (2 * n)
    return StatsReport(n, sae, Fraction(sae, pairs), Fraction(sse, pairs), top)


def sae_oracle_chains(ec: ChainErrorTable, force: bool = False) -> StatsReport:
    """Ground truth by enumerating pairs through chain detection.

    Every pair's error is the sum of its chains' table entries; the
    report also tallies, per chain, how many generating pairs fall under
    a positive or negative dominating chain.
    """
    n = ec.n
    _check_oracle_width(n, force)
    bits = _index_bit_masks(2 * n)
    gen = [bits[k] & bits[n + k] for k in range(n)]
    prop = [bits[k] ^ bits[n + k] for k in range(n)]
    del bits
    # a pair's chains end at distinct positions j, so this bounds |error|
    bound = sum(max(abs(ec.get(i, j)) for i in range(1, j + 1)) for j in range(1, n + 1))
    d = [0] * (bound.bit_length() + 1)
    # dominating sign per pair: chains by ascending start, so the last
    # error-contributing hit (largest start = leftmost) wins
    pos = neg = 0
    for c, m in _chain_masks(gen, prop):
        e = ec.get(c.i, c.j)
        if e:
            _add_masked(d, m, e)
            pos, neg = (pos | m, neg & ~m) if e > 0 else (pos & ~m, neg | m)
    report = _slices_report(n, d, (1 << (1 << (2 * n))) - 1)
    report.nu_plus, report.nu_minus = {}, {}
    for c, m in _chain_masks(gen, prop):
        report.nu_plus[c], report.nu_minus[c] = (m & pos).bit_count(), (m & neg).bit_count()
    return report


def sae_oracle_simulate(
    net: Netlist, t: Time, force: bool = False, sweep: PairSweep | None = None
) -> StatsReport:
    """Ground truth by simulating every pair; independent of the chain
    model (no per-chain tallies).  A prebuilt all-pairs ``sweep`` of
    ``net`` can be shared with other exhaustive checks."""
    n = net.n
    _check_oracle_width(n, force)
    if sweep is None:
        sweep = PairSweep(net, keep=set(net.outputs.values()), times=[t])
    elif sweep.net is not net or sweep.pair_count != 1 << (2 * n):
        raise ValueError("sae_oracle_simulate needs the all-pairs sweep of the same netlist")
    bit, c = sweep.operand_bit_mask, sweep.true_carry_masks()
    d, borrow = [], 0
    for k, y in enumerate(sweep.output_masks_at(t)):
        x = bit("a", k) ^ bit("b", k) ^ c[k] if k < n else c[n]  # true sum bit
        d.append(x ^ y ^ borrow)
        borrow = (~x & (y | borrow)) | (y & borrow)
    d.append(borrow)
    return _slices_report(n, d, sweep.full)


def er_avg_fast(ec: ChainErrorTable) -> StatsReport:
    """Expected absolute error in quadratic time, exactly.

    Each pair generating a chain adds the chain's error multiplied by
    the sign of that pair's dominating chain, so a chain contributes
    ``e * (nu_plus - nu_minus)``; valid for tables realizable by a
    conservative pseudo-adder (where the dominating chain fixes the
    error sign).
    """
    signed = nu_signed_all(ec)
    sae = sum(e * (signed[c][0] - signed[c][1]) for c, e in ec.nonzero())
    return StatsReport(
        ec.n, sae, Fraction(sae, 1 << (2 * ec.n)),
        nu_plus={c: plus for c, (plus, _) in signed.items()},
        nu_minus={c: minus for c, (_, minus) in signed.items()},
    )


def mse_fast(ec: ChainErrorTable) -> Fraction:
    """Mean squared error from single and joint chain counts, in O(n^2).

    Squares distribute over each pair's chain sum into per-chain squares
    plus cross terms over co-occurring chains, j1 < i2.  The joint count
    factorizes through the gap (j1, i2), so with ``L[j]`` the sum of
    ``e 4^(i-1) 2^(j-i)`` over chains ending at j and the prefix sum
    ``A[m] = 4 A[m-1] + L[m]``, chain 2's partners total
    ``L[i2-1] + 2 A[i2-2]``.
    """
    n, nz = ec.n, ec.nonzero()
    low = [0] * (n + 1)
    for (i, j), e in nz:
        low[j] += (e << (j - i)) * 4 ** (i - 1)
    acc = [0] * (n + 1)  # acc[m] = A[m-1]
    for m in range(1, n + 1):
        acc[m] = 4 * acc[m - 1] + low[m - 1]
    total = 0
    for (i, j), e in nz:
        end = 1 if j == n else 2 * 4 ** (n - 1 - j)
        partners = low[i - 1] + 2 * acc[i - 1]
        # e^2 nu_single, plus both orders of every cross term
        total += (e << (j - i)) * end * (e * 4 ** (i - 1) + 2 * partners)
    return Fraction(total, 1 << (2 * n))


def analyze_table(ec: ChainErrorTable) -> StatsReport:
    """Full fast-path report: SAE/Er_avg, MSE, max |error|, tallies."""
    report = er_avg_fast(ec)
    report.mse = mse_fast(ec)
    report.max_abs_error = max_abs_error(ec)[0]
    return report
