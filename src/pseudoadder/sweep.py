"""Lane-parallel timed simulation: the production simulation engine.

A *lane* is one input pair.  Each signal's value at a point in time is
one integer with a bit per lane, so gate logic over every lane is plain
integer bitwise algebra and transport delays turn into waveform time
shifts.  One pass over the gates in topological order yields, for every
gate, the full list of ``(time, lane-mask)`` changes: the exact aggregate
of what the event-driven simulator :func:`pseudoadder.sim.simulate`
produces pair by pair (the test suite checks that, gate by gate).

A sweep takes its lanes as operand masks (a's and b's bit masks and the
lane count) from a builder.  :func:`operand_masks` builds lane block k
of width w: the 4^w pairs whose top n - w bits of a and b are k's low
and high halves, at lane ``a_lo + (b_lo << w)`` for their low w bits;
block (0, n), the default, is all 4^n pairs at lane ``a + (b << n)``.
:func:`lane_blocks` splits all pairs into blocks of ``BLOCK_BITS`` bits,
so an exhaustive check holds 8 KB masks at any n, where all pairs at
once take 4^n / 8 bytes per mask, 2 MB at the widest (n=12).
:func:`pair_masks` builds a batch of pairs and :func:`probe_masks` the
chain probes, in closed form, above any batch.  :func:`read_carries` is
the one validity rule of the carry-chain model, applied to lane masks.

A sweep built for given read times answers only at them.  It stops at the
last one (exact under transport delays) and keeps one mask per output and
time: 11 masks for the unit-delay RCA-10 read at one T, not its 65 whole
waveforms.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import chain, repeat

from .netlist import Gate, Netlist, SOURCE_KINDS, Time, as_time, evaluate_gate


def _doubling_masks(bits: int) -> tuple[int, ...]:
    """Mask p over 2^bits lanes has lane idx set iff idx has bit p set,
    built by doubling a one-period block."""
    lanes = 1 << bits
    masks = []
    for p in range(bits):
        run = 1 << p
        mask, width = ((1 << run) - 1) << run, 2 * run
        while width < lanes:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


BLOCK_BITS = 8  # operand bits of a lane block: 4^8 lanes, so a mask is 8 KB
WIDEST_BLOCK_BITS = 12  # the widest block a sweep builds: 4^12 lanes, so a mask is 2 MB

# built once per process for each lane-block width, and shared by every
# block of it (at width BLOCK_BITS, 16 masks of 8 KB); a wider all-pairs
# sweep builds its own, which are freed with it
_index_bit_masks = cache(_doubling_masks)


def lane_blocks(n: int) -> Iterator[tuple[int, int]]:
    """``(block, width)`` of the lane blocks that together hold all 4^n
    pairs: width ``min(n, BLOCK_BITS)``, blocks 0..4^(n - width) - 1."""
    width = min(n, BLOCK_BITS)
    return ((k, width) for k in range(1 << 2 * (n - width)))


def operand_masks(n: int, block: int, width: int) -> tuple[list[int], list[int], int]:
    """The lanes of lane block ``(block, width)``: its 4^width lanes' masks of a's and of b's bits
    0..n-1, the low ``width`` bits doubling masks, each fixed high bit 0 or every lane.  A block
    that does not exist at n, or is wider than ``WIDEST_BLOCK_BITS``, raises ValueError first."""
    if not (0 <= width <= n and 0 <= block < 1 << 2 * (n - width)):
        raise ValueError(f"no lane block {(block, width)} at n={n}")
    if width > WIDEST_BLOCK_BITS:
        raise ValueError(f"a lane block of width {width} is wider than {WIDEST_BLOCK_BITS} bits")
    low = (_index_bit_masks if width <= BLOCK_BITS else _doubling_masks)(2 * width)
    full = (1 << (1 << 2 * width)) - 1
    high = [full if block >> x & 1 else 0 for x in range(2 * (n - width))]
    return [*low[:width], *high[: n - width]], [*low[width:], *high[n - width :]], 1 << 2 * width


def block_sweeps(net: Netlist, times: list[Time]) -> Iterator[PairSweep]:
    """One sweep answering at ``times`` per lane block of all 4^n pairs, each built only when the
    consumer asks for it, so a consumer that drops each block holds one block's masks at a time."""
    return (PairSweep(net, masks=operand_masks(net.n, *block), times=times) for block in lane_blocks(net.n))


def pair_masks(words: list[int], n: int) -> tuple[list[int], list[int], int]:
    """The lanes of a batch of pairs: lane k is the pair packed in ``words[k]`` by
    :func:`~pseudoadder.model.pair_word`, duplicates allowed; a word outside ``[0, 4^n)`` raises ValueError."""
    if words and not (min(words) >= 0 and max(words) < 1 << 2 * n):
        raise ValueError(f"width mismatch: a pair word is outside [0, 4^{n}) for netlist n={n}")
    sources = _transpose(words, 2 * n)
    return sources[:n], sources[n:], len(words)


def probe_masks(n: int, below: tuple[list[int], list[int], int] | None = None) -> tuple[list[int], list[int], int]:
    """The lanes of ``below`` (default: none), then in rank order the chain probes, the pairs of
    :func:`~pseudoadder.chains.canonical_word`, in closed form: start i's probes are one run of lanes,
    j = i..n; ``b_{i-1}`` is that run, and ``a_k`` is ``b_k`` plus, in each run with i <= k, the lanes with j > k."""
    a, b, count = below or ([0] * n, [0] * n, 0)
    a, b, ends = [*a], [*b], 0  # ends: the last lane of each run so far
    for k, run in enumerate(range(n, 0, -1)):  # run: the lane count of start k + 1
        ends |= 1 << count + run - 1
        b[k] |= (1 << run) - 1 << count
        firsts = ends >> run - 1  # lane j = k + 1 of each run so far
        a[k] |= (firsts << run) - firsts
        count += run
    return a, b, count


TRANSPOSE_ROWS = 512  # rows, and columns, per string of _transpose


def _transpose(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of ``rows[i]`` becomes bit i of the
    j-th result, for j < width.  Every row must be below ``2**width``.

    No string exceeds ``TRANSPOSE_ROWS ** 2`` digits, however many rows
    (pair words) or columns (output masks): wider rows are cut into
    column bands, ``r >> lo & part``, whose columns are joined in order,
    and a band's rows are taken in chunks, last chunk first.  A chunk,
    last row first, is written as one string of ``width``-digit binary
    numerals; column j's part is every width-th digit from offset
    ``width - 1 - j``, read in base 2."""
    if width > TRANSPOSE_ROWS:
        part = (1 << TRANSPOSE_ROWS) - 1
        return list(chain.from_iterable(
            _transpose([r >> lo & part for r in rows], min(TRANSPOSE_ROWS, width - lo))
            for lo in range(0, width, TRANSPOSE_ROWS)))
    spec, cols = f"0{width}b", [0] * width
    for start in reversed(range(0, len(rows), TRANSPOSE_ROWS)):
        digits = "".join(map(format, reversed(rows[start : start + TRANSPOSE_ROWS]), repeat(spec)))
        low = [int(digits[k::width], 2) for k in reversed(range(width))]
        cols = low if start + TRANSPOSE_ROWS >= len(rows) else [c << TRANSPOSE_ROWS | x for c, x in zip(cols, low)]
    return cols


def _gate_steps(
    gate: Gate, ins: list[list[tuple[Time, int]]], full: int, horizon: Time | float
) -> list[tuple[Time, int]]:
    """Output changes of one gate up to ``horizon``: evaluate at t=0 and
    at every input change, walking the inputs' step lists with one pointer
    each, and shift each change of value by the gate delay."""
    times = sorted({0}.union(*([t for t, _ in steps] for steps in ins)))
    ptr = [0] * len(ins)
    vals = [0] * len(ins)
    out: list[tuple[Time, int]] = []
    prev = 0
    for t in times:
        if t + gate.delay > horizon:
            break
        for x, steps in enumerate(ins):
            k = ptr[x]
            if k < len(steps) and steps[k][0] == t:
                vals[x] = steps[k][1]
                ptr[x] = k + 1
        v = evaluate_gate(gate.kind, vals, full)
        if v != prev:
            out.append((t + gate.delay, v))
            prev = v
    return out


def read_carries(
    s: list[int], a: list[int], b: list[int], c: list[int]
) -> tuple[list[int], list[int]]:
    """The carry-chain model's validity rule, over lane masks.

    ``s`` holds the read sum bits s'_0..s'_n, ``a`` and ``b`` the operand
    bits of positions 0..n-1 (bit n of both is 0), and ``c`` the true
    carries c_0..c_n.  Returns ``(c_prime, bad)``: the carries the read
    implies, ``c'_k = s'_k ^ a_k ^ b_k`` for k = 1..n with ``c'_0 = 0``,
    and per position the lanes that leave the model: ``bad[0]`` a stale
    position-0 bit (``s'_0 != a_0 ^ b_0``, an error no chain can own) and
    ``bad[k]`` a spurious carry (``c'_k > c_k``).
    """
    n = len(a)
    c_prime = [0]
    bad = [s[0] ^ a[0] ^ b[0]]
    for k in range(1, n + 1):
        ck = s[k] ^ a[k] ^ b[k] if k < n else s[k]
        c_prime.append(ck)
        bad.append(ck & ~c[k])
    return c_prime, bad


class Waveform:
    """Piecewise-constant mask over time: ``(time, mask)`` changes, each to a new mask, from 0 at the start."""

    __slots__ = ("steps", "times")

    def __init__(self, steps: list[tuple[Time, int]]):
        self.steps, self.times = steps, [t for t, _ in steps]

    def at(self, t: Time) -> int:
        k = bisect_right(self.times, t)
        return self.steps[k - 1][1] if k else 0


def _sampled(samples: list[tuple[Time, int]]) -> Waveform:
    """The waveform of ``(time, mask)`` samples, each sample that keeps the mask before it dropped."""
    return Waveform([x for x, before in zip(samples, [(0, 0), *samples]) if x[1] != before[1]])


class PairSweep:
    """Waveforms of a netlist's gates over a batch of lanes.

    ``masks = (a, b, count)`` gives the lanes, from :func:`operand_masks`
    (by default all 4^n pairs, lane ``a + (b << n)``), :func:`pair_masks`
    or :func:`probe_masks`.  The operand masks alone hold the layout:
    :meth:`lane_pair` reads a lane's pair from them.  Only the sum outputs
    and the gates in ``keep`` (default: none) keep their waveforms; any
    other waveform is freed as soon as its last fanout has read it.

    ``times`` (default: the whole history) lists the only read times the
    sweep answers; any other read and :meth:`output_change_times` raise
    ValueError.  Gates are simulated up to the last one (exact: with
    transport delays an output at tau depends only on inputs at tau - d);
    kept waveforms hold just those samples.  Read times, here and at a
    read, go through :func:`~pseudoadder.netlist.as_time`: 0.3 reads at 3/10.
    """

    def __init__(self, net: Netlist, keep: set[str] | None = None,
                 masks: tuple[list[int], list[int], int] | None = None, times: list[Time] | None = None):
        self.net = net
        self._reads = None if times is None else frozenset(map(as_time, times))
        reads = sorted(self._reads or ())
        horizon = float("inf") if times is None else max(reads, default=0)
        self.n = n = net.n
        self._a, self._b, self.pair_count = masks or operand_masks(n, 0, n)
        self.full = (1 << self.pair_count) - 1
        self._carries: list[int] | None = None
        wanted = set(net.outputs.values()).union(keep or ())

        unread = Counter(chain.from_iterable(g.inputs for g in net.gates))  # a duplicate input twice
        live: dict[str, list[tuple[Time, int]]] = {}
        self._wf: dict[str, Waveform] = {}
        for gid in net.order:
            gate = net.by_id[gid]
            if gate.kind in SOURCE_KINDS:
                mask = net.source_value(gate, self.operand_bit_mask, self.full)
                steps = [(0, mask)] if mask else []
            else:
                steps = _gate_steps(gate, [live[s] for s in gate.inputs], self.full, horizon)
                for s in gate.inputs:
                    unread[s] -= 1
                    if not unread[s]:
                        del live[s]
            if unread[gid]:
                live[gid] = steps
            if gid in wanted:
                wf = Waveform(steps)
                self._wf[gid] = wf if times is None else _sampled([(t, wf.at(t)) for t in reads])

    def waveform(self, gate_id: str) -> Waveform:
        return self._wf[gate_id]

    def lanes(self, lo: int, hi: int) -> PairSweep:
        """Lanes lo..hi-1 as a sweep of their own at the same read times, cut without simulating again."""
        if not 0 <= lo <= hi <= self.pair_count:
            raise ValueError(f"no lanes {lo}..{hi} in a sweep of {self.pair_count}")
        part, sub = (1 << hi - lo) - 1, PairSweep.__new__(PairSweep)
        cut = {gid: _sampled([(t, v >> lo & part) for t, v in wf.steps]) for gid, wf in self._wf.items()}
        sub.__dict__.update(vars(self), pair_count=hi - lo, full=part, _carries=None, _wf=cut)
        sub._a, sub._b = ([m >> lo & part for m in masks] for masks in (self._a, self._b))
        return sub

    def lane_pair(self, lane: int) -> tuple[int, int]:
        """The operands ``(a, b)`` of one lane: its bit of each operand mask."""
        a, b = (sum((m >> lane & 1) << k for k, m in enumerate(masks)) for masks in (self._a, self._b))
        return a, b

    def output_change_times(self) -> list[Time]:
        """Sorted times at which any sum bit changes in any lane."""
        if self._reads is not None:
            raise ValueError("output_change_times needs the whole history; this sweep was built for given read times")
        times: set[Time] = {0}
        for gid in self.net.outputs.values():
            times.update(self._wf[gid].times)
        return sorted(times)

    def output_masks_at(self, t: Time) -> list[int]:
        """One lane mask per sum position 0..n at read time t."""
        t = as_time(t)
        if self._reads is not None and t not in self._reads:
            raise ValueError(f"read time {t} is not one of this sweep's read times")
        return [self._wf[self.net.outputs[pos]].at(t) for pos in range(self.n + 1)]

    def lane_sums(self, t: Time) -> list[int]:
        """The computed sum s' of every lane at read time t."""
        return _transpose(self.output_masks_at(t), self.pair_count)

    def carries_at(self, t: Time) -> tuple[list[int], list[int]]:
        """``(c_prime, bad)`` masks of :func:`read_carries` at read time t."""
        return read_carries(self.output_masks_at(t), self._a, self._b, self.true_carry_masks())

    def operand_bit_mask(self, operand: str, k: int) -> int:
        return (self._a if operand == "a" else self._b)[k]

    def true_carry_masks(self) -> list[int]:
        """Masks of the correct carries c_0..c_n over all lanes."""
        if self._carries is None:
            carries, c = [0], 0
            for ak, bk in zip(self._a, self._b):
                c = (ak & bk) | (ak & c) | (bk & c)
                carries.append(c)
            self._carries = carries
        return self._carries

