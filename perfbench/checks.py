"""Independent checkers for the benchmark's CLI outputs.

No reference number here comes from the fast path under test
(``extract_ec_table``, ``ec_table_sweep``, ``read_output``, the counting
DPs, ``mse_fast``, ``max_abs_error``); a witness that ``max_abs_error``
returns is only ever simulated.  The checkers build their reference
numbers from three sources:

* the event-driven reference simulator ``sim.simulate``, read straight
  from its transition lists;
* a transfer-matrix DP over bit positions that computes SAE, MSE and
  max |error| of a chain-error table exactly, and verifies the sign law
  (every pair's error has the sign of its leftmost erring chain) on the
  way instead of assuming it;
* exhaustive enumeration with NumPy over ``PairSweep`` sums for n <= 10.

Each checker returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from pseudoadder.model import InputPair
from pseudoadder.sim import simulate

#: standard errors allowed between a sampled mean and the exact statistic
SAMPLE_Z = 8
#: plus this many max-size errors spread over the sample: a rare large
#: error that a small sample happens to catch moves its mean that much
SAMPLE_SLACK = 4


def static_arrival(net) -> Fraction | int:
    """Latest output arrival over all paths: no gate changes after it
    under transport delay, so every read at or past it is quiescent."""
    arrival: dict[str, Fraction | int] = {}
    for gid in net.order:
        gate = net.by_id[gid]
        arrival[gid] = gate.delay + max((arrival[s] for s in gate.inputs), default=0)
    return max(arrival[gid] for gid in net.outputs.values())


def chains_of(n: int, a: int, b: int) -> list[tuple[int, int]]:
    """Carry chains (i, j) of one pair: generate at i-1, propagate
    through j-1, equal bits at j (position n always counts as equal)."""
    found = []
    k = 0
    while k < n:
        if (a >> k) & (b >> k) & 1:
            j = k + 1
            while j < n and ((a >> j) ^ (b >> j)) & 1:
                j += 1
            found.append((k + 1, j))
            k = j
        else:
            k += 1
    return found


def probe(n: int, i: int, j: int) -> InputPair:
    """The isolated pair of chain (i, j); its true sum is 2**j."""
    gen = 1 << (i - 1)
    return InputPair(n, gen | (((1 << j) - 1) & ~((1 << i) - 1)), gen)


def witness_pair(n: int, chains) -> InputPair:
    """A pair that generates exactly the given disjoint ascending chains."""
    a = b = 0
    for i, j in chains:
        p = probe(n, i, j)
        a |= p.a
        b |= p.b
    return InputPair(n, a, b)


def sums_at_times(trace, net, times: list) -> list[int]:
    """The output word of one simulated pair at each sorted read time."""
    events = sorted(
        (t, pos, v)
        for pos, gid in net.outputs.items()
        for t, v in trace.transitions[gid]
    )
    out = []
    word = 0
    k = 0
    for t in times:
        while k < len(events) and events[k][0] <= t:
            _, pos, v = events[k]
            word = word | (1 << pos) if v else word & ~(1 << pos)
            k += 1
        out.append(word)
    return out


def probe_tables(net, times: list, chains=None) -> dict:
    """Chain-error entries ``2**j - s'`` by simulating isolated probes.

    Returns ``{T: {(i, j): entry}}`` for the given chains (all chains by
    default); zero entries are dropped.
    """
    n = net.n
    chains = chains if chains is not None else [
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1)
    ]
    tables = {t: {} for t in times}
    for i, j in chains:
        words = sums_at_times(simulate(net, probe(n, i, j)), net, times)
        for t, word in zip(times, words):
            if (1 << j) != word:
                tables[t][(i, j)] = (1 << j) - word
    return tables


def sample_pairs(n: int, rng: random.Random, count: int) -> list[InputPair]:
    return [InputPair(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]


def simulated_errors(net, pairs: list[InputPair], times: list) -> dict:
    """``{T: [true sum - read sum per pair]}`` from the event simulator."""
    errors = {t: [] for t in times}
    for p in pairs:
        words = sums_at_times(simulate(net, p), net, times)
        for t, word in zip(times, words):
            errors[t].append(p.a + p.b - word)
    return errors


class ExactStats:
    """SAE, MSE and max |error| of a chain-error table over all 4^n pairs.

    Scans bit positions from the top down.  A state is the open chain
    end e (positions below e up to here all propagate) and the sign of
    the first erring chain met so far, which is the leftmost one.  Each
    state carries the pair count, the sums of the error and its square,
    and the extreme errors.  At the end, pairs in a positive state must
    all have error >= 0 and pairs in a negative state <= 0: that is the
    sign law, and with it the summed absolute error is exact.
    """

    def __init__(self, n: int, table: dict):
        self.n = n
        states = {(n, 0): (1, 0, 0, 0, 0)}
        for k in range(n - 1, -1, -1):
            nxt: dict = {}

            def add(key, cnt, s1, s2, hi, lo):
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (cnt, s1, s2, hi, lo)
                else:
                    nxt[key] = (
                        old[0] + cnt, old[1] + s1, old[2] + s2,
                        max(old[3], hi), min(old[4], lo),
                    )

            for (end, sign), (cnt, s1, s2, hi, lo) in states.items():
                add((end, sign), 2 * cnt, 2 * s1, 2 * s2, hi, lo)  # 01, 10
                add((k, sign), cnt, s1, s2, hi, lo)  # 00
                w = table.get((k + 1, end), 0)  # 11 closes chain (k+1, end)
                if w:
                    add(
                        (k, sign or (1 if w > 0 else -1)),
                        cnt, s1 + w * cnt, s2 + 2 * w * s1 + w * w * cnt, hi + w, lo + w,
                    )
                else:
                    add((k, sign), cnt, s1, s2, hi, lo)
            states = nxt

        pairs = 1 << (2 * n)
        self.pairs_counted = sum(v[0] for v in states.values())
        self.sign_law = all(
            (sign > 0 and lo >= 0) or (sign < 0 and hi <= 0) or (sign == 0 and hi == lo == 0)
            for (_, sign), (_, _, _, hi, lo) in states.items()
        )
        self.sae = sum(sign * s1 for (_, sign), (_, s1, _, _, _) in states.items())
        self.er_avg = Fraction(self.sae, pairs)
        self.mse = Fraction(sum(v[2] for v in states.values()), pairs)
        self.max_abs = max(max(v[3], -v[4]) for v in states.values())

    def problems(self) -> list[str]:
        out = []
        if self.pairs_counted != 1 << (2 * self.n):
            out.append(f"DP counted {self.pairs_counted} pairs, expected 4^{self.n}")
        if not self.sign_law:
            out.append("sign law fails: some pair's error has the opposite sign of its leftmost erring chain")
        return out


def exact_row(t, n: int, table: dict) -> tuple[dict, list[str]]:
    """The ``sweep``/``stats --sweep-T`` row the CLI should print."""
    ex = ExactStats(n, table)
    return {
        "T": str(t),
        "sae": ex.sae,
        "er_avg_num": ex.er_avg.numerator,
        "er_avg_den": ex.er_avg.denominator,
        "er_avg": float(ex.er_avg),
        "mse_num": ex.mse.numerator,
        "mse_den": ex.mse.denominator,
        "mse": float(ex.mse),
        "max_abs_error": ex.max_abs,
    }, ex.problems()


def check_claims(
    label: str,
    er_avg: Fraction,
    mse: Fraction,
    max_abs: int,
    errors: list[int],
    at_quiescence: bool,
) -> list[str]:
    """Bounds and sampled means that any exact report must satisfy.

    ``errors`` are simulated errors of uniformly sampled pairs.  The
    standard error of the mean |error| is exact from the report's own
    variance, mse - er_avg^2; that of the mean squared error is bounded
    using e^4 <= max^2 e^2, so Var(e^2) <= max^2 mse.  Both tolerances
    add ``SAMPLE_SLACK`` max-size terms per sample.
    """
    out = []
    if not er_avg * er_avg <= mse <= max_abs * max_abs:
        out.append(f"{label}: er_avg^2 <= mse <= max^2 fails ({er_avg}, {mse}, {max_abs})")
    worst = max((abs(e) for e in errors), default=0)
    if worst > max_abs:
        out.append(f"{label}: sampled |error| {worst} exceeds max_abs_error {max_abs}")
    if at_quiescence and (er_avg or mse or max_abs or worst):
        out.append(f"{label}: nonzero statistics at or past the static arrival time")
    if errors:
        count = len(errors)
        mean_abs = Fraction(sum(abs(e) for e in errors), count)
        mean_sq = Fraction(sum(e * e for e in errors), count)
        var_abs = max(mse - er_avg * er_avg, 0)
        tol_abs = SAMPLE_Z * math.sqrt(var_abs / count) + SAMPLE_SLACK * max_abs / count
        tol_sq = SAMPLE_Z * max_abs * math.sqrt(mse / count) + SAMPLE_SLACK * max_abs**2 / count
        if abs(mean_abs - er_avg) > tol_abs:
            out.append(f"{label}: sampled mean |error| {float(mean_abs)} is too far from er_avg {float(er_avg)}")
        if abs(mean_sq - mse) > tol_sq:
            out.append(f"{label}: sampled mean error^2 {float(mean_sq)} is too far from mse {float(mse)}")
    return out


def check_decomposition(label: str, n: int, table: dict, pairs, errors) -> list[str]:
    """Each simulated error equals the sum of its chains' table entries."""
    out = []
    for p, e in zip(pairs, errors):
        predicted = sum(table.get(c, 0) for c in chains_of(n, p.a, p.b))
        if predicted != e:
            out.append(f"{label}: pair ({p.a}, {p.b}) simulates error {e}, chains sum to {predicted}")
            break
    return out


def check_witness(label: str, net, t, max_abs: int, witness) -> list[str]:
    """The max-error witness chain set, simulated, reaches max |error|."""
    if max_abs == 0:
        return []
    p = witness_pair(net.n, [(c[0], c[1]) for c in witness])
    if chains_of(net.n, p.a, p.b) != [(c[0], c[1]) for c in witness]:
        return [f"{label}: witness {list(witness)} is not a valid chain set"]
    e = p.a + p.b - sums_at_times(simulate(net, p), net, [t])[0]
    if abs(e) != max_abs:
        return [f"{label}: witness pair simulates |error| {abs(e)}, report says {max_abs}"]
    return []


def exhaustive_sums(sweep, t) -> np.ndarray:
    """Computed sums of all 4^n pairs at T from the all-pairs waveforms."""
    n = sweep.n
    total = np.zeros(1 << (2 * n), dtype=np.int64)
    for pos, gid in sorted(sweep.net.outputs.items()):
        mask = sweep.waveform(gid).at(t)
        raw = np.frombuffer(mask.to_bytes((len(total) + 7) // 8, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: len(total)]
        total += bits.astype(np.int64) << pos
    return total


def exhaustive_report(n: int, sums: np.ndarray) -> dict:
    """Exact statistics and conservativeness straight from every pair."""
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    a, b = idx & ((1 << n) - 1), idx >> n
    err = a + b - sums
    true_carries = (a + b) ^ a ^ b
    read_carries = sums ^ a ^ b
    spurious = (read_carries & ~true_carries) != 0  # includes a stale bit 0
    pairs = 1 << (2 * n)
    return {
        "sae": int(np.abs(err).sum()),
        "mse": Fraction(int((err * err).sum()), pairs),
        "max_abs": int(np.abs(err).max()),
        "violations": int(spurious.sum()),
    }
