import random
from fractions import Fraction

import numpy as np
import pytest

from pseudoadder import CarryChain, ChainErrorTable, InputPair, PairSweep, StatsReport, all_chains, nu_single
from pseudoadder.model import pair_word
from pseudoadder import sweep as sweep_module
from pseudoadder.sweep import pair_masks


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def membership8():
    """Cached per-chain membership arrays for n=8 (used by several suites)."""
    return chain_membership(8)


@pytest.fixture
def sweeps_built(monkeypatch):
    """``(pair_count, times)`` of every PairSweep built during the test."""
    built, init = [], PairSweep.__init__

    def spy(self, net, keep=None, masks=None, times=None):
        init(self, net, keep=keep, masks=masks, times=times)
        built.append((self.pair_count, times))

    monkeypatch.setattr(PairSweep, "__init__", spy)
    return built


@pytest.fixture
def blocks_built(monkeypatch):
    """``(block, width)`` of every lane block whose operand masks the engine built during the test."""
    built, build = [], sweep_module.operand_masks

    def spy(n, block, width):
        built.append((block, width))
        return build(n, block, width)

    monkeypatch.setattr(sweep_module, "operand_masks", spy)
    return built


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
            if p.a >> i - 1 & 1 and p.b >> i - 1 & 1:
                if all((p.a >> k & 1) != (p.b >> k & 1) for k in range(i, j)) and (p.a >> j & 1) == (p.b >> j & 1):
                    found.append(CarryChain(i, j))
    return found


def pair_index(p):
    return pair_word(p.a, p.b, p.n)


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


def random_netlist(n, rng):
    """Arbitrary gate DAG over the operand inputs (not an adder)."""
    from pseudoadder import Gate, GateKind, Netlist

    gates = [Gate(f"a{k}", GateKind.INPUT) for k in range(n)]
    gates += [Gate(f"b{k}", GateKind.INPUT) for k in range(n)]
    gates.append(Gate("zero", GateKind.CONST0))
    gates.append(Gate("one", GateKind.CONST1))
    pool = [g.id for g in gates]
    kinds = [
        GateKind.BUF,
        GateKind.NOT,
        GateKind.AND2,
        GateKind.OR2,
        GateKind.XOR2,
        GateKind.MAJ3,
    ]
    from pseudoadder.netlist import ARITY

    for x in range(rng.randint(6, 14)):
        kind = rng.choice(kinds)
        inputs = tuple(rng.choice(pool) for _ in range(ARITY[kind]))
        gid = f"g{x}"
        gates.append(Gate(gid, kind, inputs, rng.randint(0, 3)))
        pool.append(gid)
    outputs = {pos: rng.choice(pool) for pos in range(n + 1)}
    return Netlist(n, gates, outputs)


def is_realizable_error(value, c):
    """True when the value is a possible error of the chain (i, j): the
    shape that ``pseudoadder.tables`` draws from."""
    if value == 0:
        return True
    span = ((1 << c.j) - 1) ^ ((1 << c.i) - 1)  # bits i..j-1
    if value > 0:
        m = (1 << c.j) - value
        return m >= 0 and (m & ~span) == 0
    return (-value & ~span) == 0


# --- Joint-count closed forms, pinned against enumeration --------------
# Production statistics never call these; they document the joint
# counts behind the fast paths and the README's quoted-forms discussion.


def nu_pair(n, c1, c2):
    """Number of pairs generating both chains (0 when they overlap).

    Chains must be given in ascending order.  When the second chain
    starts right after the first ends, the shared boundary position is
    forced to 11; otherwise the first end keeps its two choices and the
    gap positions are free.
    """
    c1 = CarryChain(*c1).validate(n)
    c2 = CarryChain(*c2).validate(n)
    if c2.i <= c1.i:
        raise ValueError(f"chains must be in ascending order, got {c1}, {c2}")
    if c2.i <= c1.j:
        return 0
    boundary = 1 if c2.i == c1.j + 1 else 2 * 4 ** (c2.i - c1.j - 2)
    end = 1 if c2.j == n else 2 * 4 ** (n - 1 - c2.j)
    return 4 ** (c1.i - 1) * 2 ** (c1.j - c1.i) * boundary * 2 ** (c2.j - c2.i) * end


def count_dominated_pairs(n, ij, pq):
    """Pairs matching the joint condition table for a chain (i, j) and a
    leftmost chain (p, q) above it.

    The conditions: free below i-1, generate at i-1, propagate inside
    (i, j), two end choices at j (one when p = j+1 forces 11), free gap,
    generate at p-1, propagate inside (p, q), 00 at q, and no generate
    (three choices) above q.  For q = n the trailing rows are empty.
    """
    ij = CarryChain(*ij).validate(n)
    pq = CarryChain(*pq).validate(n)
    if not pq.i > ij.j:
        raise ValueError(f"need q >= p > j >= i, got {ij}, {pq}")
    i, j = ij
    p, q = pq
    middle = 1 if p == j + 1 else 2 * 4 ** (p - j - 2)
    tail = 1 if q == n else 3 ** (n - 1 - q)
    return 4 ** (i - 1) * 2 ** (j - i) * middle * 2 ** (q - p) * tail


def nonnegative_table(n, rng, density):
    """A realizable table whose erring chains all keep the ripple-carry
    sign: each misses its end bit, 2^j - m with m in bits i..j-1."""
    entries = {}
    for c in all_chains(n):
        if rng.random() < density:
            m = rng.getrandbits(c.j - c.i) << c.i if c.j > c.i else 0
            entries[c] = (1 << c.j) - m
    return ChainErrorTable(n, entries)


def er_avg_nonnegative(ec):
    """Er_avg of a table without negative entries: every pair's error is
    a sum of non-negative chain errors, so the absolute values distribute
    and each chain adds e * nu_single."""
    sae = sum(e * nu_single(ec.n, c) for c, e in ec.nonzero())
    return Fraction(sae, 1 << (2 * ec.n))


def condition_table_count(n, ij, pq, a=None, b=None):
    """Independent oracle for ``count_dominated_pairs``: enumerate pairs
    against the per-position condition table (free / generate /
    propagate / equal end / 00 end / no-generate tail).  ``a``, ``b``
    are ``operand_arrays(n)``, passed in to reuse them across calls."""
    if a is None:
        a, b = operand_arrays(n)
    i, j = ij
    p, q = pq
    ok = np.ones(1 << (2 * n), dtype=bool)
    for k in range(n):
        ak = ((a >> k) & 1).astype(bool)
        bk = ((b >> k) & 1).astype(bool)
        if k == i - 1 or k == p - 1:
            ok &= ak & bk
        elif i <= k < j or p <= k < q:
            ok &= ak ^ bk
        elif k == j:
            ok &= ~(ak ^ bk)
        elif k == q:
            ok &= ~ak & ~bk
        elif k > q:
            ok &= ~(ak & bk)
    return int(ok.sum())


# --- Earlier closed forms of the fast statistics, kept as references ----
# The library computes SAE, MSE, max |error| and the tallies in one
# position scan (``stats._scan``); these are the three separate
# quadratic DPs it replaced, pinned against enumeration in
# test_counting and compared with the scan in test_stats.

def suffix_counts(ec):
    """Classify suffix assignments by their dominating chain's sign, as
    ``(free, bounded)`` indexed by boundary t = 0..n.

    ``free[t]`` sums to 4^(n-t); ``bounded[t]`` sums to 2*4^(n-t-1) for
    t < n and to 1 for t = n.  Descending from t = n: a non-generate
    choice at t (3 ways) keeps the classification of the free suffix
    above; the generate choice (11) spawns a chain ending at the first
    equality position q, which claims the dominating slot only when
    nothing above q contributes an error and its own entry is nonzero.
    """
    n = ec.n
    free = [(0, 0, 0)] * n + [(0, 0, 1)]
    bounded = [(0, 0, 0)] * n + [(0, 0, 1)]
    for t in range(n - 1, -1, -1):
        gen_p = gen_m = gen_n = 0
        for q in range(t + 1, n + 1):
            ways = 1 << (q - t - 1)
            bp, bm, bn = bounded[q]
            e = ec.get(t + 1, q)
            if e > 0:
                bp, bn = bp + bn, 0
            elif e < 0:
                bm, bn = bm + bn, 0
            gen_p += ways * bp
            gen_m += ways * bm
            gen_n += ways * bn
        fp, fm, fn = free[t + 1]
        free[t] = (3 * fp + gen_p, 3 * fm + gen_m, 3 * fn + gen_n)
        bounded[t] = (fp + gen_p, fm + gen_m, fn + gen_n)
    return tuple(free), tuple(bounded)


def below_boundary_counts(ec):
    """Classify assignments below a chain-ending boundary position.

    ``result[m]`` counts assignments of positions 0..m-1, given that
    position m holds equal bits, by the sign of the dominating chain
    among chains ending at or below m.  Recurrence over d, the highest
    equality position below m: choosing 11 there spawns the chain
    (d+1, m); choosing 00 does not; all-unequal leaves no chain at all.
    """
    n = ec.n
    out = [(0, 0, 1)]
    for m in range(1, n + 1):
        acc_p = acc_m = 0
        acc_n = 1 << m  # every position below m unequal: no chain ends <= m
        for d in range(m):
            ways = 1 << (m - 1 - d)
            ep, em, en = out[d]
            # position d = 00: no chain ends at m, lower classes carry up
            acc_p += ways * ep
            acc_m += ways * em
            acc_n += ways * en
            # position d = 11: chain (d+1, m) exists
            e = ec.get(d + 1, m)
            if e > 0:
                acc_p += ways * 4**d
            elif e < 0:
                acc_m += ways * 4**d
            else:
                acc_p += ways * ep
                acc_m += ways * em
                acc_n += ways * en
        out.append((acc_p, acc_m, acc_n))
    return tuple(out)


def nu_signed_all(ec):
    """(nu_plus, nu_minus) for every chain, from the two class tables.

    For chain (i, j): a signed region above j always dominates; with
    nothing above, the chain itself dominates when its entry is nonzero;
    otherwise the sign comes from the chains below the generate (the
    zero-error tallies the library no longer reports).
    """
    _, bounded = suffix_counts(ec)
    below = below_boundary_counts(ec)
    result = {}
    for c in all_chains(ec.n):
        e = ec.get(*c)
        i, j = c
        low_free = 4 ** (i - 1)
        prop = 1 << (j - i)
        gp, gm, gn = bounded[j]
        plus = low_free * gp
        minus = low_free * gm
        if e > 0:
            plus += gn * low_free
        elif e < 0:
            minus += gn * low_free
        else:
            plus += gn * below[i - 1][0]
            minus += gn * below[i - 1][1]
        result[c] = (prop * plus, prop * minus)
    return result


def sae_counting(ec):
    """SAE from the signed tallies: each chain adds e * (nu_plus -
    nu_minus), exact for tables that obey the sign law."""
    signed = nu_signed_all(ec)
    return sum(e * (signed[c][0] - signed[c][1]) for c, e in ec.nonzero())


def mse_prefix(ec):
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


def max_abs_error_dag(ec):
    """Max |error| by longest and shortest paths on the compatibility DAG.

    In descending start order, the best path from a chain is its weight
    plus the best continuation after its end, or nothing when every
    continuation hurts; suffix extremes over start positions keep the
    pass quadratic.
    """
    n = ec.n
    # suffix_max[t] / suffix_min[t]: extreme path value over starts >= t
    suffix_max = [None] * (n + 2)
    suffix_min = [None] * (n + 2)
    for i in range(n, 0, -1):
        row_max = row_min = None
        for j in range(i, n + 1):
            w = ec.get(i, j)
            cont_max, cont_min = suffix_max[j + 1], suffix_min[j + 1]
            bmax = w + max(0, cont_max) if cont_max is not None else w
            bmin = w + min(0, cont_min) if cont_min is not None else w
            row_max = bmax if row_max is None else max(row_max, bmax)
            row_min = bmin if row_min is None else min(row_min, bmin)
        suffix_max[i] = row_max if suffix_max[i + 1] is None else max(row_max, suffix_max[i + 1])
        suffix_min[i] = row_min if suffix_min[i + 1] is None else min(row_min, suffix_min[i + 1])
    return max(-suffix_min[1], suffix_max[1])


# --- NumPy per-pair reference for the bit-sliced oracles ----------------
# Each pair is one array element, index ``a + (b << n)`` as in the sweep.


def reference_transpose(rows, width):
    """NumPy bit transpose: bit j of ``rows[i]`` becomes bit i of the
    j-th result, for j < width (the reference for ``sweep._transpose``)."""
    nbytes = (width + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    matrix = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    bits = np.unpackbits(matrix, axis=1, bitorder="little")[:, :width]
    cols = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in cols]


def operand_arrays(n):
    """Arrays of a and b per pair index (``idx = a + (b << n)``)."""
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    return idx & ((1 << n) - 1), idx >> n


def mask_to_bools(mask, count):
    """Unpack a lane mask into a boolean array of the given length."""
    raw = mask.to_bytes((count + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:count].astype(bool)


def sums_at(sweep, t):
    """Computed sums of every lane of a sweep at read time t, as int64."""
    s = np.zeros(sweep.pair_count, dtype=np.int64)
    for pos, mask in enumerate(sweep.output_masks_at(t)):
        if mask:
            s += mask_to_bools(mask, sweep.pair_count).astype(np.int64) << pos
    return s


def chain_membership(n):
    """For each chain, the boolean per-pair membership array."""
    a, b = operand_arrays(n)
    chains = all_chains(n)
    members = []
    for c in chains:
        m = ((a >> (c.i - 1)) & (b >> (c.i - 1)) & 1).astype(bool)
        for k in range(c.i, c.j):
            m &= (((a >> k) ^ (b >> k)) & 1).astype(bool)
        if c.j < n:
            m &= (((a >> c.j) ^ (b >> c.j)) & 1) == 0
        members.append(m)
    return chains, members


def oracle_report(n, totals, chains=None, members=None, ec=None):
    """StatsReport of per-pair signed errors; with chains, members and a
    table, also the dominating-sign tallies (last hit by ascending start
    wins)."""
    pairs = 1 << (2 * n)
    sae = int(np.abs(totals).sum(dtype=np.int64))
    sse = int((totals.astype(np.int64) ** 2).sum(dtype=np.int64))
    report = StatsReport(
        n=n,
        sae=sae,
        er_avg=Fraction(sae, pairs),
        mse=Fraction(sse, pairs),
        max_abs_error=int(np.abs(totals).max(initial=0)),
    )
    if chains is None:
        return report
    sign = np.zeros(len(totals), dtype=np.int8)
    for c, m in zip(chains, members):
        e = ec.get(c.i, c.j)
        if e:
            sign[m] = 1 if e > 0 else -1
    report.nu_plus = {c: int((m & (sign == 1)).sum()) for c, m in zip(chains, members)}
    report.nu_minus = {c: int((m & (sign == -1)).sum()) for c, m in zip(chains, members)}
    return report


def tallies_match(ec, fast, oracle):
    """The fast report tallies exactly the erring chains, and on those
    agrees with the oracle, which tallies every chain."""
    nz = [c for c, _ in ec.nonzero()]
    assert sorted(fast.nu_plus) == sorted(fast.nu_minus) == nz
    assert {c: oracle.nu_plus[c] for c in nz} == fast.nu_plus
    assert {c: oracle.nu_minus[c] for c in nz} == fast.nu_minus


def reference_oracle_chains(ec):
    """Per-pair reference for ``sae_oracle_chains``."""
    chains, members = chain_membership(ec.n)
    totals = np.zeros(1 << (2 * ec.n), dtype=np.int64)
    for c, m in zip(chains, members):
        totals[m] += ec.get(c.i, c.j)
    return oracle_report(ec.n, totals, chains, members, ec)


def reference_oracle_simulate(net, t):
    """Per-pair reference for ``sae_oracle_simulate``."""
    a, b = operand_arrays(net.n)
    sweep = PairSweep(net, keep=set(net.outputs.values()))
    return oracle_report(net.n, (a + b) - sums_at(sweep, t))


def reference_rule(net, t):
    """Per-pair reference for ``validity``'s rule at T: ``(leaving,
    mispredicted)`` over all pairs, or ``None`` when a chain probe leaves
    the model.  ``leaving`` counts the pairs whose read implies a carry
    above the true one or a stale bit 0.  ``mispredicted`` lists every
    other pair whose read differs from its true sum minus the table
    entries of its chains (``chains_by_scan``) as ``(a, b, k)``, k the
    lowest differing bit, ordered by k, then by pair word."""
    from pseudoadder import ConservativenessError, extract_ec_table

    try:
        ec = extract_ec_table(net, t)
    except ConservativenessError:
        return None
    n = net.n
    sums = sums_at(PairSweep(net, times=[t]), t)
    leaving, mispredicted = 0, []
    for word in range(1 << 2 * n):
        a, b = word & ((1 << n) - 1), word >> n
        s = int(sums[word])
        if (s ^ a ^ b) & ~((a + b) ^ a ^ b):  # the true carries; a stale bit 0 reads as a carry into 0
            leaving += 1
            continue
        diff = s ^ (a + b - sum(ec.get(*c) for c in chains_by_scan(InputPair(n, a, b))))
        if diff:
            mispredicted.append((a, b, (diff & -diff).bit_length() - 1))
    return leaving, sorted(mispredicted, key=lambda c: (c[2], pair_word(c[0], c[1], n)))


def reference_sample_words(n, samples, seed):
    """Reference for ``validity``'s sample below 4^n pairs: the first
    ``samples`` distinct pairs drawn from Random(seed), a then b (one
    rng.sample of words above half of them), then the new pairs among
    two witnesses each of ``samples`` shuffled chains, as lane words in
    batch order."""
    from pseudoadder.analysis import _random_witness

    rng = random.Random(seed)
    words = rng.sample(range(4**n), samples) if 2 * samples > 4**n else []
    while len(words) < samples:
        word = pair_word(rng.randrange(1 << n), rng.randrange(1 << n), n)
        if word not in words:
            words.append(word)
    chains = all_chains(n)
    rng.shuffle(chains)
    for c in 2 * chains[:samples]:
        word = _random_witness(c, n, rng)
        if word not in words:
            words.append(word)
    return words


def reference_sampled_validity(net, t, samples, seed):
    """Reference for ``validity(net, t, limit=0, samples, seed)`` below
    4^n samples, with the chain probes, the sample and a failing probe
    that the sample missed each simulated in a batch of its own: the
    table from ``extract_ec_table``, the sample's lanes counted in, then
    that probe's lane."""
    from pseudoadder import AssumptionReport, ConservativenessError, extract_ec_table
    from pseudoadder.chains import canonical_word

    report = AssumptionReport(net.n, t, seed)
    try:
        report.table = extract_ec_table(net, t)
    except ConservativenessError as exc:
        report.probe_error, failing = str(exc), exc.chain
    sample = PairSweep(net, masks=pair_masks(reference_sample_words(net.n, samples, seed), net.n), times=[t])
    report.add(sample)
    if report.table is None and report.conservative.passed:
        report.conservative.add(PairSweep(net, masks=pair_masks([canonical_word(failing, net.n)], net.n), times=[t]))
    return report
