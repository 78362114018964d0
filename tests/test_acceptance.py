"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success).  Tolerances are zero everywhere except the two wall
clock bounds, which are absolute seconds.
"""

import functools
import random
import time
from pathlib import Path

import numpy as np

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    ConservativeReport,
    InputPair,
    KsaDelays,
    decompose_error,
    detect_chains,
    dominating_chain,
    ec_table_sweep,
    er_avg_fast,
    extract_ec_table,
    generate_ksa,
    generate_rca,
    iter_chain_sets,
    max_abs_error,
    mse_fast,
    nu_single,
    random_realizable_table,
    sae_oracle_chains,
    simulate,
    staggered_ksa8,
    staggered_ksa8_delays,
    witness_for_chain_set,
    ChainSet,
)
from pseudoadder.sweep import PairSweep
from conftest import (
    chain_membership,
    condition_table_count,
    count_dominated_pairs,
    er_avg_nonnegative,
    exhaustive_pairs,
    nu_pair,
    operand_arrays,
    sums_at,
    tallies_match,
    traced_sum,
)


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")

        return run

    return wrap


@criterion("worked-example arithmetic (86 + 59, chains +16 and -96)")
def test_worked_example_arithmetic():
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    p = InputPair(8, 86, 59)

    def compute():
        total, _ = decompose_error(p, ec)
        dom = dominating_chain(p, ec)
        return total, dom

    total, dom = compute()
    assert total == -80
    assert abs(total) == 80
    assert dom == CarryChain(5, 7)
    # the sign of the total equals the sign of the dominating chain's error
    assert (total < 0) and (ec.get(dom.i, dom.j) < 0)
    assert -1 * ec.get(5, 7) + -1 * ec.get(2, 4) == 80

    best = min(
        _timed(compute) for _ in range(200)
    )
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion("signed-count assembly: ec=-6 meeting dominators (+,-,+)")
def test_example_assembly():
    # the chain's term in the SAE is e * (nu_plus - nu_minus)
    parts = [(1, 13), (-1, -14), (1, 15)]
    for sign, other in parts:
        assert abs(-6 + other) == sign * -6 + sign * other
    sae = sum(sign * other for sign, other in parts) + (-6) * (2 - 1)
    assert sae == 7 + 20 + 9
    # er_avg_fast assembles its SAE from exactly these per-chain terms
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    report = er_avg_fast(ec)
    assert report.sae == sum(
        e * (report.nu_plus[c] - report.nu_minus[c]) for c, e in ec.nonzero()
    )


@criterion("oracle equivalence: fast paths exact on n in {2,4,6,8}, 50+ tables each")
def test_oracle_equivalence():
    rng = random.Random(20240601)
    for n in (2, 4, 6, 8):
        for _ in range(50):
            ec = random_realizable_table(n, rng, density=rng.choice([0.3, 0.6, 1.0]))
            oracle = sae_oracle_chains(ec)
            fast = er_avg_fast(ec)
            assert fast.sae == oracle.sae
            assert fast.er_avg == oracle.er_avg
            assert mse_fast(ec) == oracle.mse
            assert max_abs_error(ec)[0] == oracle.max_abs_error
            tallies_match(ec, fast, oracle)


@criterion("ripple-carry non-negativity: 100+ module-delay assignments, all entries >= 0")
def test_rca_chain_errors_nonnegative():
    # Per-stage (module) delays: the stage's sum XOR and carry gate share
    # one delay.  Independently random sum-gate delays can legally produce
    # negative entries (see test_analysis.py); the non-negativity
    # guarantee is about module-granular overclocking.
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 8)
        mods = [rng.randint(0, 4) for _ in range(n)]
        net = generate_rca(n, mods, mods + [rng.randint(0, 4)])
        t = rng.randint(0, sum(mods) + 4)
        ec = extract_ec_table(net, t)
        assert all(v >= 0 for _, v in ec.nonzero()), (n, mods, t, ec.nonzero())
        assert er_avg_fast(ec).er_avg == er_avg_nonnegative(ec)
        checked += 1
    for _ in range(60):
        n = rng.randint(2, 8)
        d = rng.randint(0, 3)
        net = generate_rca(n, [rng.randint(0, 4) for _ in range(n)], [d] * (n + 1))
        t = rng.randint(0, 4 * n + 4)
        ec = extract_ec_table(net, t)
        assert all(v >= 0 for _, v in ec.nonzero()), (n, t, ec.nonzero())
        assert er_avg_fast(ec).er_avg == er_avg_nonnegative(ec)
        checked += 1
    assert checked >= 100


def _random_ksa_delays(rng):
    return KsaDelays(
        pg=tuple(rng.randint(0, 3) for _ in range(8)),
        prefix=tuple(
            tuple(rng.randint(0, 4) for _ in range(8)) for _ in range(3)
        ),
        sums=tuple(rng.randint(0, 3) for _ in range(9)),
    )


@criterion("dominating-sign law on 20+ Kogge-Stone configs, exhaustive 65536 pairs per read")
def test_dominating_sign_law_on_ksa():
    rng = random.Random(1202)
    chains, members = chain_membership(8)
    a, b = operand_arrays(8)
    s_true = a + b
    configs = [staggered_ksa8_delays(), KsaDelays.uniform(8, 1)]
    configs += [_random_ksa_delays(rng) for _ in range(18)]
    for delays in configs:
        net = generate_ksa(8, delays)
        sweep = PairSweep(net, keep=set(net.outputs.values()))
        quiescence = int(sweep.output_change_times()[-1])
        settle = max(
            int(delays.pg[k]) + int(delays.sums[k]) for k in range(8)
        )
        times = list(range(0, quiescence + 1))
        tables = dict(ec_table_sweep(net, times))
        valid_reads = 0
        for t in times:
            check = ConservativeReport(read_time=t)
            check.add(sweep)  # the whole-history sweep answers at every t
            conservative = check.passed
            if t >= settle:
                # once every sum gate reflects its propagate bit, reads
                # stay inside the model
                assert conservative, (delays, t)
            if not conservative:
                continue
            valid_reads += 1
            ec = tables[t]
            totals = np.zeros(65536, dtype=np.int64)
            sign = np.zeros(65536, dtype=np.int8)
            for c, m in zip(chains, members):
                e = ec.get(c.i, c.j)
                if e:
                    totals[m] += e
                    sign[m] = 1 if e > 0 else -1
            diff = s_true - sums_at(sweep, t)
            # every pair's error decomposes into its chains' errors...
            assert np.array_equal(diff, totals)
            # ...and every erring pair's sign is its dominating chain's sign
            erring = diff != 0
            assert np.array_equal(
                np.sign(diff[erring]).astype(np.int8), sign[erring]
            )
        assert valid_reads >= 1


@criterion("path/chain-set bijection and exact max |error| (n <= 5)")
def test_chain_set_path_bijection_and_max_error():
    rng = random.Random(55)
    for n in (1, 2, 3, 4, 5):
        paths = set(iter_chain_sets(n))
        realized = {
            tuple(detect_chains(p))
            for p in exhaustive_pairs(n)
            if len(detect_chains(p))
        }
        assert realized == paths
        for path in paths:
            witness = witness_for_chain_set(ChainSet(n, path))
            assert tuple(detect_chains(witness)) == path
        for _ in range(30):
            ec = random_realizable_table(n, rng, density=0.7)
            value, _ = max_abs_error(ec)
            by_pairs = max(
                abs(decompose_error(p, ec)[0]) for p in exhaustive_pairs(n)
            )
            assert value == by_pairs


@criterion("pair counts match condition-table enumeration (n in {4,6,8})")
def test_count_validation():
    for n in (4, 6, 8):
        chains, members = chain_membership(n)
        for c, m in zip(chains, members):
            assert nu_single(n, c) == int(m.sum())
        for x, c1 in enumerate(chains):
            for y, c2 in enumerate(chains):
                if c2.i > c1.i:
                    assert nu_pair(n, c1, c2) == int((members[x] & members[y]).sum())
        a, b = operand_arrays(n)
        quoted_mismatch = {"q=n": set(), "q<n": set()}
        for ij in chains:
            for pq in chains:
                if pq.i <= ij.j:
                    continue
                got = count_dominated_pairs(n, ij, pq)
                assert got == condition_table_count(n, ij, pq, a, b)
                i, j = ij
                p, q = pq
                quoted_4 = 4 ** ((p - 1) - (j - i + 1))
                if q == n:
                    quoted = 2 ** (n - p) * 2 ** (j - i) * quoted_4
                    quoted_mismatch["q=n"].add(quoted // got)
                else:
                    quoted = 3 ** (n - q + 1) * 2 ** (q - p) * 2 ** (j - i) * quoted_4
                    quoted_mismatch["q<n"].add(quoted // got)
        # documented discrepancy of the quoted closed forms (see README)
        assert quoted_mismatch["q=n"] <= {1, 2}
        assert quoted_mismatch["q<n"] <= {9, 18}


@criterion("scaling: expected-error fast path under 1 s at n=64, under 10 s at n=128")
def test_scaling():
    rng = random.Random(2)
    ec64 = random_realizable_table(64, rng, density=1.0)
    start = time.perf_counter()
    er_avg_fast(ec64)
    t64 = time.perf_counter() - start
    assert t64 < 1.0, f"n=64 took {t64:.3f}s"

    ec128 = random_realizable_table(128, rng, density=1.0)
    start = time.perf_counter()
    er_avg_fast(ec128)
    t128 = time.perf_counter() - start
    assert t128 < 10.0, f"n=128 took {t128:.3f}s"


@criterion("scaling: exact MSE of a full 128-bit table under 1 s")
def test_mse_scaling():
    ec = random_realizable_table(128, random.Random(3), density=1.0)
    start = time.perf_counter()
    mse_fast(ec)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"n=128 MSE took {elapsed:.3f}s"


@criterion("scaling: chain-enumeration oracle over all 4^10 pairs under 0.5 s")
def test_oracle_scaling():
    ec = random_realizable_table(10, random.Random(4), density=0.6)
    start = time.perf_counter()
    report = sae_oracle_chains(ec)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"n=10 chain oracle took {elapsed:.3f}s"
    assert report.sae == er_avg_fast(ec).sae


@criterion("scaling: chain-error extraction of a 64-bit Kogge-Stone under 2 s")
def test_extraction_scaling():
    net = generate_ksa(64, 1)
    start = time.perf_counter()
    ec = extract_ec_table(net, 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"KSA-64 extraction took {elapsed:.3f}s"
    assert ec.nonzero()  # T=7 is before quiescence: some chains err


@criterion("documented substitutes for non-reproducible figure data")
def test_documented_exclusions_and_demo_trace():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().lower()
    # voltage/energy modeling is out of scope and must be documented as such
    assert "voltage" in text and "energy" in text
    # the staggered demo's read-time table stands in for unverifiable
    # figure data; pin it exactly
    net = staggered_ksa8()
    trace = simulate(net, InputPair(8, 86, 59))
    table = [
        (t, traced_sum(trace, net, t))
        for t in range(0, 11)
    ]
    assert table == [
        (0, 0), (1, 109), (2, 109), (3, 109), (4, 105), (5, 97),
        (6, 97), (7, 225), (8, 241), (9, 241), (10, 145),
    ]
    assert extract_ec_table(net, 7).get(2, 4) == 16
    assert extract_ec_table(net, 7).get(5, 7) == -96
