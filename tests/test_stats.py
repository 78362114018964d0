import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    analyze_table,
    decompose_error,
    er_avg_fast,
    extract_ec_table,
    generate_rca,
    max_abs_error,
    mse_fast,
    nu_single,
    random_realizable_table,
    sae_oracle_chains,
    sae_oracle_simulate,
    staggered_ksa8,
    witness_for_chain_set,
)
from pseudoadder.tables import random_realizable_error
from conftest import (
    er_avg_nonnegative,
    max_abs_error_dag,
    mse_prefix,
    nonnegative_table,
    nu_pair,
    nu_signed_all,
    sae_counting,
    tallies_match,
)


def test_oracle_equality_randomized(rng):
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5, 6])
        ec = random_realizable_table(n, rng, density=rng.choice([0.3, 0.6, 1.0]))
        oracle = sae_oracle_chains(ec)
        fast = er_avg_fast(ec)
        assert fast.sae == oracle.sae
        assert fast.er_avg == oracle.er_avg
        assert mse_fast(ec) == oracle.mse
        assert max_abs_error(ec)[0] == oracle.max_abs_error
        tallies_match(ec, fast, oracle)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    density=st.sampled_from([0.05, 0.3, 0.6, 1.0]),
    nonnegative=st.booleans(),
)
def test_scan_equals_earlier_closed_forms(seed, n, density, nonnegative):
    """The one position scan reproduces the three DPs it replaced, and
    the chain oracle at n <= 8; its witness realizes the max."""
    table = nonnegative_table if nonnegative else random_realizable_table
    ec = table(n, random.Random(seed), density=density)
    report = analyze_table(ec)
    assert report.sae == sae_counting(ec)
    assert report.mse == mse_prefix(ec)
    assert report.max_abs_error == max_abs_error_dag(ec)
    signed = nu_signed_all(ec)
    nz = [c for c, _ in ec.nonzero()]
    assert report.nu_plus == {c: signed[c][0] for c in nz}
    assert report.nu_minus == {c: signed[c][1] for c in nz}
    if n <= 8:
        oracle = sae_oracle_chains(ec)
        assert (report.sae, report.mse, report.max_abs_error) == (
            oracle.sae, oracle.mse, oracle.max_abs_error
        )
        tallies_match(ec, report, oracle)
    value, witness = max_abs_error(ec)
    assert value == report.max_abs_error
    assert all(ec.get(c.i, c.j) for c in witness)
    error = decompose_error(witness_for_chain_set(witness), ec)[0]
    assert abs(error) == value
    if value == 0:
        assert len(witness) == 0


def test_sign_law_guard():
    # pairs generating both chains err by 2 - 1 = +1 although the leftmost
    # erring chain is negative, so e * (nu_plus - nu_minus) would give 4
    ec = ChainErrorTable(2, {CarryChain(1, 1): 2, CarryChain(2, 2): -1})
    assert sae_oracle_chains(ec).sae == 6
    for fast in (analyze_table, er_avg_fast, mse_fast, max_abs_error):
        with pytest.raises(ValueError, match="sign law"):
            fast(ec)


def test_simulation_oracle_equals_chain_oracle(rng):
    for _ in range(5):
        n = rng.randint(2, 5)
        mods = [rng.randint(0, 3) for _ in range(n)]
        net = generate_rca(n, mods, mods + [rng.randint(0, 3)])
        t = rng.randint(max(mods, default=0), 8)
        ec = extract_ec_table(net, t)
        sim_rep = sae_oracle_simulate(net, t)
        chain_rep = sae_oracle_chains(ec)
        assert sim_rep.sae == chain_rep.sae
        assert sim_rep.mse == chain_rep.mse
        assert sim_rep.max_abs_error == chain_rep.max_abs_error
        assert sim_rep.nu_plus is None  # simulation oracle ignores chains


def test_staggered_fast_equals_simulation_oracle():
    net = staggered_ksa8()
    for t in (1, 4, 7, 10):
        ec = extract_ec_table(net, t)
        fast = analyze_table(ec)
        oracle = sae_oracle_simulate(net, t)
        assert (fast.sae, fast.mse, fast.max_abs_error) == (
            oracle.sae,
            oracle.mse,
            oracle.max_abs_error,
        )


def test_staggered_ksa8_is_correct_from_t11():
    # the output still errs at t=10; it is quiescent and correct at t=11
    net = staggered_ksa8()
    assert sae_oracle_simulate(net, 10).sae == 229376
    assert sae_oracle_simulate(net, 11).sae == 0


def test_oracles_enumerate_above_ten_with_no_flag():
    # the width is the caller's choice: no flag and no refusal at n = 11
    assert sae_oracle_chains(ChainErrorTable(11)).sae == 0
    net = generate_rca(11, [1] * 11, [1] * 12)
    assert sae_oracle_simulate(net, net.arrival_time()).sae == 0


def test_er_avg_rca_equals_fast_on_nonnegative(rng):
    for _ in range(20):
        n = rng.choice([2, 4, 6, 8])
        ec = nonnegative_table(n, rng, density=0.6)
        assert er_avg_nonnegative(ec) == er_avg_fast(ec).er_avg
    assert er_avg_fast(ChainErrorTable(6)).er_avg == er_avg_nonnegative(ChainErrorTable(6)) == 0


def test_mse_single_chain_width_one():
    for e in (1, 2, -1):
        if e == -1:
            continue  # only +-2 and 0 realizable at n=1; sign via table below
        ec = ChainErrorTable(1, {CarryChain(1, 1): e})
        assert mse_fast(ec) == Fraction(e * e, 4)
    assert mse_fast(ChainErrorTable(1)) == 0


def test_sae_width_one_chain():
    ec = ChainErrorTable(1, {CarryChain(1, 1): 2})
    report = er_avg_fast(ec)
    assert report.sae == 2  # one erring pair out of four
    assert report.er_avg == Fraction(2, 4)
    assert sae_oracle_chains(ec).sae == 2


def test_example_signed_assembly():
    # a chain erring by -6 whose generating pairs see dominators of signs
    # +, -, + contributes (-6) * (2 - 1)
    contribution = (-6) * (2 - 1)
    assert contribution == -6
    for sign, other in ((1, 13), (-1, -14), (1, 15)):
        assert abs(-6 + other) == sign * -6 + sign * other
    total = (1 * 13) + (-1 * -14) + (1 * 15) + contribution
    assert total == abs(-6 + 13) + abs(-6 - 14) + abs(-6 + 15) == 36


def test_report_invariants(rng):
    n = 6
    ec = random_realizable_table(n, rng, density=0.7)
    report = er_avg_fast(ec)
    pairs = 1 << (2 * n)
    assert report.er_avg == Fraction(report.sae, pairs)
    for c in report.nu_plus:
        assert report.nu_plus[c] + report.nu_minus[c] <= nu_single(n, c)


def test_tally_equality_when_every_chain_errs(rng):
    from pseudoadder import all_chains

    n = 5
    entries = {}
    for c in all_chains(n):
        e = 0
        while e == 0:
            e = random_realizable_error(c, rng)
        entries[c] = e
    ec = ChainErrorTable(n, entries)
    report = er_avg_fast(ec)
    for c in all_chains(n):
        assert report.nu_plus[c] + report.nu_minus[c] == nu_single(n, c)


def test_report_json_shape():
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    report = analyze_table(ec)
    data = report.to_json_dict()
    assert data["n"] == 8
    assert Fraction(data["er_avg"]["numerator"], data["er_avg"]["denominator"]) == Fraction(
        report.sae, 1 << 16
    )
    assert data["mse"]["float"] == pytest.approx(float(Fraction(data["mse"]["numerator"], data["mse"]["denominator"])))
    assert any(e["i"] == 5 and e["j"] == 7 for e in data["nu_minus"])


def test_width_one_netlist_oracle():
    net = generate_rca(1, [1], [1, 1])
    report = sae_oracle_simulate(net, 1)  # only 1+1 errs, by 2
    assert report.sae == 2
    assert report.er_avg == Fraction(2, 4)
    assert report.max_abs_error == 2
    assert extract_ec_table(net, 1).get(1, 1) == 2


def test_nu_minus_counts_cooccurrence_with_negative_dominator():
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    report = analyze_table(ec)
    plus, minus = report.nu_plus[CarryChain(2, 4)], report.nu_minus[CarryChain(2, 4)]
    # the only negative chain sits above (2, 4), so the minus tally is
    # exactly the number of pairs generating both chains
    assert minus == nu_pair(8, CarryChain(2, 4), CarryChain(5, 7))
    assert plus + minus == nu_single(8, CarryChain(2, 4))


def test_rca_tables_have_no_negative_tallies(rng):
    for _ in range(5):
        n = rng.randint(2, 6)
        mods = [rng.randint(0, 3) for _ in range(n)]
        net = generate_rca(n, mods, mods + [1])
        ec = extract_ec_table(net, rng.randint(0, 2 * n))
        report = er_avg_fast(ec)
        assert all(v == 0 for v in report.nu_minus.values())


def test_fast_path_growth_is_polynomial_not_exponential():
    # zero tables isolate the count arithmetic; quadratic growth predicts
    # a ~16x step per width doubling, so a generous 100x bound still
    # rules out anything exponential in n
    import time

    def wall(n):
        ec = ChainErrorTable(n)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            er_avg_fast(ec)
            best = min(best, time.perf_counter() - start)
        return best

    t16, t32, t64 = wall(16), wall(32), wall(64)
    assert t32 < 100 * max(t16, 1e-4)
    assert t64 < 100 * max(t32, 1e-4)
