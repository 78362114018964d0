import random

import pytest

from pseudoadder import (
    CarryChain,
    ConservativenessError,
    Gate,
    GateKind,
    InputPair,
    Netlist,
    check_conservative,
    computed_sum,
    ec_table_sweep,
    extract_ec_table,
    generate_ksa,
    generate_rca,
    simulate,
    staggered_ksa8,
    verify_assumptions,
)
from pseudoadder.model import bit
from conftest import exhaustive_pairs


def inverted_carry_rca2():
    """Adversarial: the first carry gate is an inverter (spurious carries)."""
    base = generate_rca(2, [1, 1], [1, 1, 1])
    gates = [
        Gate("c1", GateKind.NOT, ("a0",), 1) if g.id == "c1" else g
        for g in base.gates
    ]
    return Netlist(2, gates, base.outputs)


def ignores_a0_rca2():
    """Fabrication-error fixture: the a0 input is read as constant 0."""
    base = generate_rca(2, [1, 1], [1, 1, 1])
    gates = [
        Gate(
            g.id,
            g.kind,
            tuple("zero" if s == "a0" else s for s in g.inputs),
            g.delay,
        )
        if g.inputs
        else g
        for g in base.gates
    ]
    return Netlist(2, gates, base.outputs)


def low_bit_gated_rca3():
    """A gate reads a0 into a high carry path: when a0 is set, the carry
    into stage 2 is killed.  Conservative, but chain behavior now depends
    on bits below the chain."""
    base = generate_rca(3, [1, 1, 1], [1, 1, 1, 1])
    gates = []
    for g in base.gates:
        if g.id in ("s2", "c3"):
            gates.append(
                Gate(g.id, g.kind, tuple("c2k" if s == "c2" else s for s in g.inputs), g.delay)
            )
        else:
            gates.append(g)
    gates.append(Gate("na0", GateKind.NOT, ("a0",), 0))
    gates.append(Gate("c2k", GateKind.AND2, ("c2", "na0"), 0))
    return Netlist(3, gates, base.outputs)


def quiescence_of(net):
    worst = 0
    for p in exhaustive_pairs(net.n):
        worst = max(worst, simulate(net, p).quiescence_time())
    return worst


def test_correct_adders_are_conservative_at_quiescence():
    for net in (generate_rca(4, [1] * 4, [1] * 5), generate_ksa(4, 1)):
        report = check_conservative(net, 1000)
        assert report.passed
        assert report.checked == 4**net.n


def test_staggered_ksa_conservative_after_settle():
    net = staggered_ksa8()
    assert not check_conservative(net, 0).passed
    for t in range(1, 12):
        assert check_conservative(net, t).passed


def test_early_read_flags_stale_position_zero():
    net = generate_rca(2, [1, 1], [1, 1, 1])
    report = check_conservative(net, 0)
    assert not report.passed
    assert any(k == 0 for _, _, k in report.counterexamples)


def test_rca_conservative_once_sum_row_settled():
    net = generate_rca(4, [2, 1, 3, 1], [2, 1, 2, 1, 3])
    settle = 2  # max sum delay over data positions
    for t in range(settle, 14):
        assert check_conservative(net, t).passed


def test_zero_sum_delay_rca_conservative_at_all_times():
    net = generate_rca(3, [1, 2, 1], [0, 0, 0, 0])
    for t in range(0, 8):
        assert check_conservative(net, t).passed


def test_inverted_carry_netlist_fails_with_counterexample():
    net = inverted_carry_rca2()
    report = check_conservative(net, 1000)
    assert not report.passed
    a, b, k = report.counterexamples[0]
    # recompute the violation by hand: c'_k = s'_k ^ a_k ^ b_k > c_k
    p = InputPair(2, a, b)
    from pseudoadder import reference_add

    s_prime = computed_sum(net, p, 1000)
    c_prime_k = bit(s_prime, k) ^ bit(a, k) ^ bit(b, k)
    _, carries = reference_add(p)
    assert k >= 1 and c_prime_k > bit(carries, k)


def test_sampled_mode_agrees_with_exhaustive():
    net = staggered_ksa8()
    pairs = [InputPair(8, a, b) for a, b in [(86, 59), (0, 0), (255, 255), (17, 4)]]
    assert check_conservative(net, 7, pairs=pairs).passed
    bad = check_conservative(net, 0, pairs=[InputPair(8, 1, 0)])
    assert not bad.passed and bad.counterexamples == [(1, 0, 0)]


def test_conservative_check_refuses_an_empty_sample():
    # exhaustively this read fails everywhere; a check over no pairs
    # must not report a pass
    net = generate_rca(6, [1] * 6, [1] * 7)
    assert check_conservative(net, 0).violations == 8160
    with pytest.raises(ValueError, match="at least one pair"):
        check_conservative(net, 0, pairs=[])


def test_extract_zero_table_from_correct_adder():
    net = generate_ksa(4, 1)
    ec = extract_ec_table(net, 1000)
    assert ec.nonzero() == []


def test_extract_staggered_entries():
    ec = extract_ec_table(staggered_ksa8(), 7)
    assert ec.get(2, 4) == 16
    assert ec.get(5, 7) == -96


def test_extract_flags_probe_violation():
    with pytest.raises(ConservativenessError) as err:
        extract_ec_table(inverted_carry_rca2(), 1000)
    assert isinstance(err.value.chain, CarryChain)


def test_ec_table_sweep_matches_pointwise():
    net = staggered_ksa8()
    times = list(range(0, 12))
    swept = ec_table_sweep(net, times)
    for t in (0, 4, 7, 10, 11):
        assert swept[t] == extract_ec_table(net, t)


def test_rca_entries_nonnegative_and_vanish_at_quiescence():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        mods = [rng.randint(0, 3) for _ in range(n)]
        net = generate_rca(n, mods, mods + [rng.randint(0, 3)])
        q = quiescence_of(net)
        for t in range(0, int(q) + 1):
            ec = extract_ec_table(net, t)
            assert all(v >= 0 for _, v in ec.nonzero())
        assert extract_ec_table(net, q).nonzero() == []


def test_rca_chain_error_is_not_monotone_in_time():
    # The unit-delay ripple adder revisits larger chain errors mid-flight:
    # the inner sum bit clears before the end bit rises.
    net = generate_rca(2, [1, 1], [1, 1, 1])
    series = [extract_ec_table(net, t).get(1, 2) for t in range(0, 4)]
    assert series == [4, 2, 4, 0]


def test_decoupled_sum_delays_can_break_nonnegativity():
    # With a sum XOR much slower than the downstream carry path, the end
    # bit updates first and the chain error goes negative while the read
    # stays conservative.  Per-stage (module) delays never do this.
    net = generate_rca(2, [1, 0], [0, 5, 0])
    ec = extract_ec_table(net, 5)
    assert ec.get(1, 2) < 0
    assert check_conservative(net, 5).passed


def test_generators_pass_assumption_checks():
    for net in (generate_rca(4, [1, 2, 1, 1], [1] * 5), generate_ksa(8, 1), staggered_ksa8()):
        q = 64
        report = verify_assumptions(net, q, samples=48, seed=1)
        assert report.passed, (
            report.commutativity_counterexamples,
            report.independence_counterexamples,
        )


def test_assumption_check_refuses_fewer_than_one_sample():
    net = ignores_a0_rca2()
    assert not verify_assumptions(net, 1000, samples=1).commutative
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_assumptions(net, 1000, samples=samples)


def test_ignored_input_fails_commutativity():
    net = ignores_a0_rca2()
    report = verify_assumptions(net, 1000, samples=16, seed=0)
    assert not report.commutative
    assert (0, 1) in report.commutativity_counterexamples or (
        1,
        0,
    ) in report.commutativity_counterexamples


def test_low_bit_gating_fails_independence():
    net = low_bit_gated_rca3()
    report = verify_assumptions(net, 1000, samples=64, seed=0)
    assert not report.independent
