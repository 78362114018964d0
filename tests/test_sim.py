import random

import pytest

from pseudoadder import (
    InputPair,
    computed_sum,
    generate_ksa,
    generate_rca,
    reference_add,
    simulate,
    staggered_ksa8,
)
from pseudoadder.sweep import PairSweep, pair_masks
from conftest import exhaustive_pairs, pair_index, traced_sum


def test_trace_times_increase_and_values_alternate():
    net = staggered_ksa8()
    trace = simulate(net, InputPair(8, 86, 59))
    for events in trace.transitions.values():
        times = [t for t, _ in events]
        assert times == sorted(set(times))
        values = [v for _, v in events]
        for prev, nxt in zip(values, values[1:]):
            assert prev != nxt
        if values:
            assert values[0] == 1  # everything starts at 0


def test_simulation_is_deterministic():
    net = staggered_ksa8()
    p = InputPair(8, 199, 57)
    t1 = simulate(net, p)
    t2 = simulate(net, p)
    assert t1.transitions == t2.transitions


def test_quiescent_rca_exhaustive_small():
    net = generate_rca(4, [1, 2, 1, 3], [1, 0, 2, 1, 1])
    horizon = 1000
    for p in exhaustive_pairs(4):
        assert computed_sum(net, p, horizon) == p.a + p.b


def test_quiescent_ksa_sampled():
    rng = random.Random(9)
    for n in (2, 4, 8, 16):
        net = generate_ksa(n, 1)
        for _ in range(40):
            p = InputPair(n, rng.randrange(1 << n), rng.randrange(1 << n))
            trace = simulate(net, p)
            assert traced_sum(trace, net, trace.quiescence_time()) == p.a + p.b


def test_read_at_zero_with_positive_delays_is_zero():
    net = generate_ksa(8, 1)
    for a, b in ((86, 59), (255, 255), (1, 0)):
        assert computed_sum(net, InputPair(8, a, b), 0) == 0


def test_zero_delay_sum_row_truncates_to_xor():
    net = generate_rca(2, [1, 1], [0, 0, 0])
    for p in exhaustive_pairs(2):
        assert computed_sum(net, p, 0) == p.a ^ p.b


def test_rca_carries_ripple_one_apart():
    net = generate_rca(4, [1] * 4, [1] * 5)
    trace = simulate(net, InputPair(4, 3, 1))
    assert trace.transitions["c1"] == [(1, 1)]
    assert trace.transitions["c2"] == [(2, 1)]
    assert trace.transitions["c3"] == []
    assert trace.transitions["c4"] == []


def lane_read(net, p, t):
    """Sum and recovered carries of one pair, read from a one-lane sweep."""
    lane = PairSweep(net, masks=pair_masks([pair_index(p)], p.n))
    c_prime, _ = lane.carries_at(t)
    return lane.lane_sums(t)[0], sum(ck << k for k, ck in enumerate(c_prime))


def test_read_output_recovers_carries():
    net = staggered_ksa8()
    p = InputPair(8, 86, 59)
    s_prime, c_prime = lane_read(net, p, 7)
    assert s_prime == 0b011100001 == 225
    assert c_prime == 0b010001100
    # at quiescence the carries are the true ones
    s_q, c_q = lane_read(net, p, simulate(net, p).quiescence_time())
    s_true, carries = reference_add(p)
    assert (s_q, c_q) == (s_true, carries)


def test_read_output_rejects_negative_time():
    net = generate_rca(1, [1], [1, 1])
    p = InputPair(1, 1, 1)
    with pytest.raises(ValueError):
        PairSweep(net, masks=pair_masks([pair_index(p)], p.n)).output_masks_at(-1)
    with pytest.raises(ValueError):
        computed_sum(net, p, -1)


def test_simulate_width_mismatch():
    net = generate_rca(2, [1, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        simulate(net, InputPair(4, 1, 1))


def test_staggered_ksa_time_table():
    net = staggered_ksa8()
    trace = simulate(net, InputPair(8, 86, 59))
    expected = {
        0: 0,
        1: 109,
        2: 109,
        3: 109,
        4: 105,
        5: 97,
        6: 97,
        7: 225,
        8: 241,
        9: 241,
        10: 145,
    }
    for t, want in expected.items():
        assert traced_sum(trace, net, t) == want
    assert trace.quiescence_time() == 10


def test_fractional_delays_order_events():
    from pseudoadder.netlist import as_delay

    net = generate_rca(2, [as_delay("0.5"), as_delay("0.5")], [0, 0, 0])
    p = InputPair(2, 3, 1)  # full ripple: carries at 0.5 and 1.0
    trace = simulate(net, p)
    assert trace.transitions["c1"] == [(as_delay("0.5"), 1)]
    assert trace.transitions["c2"] == [(as_delay(1), 1)]
    # at 0.75 the first carry has landed (clearing bit 1), the second has not
    assert computed_sum(net, p, as_delay("0.75")) == 0
    assert computed_sum(net, p, as_delay(1)) == 4


def test_float_read_times_are_exact():
    # a float read is taken like a delay: 0.3 reads at 3/10, where the
    # last sum bit of 1 + 3 lands; compared with the float, it was missed
    from fractions import Fraction

    net = generate_rca(4, [Fraction(1, 10)] * 4, [Fraction(1, 10)] * 5)
    assert computed_sum(net, InputPair(4, 1, 3), 0.3) == 4
    lanes = PairSweep(net, times=[Fraction(3, 10)]).lane_sums(Fraction(3, 10))
    for p in exhaustive_pairs(4):
        trace = simulate(net, p)
        assert traced_sum(trace, net, 0.3) == traced_sum(trace, net, Fraction(3, 10)) == lanes[p.a + (p.b << 4)]


def test_exhaustive_quiescent_correctness_n8_via_sweep():
    import numpy as np

    from conftest import operand_arrays, sums_at

    a, b = operand_arrays(8)
    for net in (generate_rca(8, [1] * 8, [1] * 9), generate_ksa(8, 1)):
        sweep = PairSweep(net, keep=set(net.outputs.values()))
        assert np.array_equal(sums_at(sweep, net.arrival_time()), a + b)


def test_read_at_zero_recovers_xor_carries():
    net = generate_ksa(8, 1)
    p = InputPair(8, 86, 59)
    _, c_prime = lane_read(net, p, 0)
    want = 0
    for k in range(1, 8):
        want |= (((p.a ^ p.b) >> k) & 1) << k
    assert c_prime == want
