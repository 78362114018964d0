import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pseudoadder import (
    InputPair,
    KsaDelays,
    generate_ksa,
    all_chains,
    generate_rca,
    simulate,
    staggered_ksa8,
)
from pseudoadder import sweep as sweep_module
from pseudoadder.chains import canonical_pair
from pseudoadder.sweep import PairSweep, _gate_steps as gate_steps, _transpose
from conftest import (
    exhaustive_pairs,
    lane_transitions,
    mask_to_bools,
    operand_arrays,
    pair_index,
    random_netlist,
    reference_transpose,
    sums_at,
    traced_sum,
)


def test_operand_bit_masks_match_index_convention():
    n = 3
    sweep = PairSweep(generate_rca(n, [1] * n, [1] * (n + 1)))
    a, b = operand_arrays(n)
    for k in range(n):
        got_a = mask_to_bools(sweep.operand_bit_mask("a", k), 1 << (2 * n))
        got_b = mask_to_bools(sweep.operand_bit_mask("b", k), 1 << (2 * n))
        assert np.array_equal(got_a, ((a >> k) & 1).astype(bool))
        assert np.array_equal(got_b, ((b >> k) & 1).astype(bool))


def test_true_carry_masks_match_reference():
    from pseudoadder import reference_add

    n = 3
    sweep = PairSweep(generate_rca(n, [1] * n, [1] * (n + 1)))
    carries = sweep.true_carry_masks()
    for p in exhaustive_pairs(n):
        _, want = reference_add(p)
        idx = pair_index(p)
        for k in range(n + 1):
            assert (carries[k] >> idx) & 1 == (want >> k) & 1


def test_sweep_equals_event_sim_exhaustive_small():
    nets = [
        generate_rca(2, [1, 2], [0, 1, 2]),
        generate_rca(3, [0, 1, 2], [2, 1, 0, 1]),
        generate_ksa(2, 1),
    ]
    for net in nets:
        sweep = PairSweep(net)
        times = sorted(set(sweep.output_change_times()) | {0, 100})
        for p in exhaustive_pairs(net.n):
            trace = simulate(net, p)
            idx = pair_index(p)
            for t in times:
                want = traced_sum(trace, net, t)
                got = sum(
                    ((sweep.output_masks_at(t)[pos] >> idx) & 1) << pos
                    for pos in range(net.n + 1)
                )
                assert got == want, (net.n, p.a, p.b, t)


def test_sweep_equals_event_sim_sampled_staggered():
    net = staggered_ksa8()
    sweep = PairSweep(net)
    rng = random.Random(2)
    sums = {t: sums_at(sweep, t) for t in range(0, 12)}
    for _ in range(60):
        p = InputPair(8, rng.randrange(256), rng.randrange(256))
        trace = simulate(net, p)
        for t in range(0, 12):
            assert sums[t][pair_index(p)] == traced_sum(trace, net, t)


def test_sweep_quiescence_matches_event_sim():
    net = generate_rca(3, [1, 3, 2], [2, 0, 1, 4])
    sweep = PairSweep(net)
    worst = max(
        simulate(net, p).quiescence_time() for p in exhaustive_pairs(3)
    )
    assert sweep.quiescence_time() == worst


def test_sums_at_quiescence_are_correct():
    net = generate_ksa(4, KsaDelays.uniform(4, 2))
    sweep = PairSweep(net)
    a, b = operand_arrays(4)
    assert np.array_equal(sums_at(sweep, sweep.quiescence_time()), a + b)
    assert np.array_equal(sums_at(sweep, 0), np.zeros(256, dtype=np.int64))


def test_sweep_equals_event_sim_on_random_netlists():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        net = random_netlist(n, rng)
        sweep = PairSweep(net)
        times = sorted(set(sweep.output_change_times()) | {0, 50})
        for p in exhaustive_pairs(n):
            trace = simulate(net, p)
            idx = pair_index(p)
            for t in times:
                want = traced_sum(trace, net, t)
                masks = sweep.output_masks_at(t)
                got = sum(((masks[pos] >> idx) & 1) << pos for pos in range(n + 1))
                assert got == want

        # lane batches: random pairs with duplicates, the chain probes, one
        # pair; every lane of every gate changes exactly as the event sim
        drawn = [InputPair(n, rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(12)]
        batches = [
            drawn + drawn[:4],
            [canonical_pair(c, n) for c in all_chains(n)],
            [drawn[0]],
        ]
        for pairs in batches:
            lanes = PairSweep(net, keep=set(net.by_id), pairs=pairs)
            assert lanes.pair_count == len(pairs)
            for lane, p in enumerate(pairs):
                assert lanes.lane_pair(lane) == (p.a, p.b)
                trace = simulate(net, p)
                for g in net.gates:
                    got = lane_transitions(lanes.waveform(g.id).steps, lane)
                    assert got == trace.transitions[g.id], (g.id, p)


def test_batch_source_masks_match_all_pairs_lanes():
    # a batch of every pair in index order is the all-pairs sweep
    net = generate_rca(3, [1, 2, 1], [1, 0, 2, 1])
    every = PairSweep(net)
    batch = PairSweep(net, pairs=sorted(exhaustive_pairs(3), key=pair_index))
    for operand in "ab":
        for k in range(3):
            assert batch.operand_bit_mask(operand, k) == every.operand_bit_mask(operand, k)
    for t in every.output_change_times():
        assert batch.output_masks_at(t) == every.output_masks_at(t)
        assert batch.lane_sums(t) == list(sums_at(every, t))


rationals = st.fractions(min_value=0, max_value=4, max_denominator=6)


@st.composite
def bounded_sweep_cases(draw):
    """A netlist (random gate DAG, or RCA/KSA with rational delays), a lane
    choice (all pairs, a batch with duplicates, one pair) and read times."""
    kind = draw(st.sampled_from(["dag", "rca", "ksa"]))
    if kind == "dag":
        n = draw(st.integers(1, 3))
        net = random_netlist(n, random.Random(draw(st.integers(0, 1 << 32))))
    elif kind == "rca":
        n = draw(st.integers(1, 4))
        net = generate_rca(n, draw(st.lists(rationals, min_size=n, max_size=n)),
                           draw(st.lists(rationals, min_size=n + 1, max_size=n + 1)))
    else:
        n = draw(st.sampled_from([2, 4]))

        def row(k):
            return tuple(draw(st.lists(rationals, min_size=k, max_size=k)))

        net = generate_ksa(n, KsaDelays(row(n), tuple(row(n) for _ in range((n - 1).bit_length())), row(n + 1)))
    operand = st.integers(0, (1 << n) - 1)
    pair = st.builds(InputPair, st.just(n), operand, operand)
    lanes = draw(st.sampled_from(["all", "batch", "one"]))
    if lanes == "all":
        pairs = None
    elif lanes == "batch":
        pairs = draw(st.lists(pair, min_size=1, max_size=20))
    else:
        pairs = [draw(pair)]
    reads = draw(st.lists(st.fractions(min_value=0, max_value=12, max_denominator=6), max_size=4))
    return net, pairs, reads, draw(st.fractions(min_value=0, max_value=12, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(bounded_sweep_cases())
def test_bounded_sweep_equals_full_sweep(case):
    net, pairs, reads, other = case
    full = PairSweep(net, pairs=pairs)
    past = full.quiescence_time() + Fraction(1, 2)
    # 0 and the drawn (mostly rational) times, with and without a time
    # past quiescence
    for times in ([0, *reads, past], [0, *reads]):
        simulated = []

        def spy(*args):
            steps = gate_steps(*args)
            simulated.extend(t for t, _ in steps)
            return steps

        with mock.patch.object(sweep_module, "_gate_steps", spy):
            bounded = PairSweep(net, pairs=pairs, times=times)
        # no gate changes past the last read, and only the masks at the
        # read times are kept
        assert all(t <= max(times) for t in simulated)
        for gid in net.outputs.values():
            assert set(bounded.waveform(gid).times) <= set(times)
        for t in times:
            assert bounded.output_masks_at(t) == full.output_masks_at(t), t
            assert bounded.carries_at(t) == full.carries_at(t), t
            assert bounded.lane_sums(t) == full.lane_sums(t), t
        unlisted = other if other not in times else max(times) + 1
        with pytest.raises(ValueError, match="not one of this sweep's read times"):
            bounded.output_masks_at(unlisted)
        for whole_history in (bounded.quiescence_time, bounded.output_change_times):
            with pytest.raises(ValueError, match="whole history"):
                whole_history()


@st.composite
def bit_matrices(draw):
    width = draw(st.integers(0, 70))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    return rows, width


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
@example(([], 0))
@example(([], 13))
@example(([0, 0], 0))
@example(([1, 0, 1], 1))
@example(([(1 << 9) - 1, 5, 0, 256], 9))
def test_transpose_equals_numpy_reference(matrix):
    rows, width = matrix
    cols = _transpose(rows, width)
    assert cols == reference_transpose(rows, width)
    assert _transpose(cols, len(rows)) == rows


def test_empty_pair_batch_has_no_lanes():
    net = generate_rca(3, [1, 2, 1], [1, 0, 2, 1])
    sweep = PairSweep(net, pairs=[])
    assert sweep.pair_count == 0
    for t in (0, 2, net.arrival_time()):
        assert sweep.lane_sums(t) == []


def test_hand_written_json_netlist_runs():
    import json

    from pseudoadder import InputPair, Netlist, computed_sum

    # a 1-bit "adder" that inverts its sum bit late: arbitrary netlists
    # are accepted as long as they are well-formed DAGs
    payload = {
        "n": 1,
        "gates": [
            {"id": "a0", "kind": "INPUT", "inputs": [], "delay": 0},
            {"id": "b0", "kind": "INPUT", "inputs": [], "delay": 0},
            {"id": "x", "kind": "XOR2", "inputs": ["a0", "b0"], "delay": 1},
            {"id": "s0", "kind": "NOT", "inputs": ["x"], "delay": 2},
            {"id": "s1", "kind": "AND2", "inputs": ["a0", "b0"], "delay": 1},
        ],
        "outputs": {"0": "s0", "1": "s1"},
    }
    net = Netlist.from_json(json.dumps(payload))
    # at t=3 the NOT has settled: s0 = ~(a^b), s1 = a&b
    assert computed_sum(net, InputPair(1, 0, 0), 10) == 1
    assert computed_sum(net, InputPair(1, 1, 0), 10) == 0
    assert computed_sum(net, InputPair(1, 1, 1), 10) == 3
    # before the NOT fires its initial evaluation, everything reads 0
    assert computed_sum(net, InputPair(1, 0, 0), 1) == 0
