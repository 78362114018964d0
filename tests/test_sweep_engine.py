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
    analyze_table,
    check_conservative,
    computed_sum,
    extract_ec_table,
    generate_rca,
    sae_oracle_simulate,
    simulate,
    staggered_ksa8,
    validity,
)
from pseudoadder import sweep as sweep_module
from pseudoadder.chains import canonical_word
from pseudoadder.model import word_pair
from pseudoadder.sweep import TRANSPOSE_ROWS, PairSweep, _gate_steps as gate_steps, _transpose, pair_masks, probe_masks
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
    sweep = PairSweep(net, keep=set(net.by_id))
    worst = max(
        simulate(net, p).quiescence_time() for p in exhaustive_pairs(3)
    )
    last = max(wf.times[-1] for wf in map(sweep.waveform, net.by_id) if wf.times)
    assert last == worst


def test_float_read_times_are_exact():
    # the float 0.3 lies just below 3/10, where the last sum bit lands
    net = generate_rca(4, [Fraction(1, 10)] * 4, [Fraction(1, 10)] * 5)
    exact = Fraction(3, 10)
    assert analyze_table(extract_ec_table(net, 0.3)) == analyze_table(extract_ec_table(net, exact))
    full = PairSweep(net)
    assert full.lane_sums(0.3) == full.lane_sums(exact)
    assert PairSweep(net, times=[0.3]).lane_sums(exact) == full.lane_sums(exact)


READS = {  # every library entry point that takes a read time
    "PairSweep": lambda net, t: PairSweep(net, times=[t]),
    "output_masks_at": lambda net, t: PairSweep(net).output_masks_at(t),
    "extract_ec_table": extract_ec_table,
    "check_conservative": check_conservative,
    "sae_oracle_simulate": sae_oracle_simulate,
    "validity": lambda net, t: validity(net, t, limit=0),  # the sample's batch, not the oracle's blocks
    "value_at": lambda net, t: simulate(net, InputPair(net.n, 1, 1)).value_at("s0", t),
    "computed_sum": lambda net, t: computed_sum(net, InputPair(net.n, 1, 1), t),
}


@pytest.mark.parametrize("name", READS)
def test_negative_read_times_are_refused_as_read_times(name):
    net = generate_rca(2, [1, 1], [1, 1, 1])
    for t, shown in ((-1, "-1"), (Fraction(-1, 2), "-1/2"), (-0.5, "-0.5"),
                     ("-1", "-1"), ("-1/2", "-1/2"), ("-0.5", "-0.5")):
        with pytest.raises(ValueError, match=f"^read time must be non-negative, got {shown}$"):
            READS[name](net, t)
    for t, shown in (("1/0", "'1/0'"), ("abc", "'abc'"), (float("nan"), "nan")):
        with pytest.raises(ValueError, match=f"^cannot interpret read time {shown}$"):
            READS[name](net, t)


def test_sums_at_quiescence_are_correct():
    net = generate_ksa(4, KsaDelays.uniform(4, 2))
    sweep = PairSweep(net)
    a, b = operand_arrays(4)
    assert np.array_equal(sums_at(sweep, net.arrival_time()), a + b)
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
            [InputPair(n, *word_pair(canonical_word(c, n), n)) for c in all_chains(n)],
            [drawn[0]],
        ]
        for pairs in batches:
            words = [pair_index(p) for p in pairs]
            lanes = PairSweep(net, keep=set(net.by_id), masks=pair_masks(words, n))
            assert lanes.pair_count == len(pairs)
            for lane, (p, word) in enumerate(zip(pairs, words)):
                assert lanes.lane_pair(lane) == word_pair(word, n) == (p.a, p.b)
                trace = simulate(net, p)
                for g in net.gates:
                    got = lane_transitions(lanes.waveform(g.id).steps, lane)
                    assert got == trace.transitions[g.id], (g.id, p)


def test_batch_source_masks_match_all_pairs_lanes():
    # a batch of every pair in index order is the all-pairs sweep
    net = generate_rca(3, [1, 2, 1], [1, 0, 2, 1])
    every = PairSweep(net)
    batch = PairSweep(net, masks=pair_masks(sorted(map(pair_index, exhaustive_pairs(3))), 3))
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
        words = None  # the default lane block
    elif lanes == "batch":
        words = [pair_index(p) for p in draw(st.lists(pair, min_size=1, max_size=20))]
    else:
        words = [pair_index(draw(pair))]
    reads = draw(st.lists(st.fractions(min_value=0, max_value=12, max_denominator=6), max_size=4))
    return net, words, reads, draw(st.fractions(min_value=0, max_value=12, max_denominator=7))


def lanes_of(words, n):
    """The lanes of ``words``, or None for the default lane block of all pairs."""
    return None if words is None else pair_masks(words, n)


@settings(max_examples=150, deadline=None)
@given(bounded_sweep_cases())
def test_bounded_sweep_equals_full_sweep(case):
    net, words, reads, other = case
    full = PairSweep(net, masks=lanes_of(words, net.n))
    past = net.arrival_time() + Fraction(1, 2)
    # 0 and the drawn (mostly rational) times, with and without a time
    # past quiescence
    for times in ([0, *reads, past], [0, *reads]):
        simulated = []

        def spy(*args):
            steps = gate_steps(*args)
            simulated.extend(t for t, _ in steps)
            return steps

        with mock.patch.object(sweep_module, "_gate_steps", spy):
            bounded = PairSweep(net, masks=lanes_of(words, net.n), times=times)
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
        with pytest.raises(ValueError, match="whole history"):
            bounded.output_change_times()


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_probe_masks_equal_the_transposed_probe_words(data):
    # the closed form, above any batch of pairs, is the transpose of the probes' words after it
    n = data.draw(st.integers(1, 70), label="n")
    words = data.draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=40), label="words")
    probes = [canonical_word(c, n) for c in all_chains(n)]
    assert probe_masks(n, pair_masks(words, n)) == pair_masks(words + probes, n)
    if not words:
        assert probe_masks(n) == pair_masks(probes, n)


def one_string_transpose(rows, width):
    """``_transpose`` as one string of every row, the form it takes in chunks."""
    if not rows:
        return [0] * width
    digits = "".join(format(r, f"0{width}b") for r in reversed(rows))
    return [int(digits[k::width], 2) for k in reversed(range(width))]


@settings(max_examples=60, deadline=None)
@given(width=st.one_of(st.integers(1, 130), st.sampled_from((511, 512, 513, 1025, 2080))),
       count=st.sampled_from((0, 1, 3, TRANSPOSE_ROWS - 1, TRANSPOSE_ROWS, TRANSPOSE_ROWS + 1)),
       seed=st.integers(0, 2**32 - 1))
def test_transpose_in_chunks_equals_one_string(width, count, seed):
    # rows wider than TRANSPOSE_ROWS (output masks) are cut into column bands
    rng = random.Random(seed)
    rows = [rng.getrandbits(width) for _ in range(count)]
    assert _transpose(rows, width) == one_string_transpose(rows, width)


def test_transpose_in_tiles_equals_one_string():
    # more rows and more columns than TRANSPOSE_ROWS: chunks within bands
    rng = random.Random(34)
    rows = [rng.getrandbits(TRANSPOSE_ROWS + 77) for _ in range(TRANSPOSE_ROWS + 3)]
    cols = _transpose(rows, TRANSPOSE_ROWS + 77)
    assert cols == one_string_transpose(rows, TRANSPOSE_ROWS + 77)
    assert _transpose(cols, len(rows)) == rows


def test_empty_pair_batch_has_no_lanes():
    net = generate_rca(3, [1, 2, 1], [1, 0, 2, 1])
    sweep = PairSweep(net, masks=pair_masks([], 3))
    assert sweep.pair_count == 0
    for t in (0, 2, net.arrival_time()):
        assert sweep.lane_sums(t) == []


def test_pair_words_outside_the_width_are_refused():
    # a word packs a | b << n, so every lane of width 3 lies in [0, 4^3)
    net = generate_rca(3, [1, 2, 1], [1, 0, 2, 1])
    assert PairSweep(net, masks=pair_masks([0, 63], 3)).lane_pair(1) == (7, 7)
    for words in ([64], [5, -1], [1 << 70]):
        with pytest.raises(ValueError, match=r"outside \[0, 4\^3\)"):
            pair_masks(words, 3)


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


@settings(max_examples=150, deadline=None)
@given(bounded_sweep_cases(), st.data())
def test_a_range_of_lanes_equals_a_sweep_of_its_pairs(case, data):
    # a cut is read off the kept waveforms and operand masks; it must
    # answer as a sweep simulated over just those pairs would
    net, words, reads, _ = case
    times = data.draw(st.sampled_from([None, [0, *reads]]), label="times")
    sweep = PairSweep(net, keep=set(net.by_id), masks=lanes_of(words, net.n), times=times)
    words = list(range(1 << 2 * net.n)) if words is None else words  # all pairs: lane a + (b << n)
    lo = data.draw(st.integers(0, len(words)), label="lo")
    hi = data.draw(st.integers(lo, len(words)), label="hi")
    cut, alone = sweep.lanes(lo, hi), PairSweep(net, masks=pair_masks(words[lo:hi], net.n), times=times)
    assert (cut.pair_count, cut.full) == (alone.pair_count, alone.full)
    for kept in (sweep, cut):  # every kept step changes the mask, from 0 at the start
        for gid in net.by_id:
            masks = [0, *(v for _, v in kept.waveform(gid).steps)]
            assert all(x != y for x, y in zip(masks, masks[1:])), (gid, masks)
    for t in [0, *reads]:
        assert cut.output_masks_at(t) == alone.output_masks_at(t), t
        assert cut.carries_at(t) == alone.carries_at(t), t
        assert cut.lane_sums(t) == alone.lane_sums(t), t
    assert cut.true_carry_masks() == alone.true_carry_masks()
    assert [cut.lane_pair(k) for k in range(hi - lo)] == [alone.lane_pair(k) for k in range(hi - lo)]
    if times is None:
        assert cut.output_change_times() == alone.output_change_times()
        for gid in net.outputs.values():
            assert cut.waveform(gid).steps == alone.waveform(gid).steps
    for bad in ((-1, hi), (lo, len(words) + 1), (hi + 1, hi)):
        with pytest.raises(ValueError, match="no lanes"):
            sweep.lanes(*bad)
