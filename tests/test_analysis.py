import contextlib
import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    CarryChain,
    ConservativenessError,
    Gate,
    GateKind,
    InputPair,
    Netlist,
    PairSweep,
    check_conservative,
    computed_sum,
    detect_chains,
    ec_table_sweep,
    extract_ec_table,
    generate_ksa,
    generate_rca,
    simulate,
    staggered_ksa8,
    validity,
)
from pseudoadder import analysis
from pseudoadder.analysis import _random_witness
from pseudoadder.model import all_chains, pair_word, word_pair
from conftest import exhaustive_pairs, reference_rule, reference_sample_words, reference_sampled_validity
from test_lane_blocks import _netlist


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


def probe_fault_rca11():
    """A detector ORed into sum bit 10 of the unit-delay RCA-11 fires only
    on (254 | 255, 2 | 3): of all chain probes, only chain (2, 8)'s,
    (254, 2), reads a spurious carry, and the seed-0 sample misses it."""
    base = generate_rca(11, [1] * 11, [1] * 12)
    low = ["b2", "b3", "b4", "b5", "b6", "b7", *(f"{x}{k}" for x in "ab" for k in (8, 9, 10))]
    gates = [*base.gates, *(Gate(f"n{s}", GateKind.NOT, (s,), 0) for s in low)]
    detector = "a1"
    for k, s in enumerate(["b1", *(f"a{k}" for k in range(2, 8)), *(f"n{s}" for s in low)]):
        gates.append(Gate(f"d{k}", GateKind.AND2, (detector, s), 0))
        detector = f"d{k}"
    gates.append(Gate("s10f", GateKind.OR2, ("s10", detector), 0))
    return Netlist(11, gates, {**base.outputs, 10: "s10f"})


def long_gated_rca16():
    """The unit-delay RCA-16 with its carry into stage 13 killed when a0
    is set and positions 5..12 propagate: conservative, and not
    independent, but only on pairs holding a long propagate run, which
    a uniform 128-pair sample rarely draws."""
    base = generate_rca(16, [1] * 16, [1] * 17)
    gates = [Gate(g.id, g.kind, tuple("c13k" if s == "c13" else s for s in g.inputs), g.delay)
             if g.id in ("s13", "c14") else g for g in base.gates]
    trigger = "a0"
    for k in range(5, 13):
        gates.append(Gate(f"t{k}", GateKind.AND2, (trigger, f"p{k}"), 0))
        trigger = f"t{k}"
    gates += [Gate("nt", GateKind.NOT, (trigger,), 0), Gate("c13k", GateKind.AND2, ("c13", "nt"), 0)]
    return Netlist(16, gates, base.outputs)


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


def carry_out_gated_rca2():
    """The RCA-2 whose sum bit 2 reads ``c2 & ~a0``: conservative, and not
    independent at position n alone, where chain (2, 2) errs when a0 is set."""
    base = generate_rca(2, [1, 1], [1, 1, 1])
    gates = [Gate("s2", GateKind.XOR2, ("c2k", "zero"), 1) if g.id == "s2" else g for g in base.gates]
    gates += [Gate("na0", GateKind.NOT, ("a0",), 0), Gate("c2k", GateKind.AND2, ("c2", "na0"), 0)]
    return Netlist(2, gates, base.outputs)


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
    c_prime_k = (s_prime ^ a ^ b) >> k & 1
    _, carries = reference_add(p)
    assert k >= 1 and c_prime_k > carries >> k & 1


def test_sampled_mode_agrees_with_exhaustive():
    from pseudoadder import SAMPLES, reference_add

    net = staggered_ksa8()
    assert check_conservative(net, 7).passed
    assert validity(net, 7, limit=0).conservative.passed
    assert not check_conservative(net, 0).passed
    bad = validity(net, 0, limit=0).conservative
    # 128 distinct pairs, then the new pairs among 2 witnesses of each of the 36 chains
    assert not bad.passed and bad.checked == 200 and SAMPLES == 128 and bad.counterexamples
    # each sampled counterexample is a violation over all pairs too:
    # c'_k = s'_k ^ a_k ^ b_k exceeds c_k (c_0 = 0 flags a stale s'_0)
    for a, b, k in bad.counterexamples:
        p = InputPair(8, a, b)
        _, carries = reference_add(p)
        assert (computed_sum(net, p, 0) ^ a ^ b) >> k & 1 > carries >> k & 1


def test_validity_is_all_pairs_within_the_limit_and_the_sample_above():
    from pseudoadder import sae_oracle_simulate

    net = staggered_ksa8()
    for t in (0, 7):
        report = validity(net, t)
        assert report.conservative == check_conservative(net, t)
        assert report.oracle == sae_oracle_simulate(net, t)
        assert report.table == extract_ec_table(net, t)
        # no sample is drawn, so no seed is reported
        assert (report.method, report.seed) == ("exhaustive", None)
        drawn = validity(net, t, limit=7, samples=32, seed=1)
        # 32 distinct pairs, then the new pairs among 2 witnesses of each of 32 chains
        assert (drawn.method, drawn.seed, drawn.conservative.checked, drawn.oracle) == ("sampled", 1, 96, None)


def test_a_sample_of_every_pair_is_exhaustive():
    # samples >= 4^n run the block pass, as n <= limit does: no seed and
    # an oracle; a smaller sample stays sampled, even where its witnesses
    # add back every pair it missed
    n = 4
    net = generate_rca(n, [1] * n, [1] * (n + 1))
    for t in (0, 2 * n):
        every = validity(net, t, limit=n)
        for samples in (4**n, 4**n + 1):
            report = validity(net, t, limit=0, samples=samples, seed=5)
            assert report == every and (report.method, report.seed) == ("exhaustive", None)
        drawn = validity(net, t, limit=0, samples=4**n - 1, seed=5)
        assert (drawn.method, drawn.seed, drawn.oracle) == ("sampled", 5, None)
    filled = validity(generate_rca(3, [1] * 3, [1] * 4), 6, limit=0, samples=63, seed=0)
    assert (filled.method, filled.conservative.checked) == ("sampled", 64)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag"]),
    build_seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 40),
    seed=st.integers(0, 2**64),
    data=st.data(),
)
def test_sampled_conservative_check_counts_the_seeded_sample(kind, build_seed, samples, seed, data):
    net = _netlist(kind, random.Random(build_seed))
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    got = validity(net, t, limit=0, samples=samples, seed=seed)
    if samples >= 4**net.n:  # the block pass checks every pair
        assert got.conservative == check_conservative(net, t)
    else:  # the reference simulates the probes and the sample in batches of their own
        assert got == reference_sampled_validity(net, t, samples, seed)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dense_sample_takes_one_draw_per_pair(n, monkeypatch):
    # a distinct sample above half of the 4^n pairs is one rng.sample; a
    # draw-until-distinct loop would need a coupon collector's ~4^n ln 4^n
    # pair draws just below 4^n.  Random words are counted up to the
    # chain shuffle, which follows the pair sample
    drawn_before_shuffle = []

    class Counting(random.Random):
        words = 0

        def getrandbits(self, k):
            self.words += 1
            return super().getrandbits(k)

        def shuffle(self, x):
            drawn_before_shuffle.append(self.words)
            super().shuffle(x)

    monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=Counting))
    net = generate_rca(n, [1] * n, [1] * (n + 1))
    for samples in (4**n // 2 + 1, 4**n - 1):
        for seed in range(3):
            report = validity(net, 2 * n, limit=0, samples=samples, seed=seed)
            expected = len(reference_sample_words(n, samples, seed))
            assert report.conservative.checked == expected and report.passed
            assert drawn_before_shuffle.pop() <= 2 * samples


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag", "inverted", "ignores_a0", "gated"]),
    build_seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 80),
    seed=st.integers(0, 2**64),
    t=st.sampled_from([0, 1, 2, 1000]),
)
def test_sampled_check_counts_each_pair_once(kind, build_seed, samples, seed, t):
    faulty = {"inverted": inverted_carry_rca2, "ignores_a0": ignores_a0_rca2, "gated": low_bit_gated_rca3}
    net = faulty[kind]() if kind in faulty else _netlist(kind, random.Random(build_seed))
    report = validity(net, t, limit=0, samples=samples, seed=seed)
    # the sample's distinct pairs and witnesses, and a failing chain probe
    # that they missed, each counted once
    for found in (report.conservative.counterexamples, report.independence_counterexamples):
        assert len(set(found)) == len(found)
    if samples >= 4**net.n:  # every pair, in the exhaustive check's lane order
        assert report.conservative == check_conservative(net, t)
    else:  # one batch of the sample and the probes, as in separate batches
        assert report == reference_sampled_validity(net, t, samples, seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**64))
def test_random_witness_generates_its_chain(n, seed):
    rng = random.Random(seed)
    for c in all_chains(n):
        p = InputPair(n, *word_pair(_random_witness(c, n, rng), n))
        assert c in detect_chains(p)


def test_conservative_check_refuses_an_empty_sample():
    # exhaustively this read fails everywhere; a check over no pairs
    # must not report a pass
    net = generate_rca(6, [1] * 6, [1] * 7)
    assert check_conservative(net, 0).violations == 8160
    with pytest.raises(ValueError, match="samples must be at least 1"):
        validity(net, 0, limit=0, samples=0)


def test_extract_ksa128_in_bounded_memory():
    import tracemalloc

    net = generate_ksa(128, 1)
    extract_ec_table(net, 2)  # warm
    tracemalloc.start()
    try:
        ec = extract_ec_table(net, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ec.n == 128 and ec.nonzero()
    # the 8,256 probe words and the 129 output masks each transposed as one
    # string peaked at 5.77 MB, with the words in chunks at 2.83 MB; with the
    # masks in column bands too, no string passes TRANSPOSE_ROWS^2 digits and
    # the peak is 1.27-1.39 MB
    assert peak < 1_600_000, f"extract_ec_table peaked at {peak / 1e6:.2f} MB"


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
    swept = dict(ec_table_sweep(net, times))
    for t in (0, 4, 7, 10, 11):
        assert swept[t] == extract_ec_table(net, t)
    # the caller's order, a duplicate time yielding its own pair
    assert [(t, ec) for t, ec in ec_table_sweep(net, [7, 0, 11, 7])] == [
        (t, extract_ec_table(net, t)) for t in (7, 0, 11, 7)
    ]
    # tables before the first failing T arrive, then the error names its chain
    stream = ec_table_sweep(inverted_carry_rca2(), [0, 1, 2, 3])
    assert [t for t, _ in islice(stream, 2)] == [0, 1]
    with pytest.raises(ConservativenessError, match="T=2") as err:
        next(stream)
    assert err.value.chain == CarryChain(2, 2)


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
        report = validity(net, q, limit=0, samples=48, seed=1)
        assert report.passed, report.independence_counterexamples


def test_assumption_check_refuses_fewer_than_one_sample():
    net = ignores_a0_rca2()
    assert not validity(net, 1000, limit=0, samples=1).passed
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            validity(net, 1000, limit=0, samples=samples)


def test_ignored_input_fails_commutativity():
    # reading a0 as 0 breaks s'(0, 1) == s'(1, 0); the verdict fails on
    # the probe of chain (1, 1), whose read (1, 1) is (0, 1)'s
    net = ignores_a0_rca2()
    assert computed_sum(net, InputPair(2, 0, 1), 1000) != computed_sum(net, InputPair(2, 1, 0), 1000)
    for limit in (0, 2):
        report = validity(net, 1000, limit=limit, samples=16, seed=0)
        assert not report.passed and report.table is None
        assert report.probe_error == "probe for chain CarryChain(i=1, j=1) reads a spurious carry at T=1000"


def test_witnesses_catch_a_fault_confined_to_long_chains():
    # the random witnesses of long chains find the fault on every seed;
    # 128 uniform pairs alone found it on 3 of 20 seeds
    net = long_gated_rca16()
    for seed in range(5):
        report = validity(net, 1000, samples=128, seed=seed)
        assert report.conservative.passed and not report.passed, seed
        assert all(k == 13 for _, _, k in report.independence_counterexamples)


def test_low_bit_gating_fails_independence():
    net = low_bit_gated_rca3()
    report = validity(net, 1000, limit=0, samples=64, seed=0)
    assert not report.independent


def test_a_fault_at_the_carry_out_fails_independence_there_alone():
    # every probe reads its chain with a0 clear but (1, 2)'s, whose a0 is its generate; so
    # (3, 2) and (3, 3), which hold chain (2, 2) with a0 set, miss the carry out; a sample
    # of 15 of the 16 pairs holds at least one of them
    net = carry_out_gated_rca2()
    exhaustive, sampled = validity(net, 1000), validity(net, 1000, limit=0, samples=15)
    assert (exhaustive.method, sampled.method) == ("exhaustive", "sampled")
    for report in (exhaustive, sampled):
        assert report.conservative.passed and not report.passed
        assert {k for _, _, k in report.independence_counterexamples} == {2}
    assert exhaustive.independence_counterexamples == [(3, 2, 2), (3, 3, 2)]
    assert set(sampled.independence_counterexamples) <= {(3, 2, 2), (3, 3, 2)}


FIXTURES = {"inverted": inverted_carry_rca2, "ignores_a0": ignores_a0_rca2, "gated": low_bit_gated_rca3,
            "carry_out_gated": carry_out_gated_rca2}


def _any_netlist(kind, build_seed):
    return FIXTURES[kind]() if kind in FIXTURES else _netlist(kind, random.Random(build_seed))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag", *FIXTURES]),
    build_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_rule_equals_the_per_pair_reference(kind, build_seed, data):
    net = _any_netlist(kind, build_seed)
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    n = net.n
    expected = reference_rule(net, t)
    # the exhaustive block pass, reached within the limit or by a sample
    # of every pair, and a sample of all pairs but one, pair by pair
    every = [validity(net, t), validity(net, t, limit=0, samples=4**n)]
    sampled = validity(net, t, limit=0, samples=4**n - 1)
    if expected is None:
        assert all(report.table is None and not report.passed for report in (*every, sampled))
        return
    leaving, mispredicted = expected
    for report in every:
        assert report.independence_counterexamples == mispredicted[:10]
        assert report.passed == (leaving == 0 and not mispredicted)
    # the sample's mispredicted pairs (a witness may add back the one
    # missed pair), by lowest bit, then by lane
    lane = {word: k for k, word in enumerate(reference_sample_words(n, 4**n - 1, 0))}
    among = [c for c in mispredicted if pair_word(c[0], c[1], n) in lane]
    among.sort(key=lambda c: (c[2], lane[pair_word(c[0], c[1], n)]))
    assert sampled.independence_counterexamples == among[:10]
    assert sampled.passed == (sampled.conservative.passed and not among)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["rca", "ksa", "dag", *FIXTURES]),
    build_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_passing_rule_implies_commutativity(kind, build_seed, data):
    # a pair's prediction depends on its chains and true sum alone, both
    # symmetric in a and b, so a read that passes on every pair commutes
    net = _any_netlist(kind, build_seed)
    n = net.n
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    if validity(net, t).passed:
        sums = PairSweep(net, times=[t]).lane_sums(t)
        assert all(sums[pair_word(a, b, n)] == sums[pair_word(b, a, n)] for a in range(1 << n) for b in range(a))


def test_the_verdict_is_the_three_premise_verdict_on_the_fixtures():
    # the read times that passed before the one rule, when conservativeness,
    # commutativity and per-chain witness independence were three checks
    # (the last two on a seeded sample) and a failing probe failed the read
    passed_before = {
        staggered_ksa8: (range(12), [*range(1, 12)]),
        lambda: generate_ksa(8, 1): (range(12), [*range(2, 12)]),
        inverted_carry_rca2: ([*range(8), 1000], [1]),
        ignores_a0_rca2: ([*range(8), 1000], []),
        low_bit_gated_rca3: ([*range(8), 1000], [1]),
    }
    for build, (times, passed) in passed_before.items():
        net = build()
        assert [t for t in times if validity(net, t).passed] == passed


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["rca", "ksa", "dag"]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sweep_tables_and_tallies_equal_their_checked_dict_forms(kind, seed, data):
    from pseudoadder import ChainErrorTable, analyze_table, sae_oracle_chains
    from pseudoadder.chains import canonical_word

    net = _netlist(kind, random.Random(seed))
    n = net.n
    halves = st.integers(0, 2 * int(net.arrival_time()) + 2).map(lambda x: Fraction(x, 2))
    times = data.draw(st.lists(halves, min_size=1, max_size=4), label="times")
    tables = []
    with contextlib.suppress(ConservativenessError):  # a DAG's probe may leave the model
        tables.extend(ec_table_sweep(net, times))
    # each probe read by the event-driven simulator, the library's independent oracle
    probes = {c: simulate(net, InputPair(n, *word_pair(canonical_word(c, n), n))) for c in all_chains(n)}
    for t, table in tables:
        checked = ChainErrorTable(n, dict(table.nonzero()))
        assert table == checked and repr(table) == repr(checked)
        assert table.to_json_dict() == checked.to_json_dict()
        for c, trace in probes.items():
            read = sum(trace.value_at(gid, t) << k for k, gid in net.outputs.items())
            assert table.get(*c) == checked.get(*c) == (1 << c.j) - read, (t, c)
        for i, j in ((0, 1), (0, 0), (1, n + 1), (n + 1, n + 1), (2, 1), (n, n - 1)):
            assert table.get(i, j) == 0
        # the public constructor still checks every entry
        c = data.draw(st.sampled_from(all_chains(n)), label="chain")
        for bad in ({c: 1.0}, {c: Fraction(1)}, {c: 1 << n + 1}, {c: -(1 << n + 1)}, {(0, c.j): 1},
                    {(c.i, n + 1): 1}, {(c.j + 1, c.j): 1}):
            with pytest.raises(ValueError):
                ChainErrorTable(n, bad)
        try:
            fast = analyze_table(table)
        except ValueError:  # a table that breaks the sign law has no tallies
            continue
        oracle, erring = sae_oracle_chains(table), [c for c, _ in table.nonzero()]
        for tally, every in ((fast.nu_plus, oracle.nu_plus), (fast.nu_minus, oracle.nu_minus)):
            assert tally == {c: every[c] for c in erring} and {c: every[c] for c in erring} == tally
            assert list(tally) == erring and len(tally) == len(erring)
            for c in all_chains(n):
                if c in erring:
                    assert tally[c] == tally[c.i, c.j] == every[c]
                else:
                    with pytest.raises(KeyError):
                        tally[c.i, c.j]
            for off in ((0, 1), (1, n + 1), (2, 1), "x"):
                assert off not in tally


def test_a_probe_the_sample_missed_counts_from_its_own_lane():
    # one pair and two witnesses of one chain miss the failing probe here
    # (the last in rank order, then the first); its own lane of the batch
    # is counted after the sample
    for build, seed, probe in ((inverted_carry_rca2, 0, (2, 2, 1)), (ignores_a0_rca2, 6, (1, 1, 0))):
        net = build()
        report = validity(net, 1000, limit=0, samples=1, seed=seed)
        assert report.table is None and report.conservative.counterexamples == [probe]
        assert report == reference_sampled_validity(net, 1000, 1, seed)
