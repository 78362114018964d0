import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    CarryChain,
    ConservativeReport,
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
from conftest import exhaustive_pairs
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
    (254, 2), reads a spurious carry, and a 128-pair sample misses it."""
    base = generate_rca(11, [1] * 11, [1] * 12)
    low = ["b2", "b3", "b4", "b5", "b6", "b7", *(f"{x}{k}" for x in "ab" for k in (8, 9, 10))]
    gates = [*base.gates, *(Gate(f"n{s}", GateKind.NOT, (s,), 0) for s in low)]
    detector = "a1"
    for k, s in enumerate(["b1", *(f"a{k}" for k in range(2, 8)), *(f"n{s}" for s in low)]):
        gates.append(Gate(f"d{k}", GateKind.AND2, (detector, s), 0))
        detector = f"d{k}"
    gates.append(Gate("s10f", GateKind.OR2, ("s10", detector), 0))
    return Netlist(11, gates, {**base.outputs, 10: "s10f"})


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
    assert not bad.passed and bad.checked == SAMPLES == 128 and bad.counterexamples
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
        assert (report.method, report.seed) == ("exhaustive", 0)
        drawn = validity(net, t, limit=7, samples=32, seed=1)
        assert (drawn.method, drawn.seed, drawn.conservative.checked, drawn.oracle) == ("sampled", 1, 32, None)
        # the other two premises are the sample's either way
        sampled = validity(net, t, limit=7)
        assert report.commutativity_counterexamples == sampled.commutativity_counterexamples
        assert report.independence_counterexamples == sampled.independence_counterexamples


def test_a_sample_of_every_pair_is_exhaustive():
    n = 4
    net = generate_rca(n, [1] * n, [1] * (n + 1))
    for t in (0, 2 * n):
        report = validity(net, t, limit=0, samples=4**n, seed=5)
        assert (report.method, report.seed, report.oracle) == ("exhaustive", 5, None)
        assert report.conservative == check_conservative(net, t)


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
    n = net.n
    t = Fraction(data.draw(st.integers(0, 2 * int(net.arrival_time()) + 2), label="2T"), 2)
    # the reference: the first `samples` distinct pairs drawn from
    # Random(seed), a then b (every pair, in word order, when samples >=
    # 4^n; one rng.sample of words above half of them), run as a batch of
    # its own and counted lane by lane
    rng = random.Random(seed)
    if samples >= 4**n:
        words = list(range(4**n))
    elif 2 * samples > 4**n:
        words = rng.sample(range(4**n), samples)
    else:
        words = []
    while len(words) < min(samples, 4**n):
        word = pair_word(rng.randrange(1 << n), rng.randrange(1 << n), n)
        if word not in words:
            words.append(word)
    sw = PairSweep(net, words=words, times=[t])
    expected = ConservativeReport(read_time=t)
    expected.add(sw, sw.full)
    got = validity(net, t, limit=0, samples=samples, seed=seed).conservative
    assert (got.checked, got.violations, got.counterexamples) == (
        expected.checked, expected.violations, expected.counterexamples)


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
            assert report.conservative.checked == samples and report.passed
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
    found = report.conservative.counterexamples
    assert report.conservative.checked == min(samples, 4**net.n)
    assert len(set(found)) == len(found)
    commuted = report.commutativity_counterexamples
    assert len(set(commuted)) == len(commuted)
    if samples >= 4**net.n:  # every pair, in the exhaustive check's lane order
        assert report.conservative == check_conservative(net, t)


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
        assert report.passed, (
            report.commutativity_counterexamples,
            report.independence_counterexamples,
        )


def test_assumption_check_refuses_fewer_than_one_sample():
    net = ignores_a0_rca2()
    assert not validity(net, 1000, limit=0, samples=1).commutative
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            validity(net, 1000, limit=0, samples=samples)


def test_ignored_input_fails_commutativity():
    net = ignores_a0_rca2()
    report = validity(net, 1000, limit=0, samples=16, seed=0)
    assert not report.commutative
    assert (0, 1) in report.commutativity_counterexamples or (
        1,
        0,
    ) in report.commutativity_counterexamples


def test_low_bit_gating_fails_independence():
    net = low_bit_gated_rca3()
    report = validity(net, 1000, limit=0, samples=64, seed=0)
    assert not report.independent
