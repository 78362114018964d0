import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    ChainSet,
    ConservativeReport,
    Gate,
    GateKind,
    InputPair,
    KsaDelays,
    StatsReport,
    reference_add,
)
from pseudoadder.model import pair_word, word_pair
from pseudoadder.sweep import read_carries


def test_input_pair_validation():
    with pytest.raises(ValueError):
        InputPair(4, 16, 0)
    with pytest.raises(ValueError):
        InputPair(4, 0, -1)
    with pytest.raises(ValueError):
        InputPair(0, 0, 0)
    p = InputPair(4, 5, 9)
    assert p.a >> 4 == 0 and p.b >> 4 == 0  # bit n and above are 0


VALUE_TYPES = {  # a maker of instances that differ in one field, and that field
    "Gate": (lambda d: Gate("s0", "XOR2", ("a0", "b0"), d), "delay"),
    "InputPair": (lambda b: InputPair(4, 5, b), "b"),
    "KsaDelays": (lambda d: KsaDelays.uniform(2, d), "pg"),
    "ChainSet": (lambda j: ChainSet(4, (CarryChain(1, j),)), "chains"),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_compare_by_field_hash_and_refuse_assignment(name):
    make, field = VALUE_TYPES[name]
    one, same, other = make(1), make(1), make(2)
    assert one == same and hash(one) == hash(same) and one != other
    assert len({one, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(other, field))
    assert one == same
    for twin in (copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert twin == one and type(twin) is type(one)


def test_replace_checks_like_the_constructor():
    gate = Gate("s0", GateKind.XOR2, ("a0", "b0"), 1)
    assert gate._replace(kind="AND2", delay="1/2") == Gate("s0", GateKind.AND2, ("a0", "b0"), Fraction(1, 2))
    with pytest.raises(ValueError, match="^gate 's0': delay must be non-negative, got -1$"):
        gate._replace(delay=-1)
    assert InputPair(4, 5, 1)._replace(b=15) == InputPair(4, 5, 15)
    with pytest.raises(ValueError, match="^b=16 out of range for width 4$"):
        InputPair(4, 5, 1)._replace(b=16)


def test_value_and_report_types_keep_their_constructors():
    gate = Gate("a0", GateKind.INPUT)
    assert (gate.inputs, gate.delay) == ((), 0) and not hasattr(gate, "__dict__")
    assert KsaDelays(pg=(1, 1), prefix=((1, 1),), sums=(1, 1, 1)) == KsaDelays.uniform(2, 1)
    report = ConservativeReport(read_time=Fraction(3, 2))
    assert (report.read_time, report.checked, report.violations, report.counterexamples) == (Fraction(3, 2), 0, 0, [])
    stats = StatsReport(n=1, sae=2, er_avg=Fraction(1, 2))
    assert (stats.n, stats.sae, stats.er_avg, stats.mse, stats.max_abs_error, stats.nu_plus) == (1, 2, Fraction(1, 2), None, None, None)
    assert stats == StatsReport(1, 2, Fraction(1, 2)) != StatsReport(1, 2, Fraction(1, 2), mse=Fraction(1))
    # a failed comparison of reports shows their fields
    assert repr(stats) == ("StatsReport(n=1, sae=2, er_avg=Fraction(1, 2), mse=None, max_abs_error=None, "
                           "nu_plus=None, nu_minus=None)")
    assert repr(report) == "ConservativeReport(read_time=Fraction(3, 2), checked=0, violations=0, counterexamples=[])"


def test_reference_add_fig_pair():
    s, carries = reference_add(InputPair(8, 86, 59))
    assert s == 145
    assert carries == 0b011111100


def test_reference_add_trivial():
    assert reference_add(InputPair(4, 0, 0)) == (0, 0)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_reference_add_full_ripple(n):
    s, carries = reference_add(InputPair(n, (1 << n) - 1, 1))
    assert s == 1 << n
    assert carries == (1 << (n + 1)) - 2  # bits 1..n set


def test_reference_add_exhaustive_small():
    for n in (1, 2, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                sa, ca = reference_add(InputPair(n, a, b))
                sb, cb = reference_add(InputPair(n, b, a))
                assert sa == a + b == sb
                assert ca == cb


@given(
    n=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_reference_add_matches_machine_addition(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert reference_add(InputPair(n, a, b))[0] == a + b


@given(n=st.integers(min_value=1, max_value=70), data=st.data())
def test_pair_words_cover_every_pair_of_the_width_once(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    word = pair_word(a, b, n)
    assert 0 <= word < 1 << 2 * n
    assert word_pair(word, n) == (a, b)
    assert pair_word(*word_pair(word, n), n) == word


def recover_carries(s_prime, p):
    """The validity rule on one lane: packed c' and per-position violations."""
    _, carries = reference_add(p)
    c_prime, bad = read_carries(
        [s_prime >> k & 1 for k in range(p.n + 1)],
        [p.a >> k & 1 for k in range(p.n)],
        [p.b >> k & 1 for k in range(p.n)],
        [carries >> k & 1 for k in range(p.n + 1)],
    )
    return sum(ck << k for k, ck in enumerate(c_prime)), bad


def test_recover_carries_fig_pair():
    # computed sum 0b011100001 on (86, 59) implies carries 0b010001100,
    # all of them true carries
    c_prime, bad = recover_carries(0b011100001, InputPair(8, 86, 59))
    assert c_prime == 0b010001100
    assert not any(bad)


def test_recover_carries_correct_sum_gives_true_carries():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 12)
        p = InputPair(n, rng.randrange(1 << n), rng.randrange(1 << n))
        s, carries = reference_add(p)
        c_prime, bad = recover_carries(s, p)
        assert c_prime == carries
        assert not any(bad)


def test_read_carries_flags_stale_bit_and_spurious_carry():
    p = InputPair(2, 1, 0)  # 1 + 0: no carries anywhere
    assert recover_carries(0, p)[1] == [1, 0, 0]  # s'_0 stale
    assert recover_carries(0b101, p)[1] == [0, 0, 1]  # c'_2 = 1 > c_2 = 0


def test_chain_error_table_validation():
    with pytest.raises(ValueError):
        ChainErrorTable(4, {CarryChain(0, 1): 1})
    with pytest.raises(ValueError):
        ChainErrorTable(4, {CarryChain(2, 1): 1})
    with pytest.raises(ValueError):
        ChainErrorTable(4, {CarryChain(1, 1): 1 << 5})  # |e| must stay below 2^(n+1)
    for value in (2.5, Fraction(7, 2), Fraction(4), True):  # never truncated or coerced
        with pytest.raises(ValueError, match="must be an int"):
            ChainErrorTable(2, {CarryChain(1, 1): value})
    table = ChainErrorTable(4, {CarryChain(1, 2): -3, CarryChain(2, 2): 0})
    assert table.get(1, 2) == -3
    assert table.get(2, 2) == 0
    assert table.nonzero() == [(CarryChain(1, 2), -3)]
    # equal by width and entries; a zero entry is no entry
    assert table == ChainErrorTable(4, {CarryChain(1, 2): -3})
    assert table != ChainErrorTable(5, {CarryChain(1, 2): -3})
    assert table != ChainErrorTable(4, {CarryChain(1, 2): -2})
    assert table != ChainErrorTable(4, {CarryChain(1, 2): -3, CarryChain(3, 4): 1})
    assert table != {"n": 4, "ec": [{"i": 1, "j": 2, "value": -3}]} and table != table.to_json_dict()
    assert repr(table) == "ChainErrorTable(n=4, nonzero=1)"
    with pytest.raises(TypeError):
        hash(table)


def test_chain_error_table_json_roundtrip():
    table = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    assert json.loads(json.dumps(table.to_json_dict())) == {
        "n": 8,
        "ec": [
            {"i": 2, "j": 4, "value": 16},
            {"i": 5, "j": 7, "value": -96},
        ],
    }
