import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    InputPair,
    reference_add,
)
from pseudoadder.model import bit
from pseudoadder.sweep import read_carries


def test_bit_examples():
    assert bit(86, 1) == 1  # 86 = 0b1010110
    assert bit(86, 0) == 0
    assert bit(86, 8) == 0  # operand top bit is always 0


def test_bit_rejects_negative_position():
    with pytest.raises(ValueError):
        bit(86, -1)


def test_input_pair_validation():
    with pytest.raises(ValueError):
        InputPair(4, 16, 0)
    with pytest.raises(ValueError):
        InputPair(4, 0, -1)
    with pytest.raises(ValueError):
        InputPair(0, 0, 0)
    p = InputPair(4, 5, 9)
    assert bit(p.a, 4) == 0 and bit(p.b, 4) == 0


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


def recover_carries(s_prime, p):
    """The validity rule on one lane: packed c' and per-position violations."""
    _, carries = reference_add(p)
    c_prime, bad = read_carries(
        [bit(s_prime, k) for k in range(p.n + 1)],
        [bit(p.a, k) for k in range(p.n)],
        [bit(p.b, k) for k in range(p.n)],
        [bit(carries, k) for k in range(p.n + 1)],
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


def test_chain_error_table_json_roundtrip():
    table = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    assert json.loads(json.dumps(table.to_json_dict())) == {
        "n": 8,
        "ec": [
            {"i": 2, "j": 4, "value": 16},
            {"i": 5, "j": 7, "value": -96},
        ],
    }
