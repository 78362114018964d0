import random

import pytest

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    ChainSet,
    InputPair,
    all_chains,
    decompose_error,
    detect_chains,
    dominating_chain,
    isolate_chain,
    random_realizable_table,
    reference_add,
    witness_for_chain_set,
)
from pseudoadder.chains import canonical_word
from pseudoadder.model import word_pair
from conftest import chains_by_scan, exhaustive_pairs


def test_detect_fig_pair():
    assert list(detect_chains(InputPair(8, 86, 59))) == [
        CarryChain(2, 4),
        CarryChain(5, 7),
    ]


def test_detect_trivial_cases():
    assert list(detect_chains(InputPair(8, 0, 0))) == []
    assert list(detect_chains(InputPair(1, 1, 1))) == [CarryChain(1, 1)]
    assert list(detect_chains(InputPair(2, 3, 1))) == [CarryChain(1, 2)]


def test_detect_matches_definition_exhaustively():
    for n in (1, 2, 3, 4, 5, 6):
        for p in exhaustive_pairs(n):
            assert list(detect_chains(p)) == chains_by_scan(p)


def test_chain_set_invariants_enforced():
    with pytest.raises(ValueError):
        ChainSet(4, (CarryChain(1, 2), CarryChain(2, 3)))
    with pytest.raises(ValueError):
        ChainSet(4, (CarryChain(3, 4), CarryChain(1, 2)))


def test_disjointness_exhaustive_n8():
    # ChainSet construction already rejects overlap; check explicitly too.
    for p in exhaustive_pairs(8):
        chains = list(detect_chains(p))
        for x, c1 in enumerate(chains):
            for c2 in chains[x + 1 :]:
                assert c1.j < c2.i


def test_sum_pattern_inside_chains_exhaustive_n8():
    # the correct sum has zeros across i..j-1 and a one at j
    for p in exhaustive_pairs(8):
        s, _ = reference_add(p)
        for c in detect_chains(p):
            for k in range(c.i, c.j):
                assert (s >> k) & 1 == 0
            assert (s >> c.j) & 1 == 1


def test_isolate_chain_examples():
    iso = isolate_chain(CarryChain(2, 4), InputPair(8, 86, 59))
    assert (iso.a, iso.b) == (6, 10)
    assert list(detect_chains(iso)) == [CarryChain(2, 4)]

    assert isolate_chain(CarryChain(1, 1), InputPair(1, 1, 1)) == InputPair(1, 1, 1)

    iso57 = isolate_chain(CarryChain(5, 7), InputPair(8, 86, 59))
    assert list(detect_chains(iso57)) == [CarryChain(5, 7)]


def test_isolate_chain_requires_generating_witness():
    p = InputPair(8, 86, 59)
    with pytest.raises(ValueError, match="does not generate"):
        isolate_chain(CarryChain(1, 1), p)
    with pytest.raises(ValueError, match="does not generate"):
        isolate_chain(CarryChain(2, 3), p)  # (2, 4) is the chain there
    for outside in (CarryChain(0, 3), CarryChain(3, 9)):
        with pytest.raises(ValueError, match="violates"):
            isolate_chain(outside, p)


def test_isolation_soundness_exhaustive():
    for n in (1, 2, 3, 4, 5, 6):
        for p in exhaustive_pairs(n):
            for c in detect_chains(p):
                assert list(detect_chains(isolate_chain(c, p))) == [c]


def test_canonical_pair_generates_only_its_chain():
    for n in (1, 4, 8):
        for c in all_chains(n):
            probe = InputPair(n, *word_pair(canonical_word(c, n), n))
            assert list(detect_chains(probe)) == [c]
            assert probe.a + probe.b == 1 << c.j


def test_decompose_fig_pair():
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    total, terms = decompose_error(InputPair(8, 86, 59), ec)
    assert total == -80
    assert terms == [(CarryChain(2, 4), 16), (CarryChain(5, 7), -96)]


def test_decompose_trivial_cases():
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16})
    assert decompose_error(InputPair(8, 0, 0), ec) == (0, [])
    zeros = ChainErrorTable(8)
    total, terms = decompose_error(InputPair(8, 86, 59), zeros)
    assert total == 0
    assert [t for t, _ in terms] == [CarryChain(2, 4), CarryChain(5, 7)]


def test_decompose_width_mismatch():
    with pytest.raises(ValueError):
        decompose_error(InputPair(4, 1, 1), ChainErrorTable(8))


def test_dominating_chain_examples():
    p = InputPair(8, 86, 59)
    ec = ChainErrorTable(8, {CarryChain(2, 4): 16, CarryChain(5, 7): -96})
    assert dominating_chain(p, ec) == CarryChain(5, 7)
    ec2 = ChainErrorTable(8, {CarryChain(2, 4): 16})
    assert dominating_chain(p, ec2) == CarryChain(2, 4)
    assert dominating_chain(InputPair(8, 0, 0), ec) is None
    assert dominating_chain(p, ChainErrorTable(8)) is None


def test_total_error_sign_matches_dominating_chain(rng):
    # with every entry realizable, the dominating chain fixes the sign
    for _ in range(40):
        n = rng.choice([3, 4, 5, 6])
        ec = random_realizable_table(n, rng, density=0.7)
        for p in exhaustive_pairs(n):
            total, _ = decompose_error(p, ec)
            if total:
                dom = dominating_chain(p, ec)
                assert dom is not None
                assert (total > 0) == (ec.get(dom.i, dom.j) > 0)


def test_witness_for_chain_set_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 10)
        chains: list[CarryChain] = []
        start = 1
        while start <= n:
            j = rng.randint(start, n)
            chains.append(CarryChain(start, j))
            start = j + rng.randint(1, 3)
        if rng.random() < 0.3:
            chains = chains[:-1]
        cs = ChainSet(n, tuple(chains))
        w = witness_for_chain_set(cs)
        assert tuple(detect_chains(w)) == cs.chains
