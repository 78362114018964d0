import random

import pytest

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    all_chains,
    detect_chains,
    dominating_chain,
    nu_single,
    random_realizable_table,
)
from conftest import (
    below_boundary_counts,
    chain_membership,
    condition_table_count,
    count_dominated_pairs,
    exhaustive_pairs,
    nu_pair,
    nu_signed_all,
    suffix_counts,
)


def test_nu_single_examples():
    assert nu_single(8, CarryChain(2, 4)) == 2048
    assert nu_single(1, CarryChain(1, 1)) == 1
    assert nu_single(4, CarryChain(1, 4)) == 8


@pytest.mark.parametrize("n", [4, 6, 8])
def test_nu_single_matches_enumeration(n):
    chains, members = chain_membership(n)
    for c, m in zip(chains, members):
        assert nu_single(n, c) == int(m.sum()), c


def test_nu_pair_examples():
    # adjacent boundary: the shared position is forced to 11
    brute = sum(
        1
        for p in exhaustive_pairs(4)
        if CarryChain(1, 1) in detect_chains(p) and CarryChain(2, 2) in detect_chains(p)
    )
    assert nu_pair(4, CarryChain(1, 1), CarryChain(2, 2)) == brute == 8


def test_nu_pair_includes_fig_pair():
    from pseudoadder import InputPair

    p = InputPair(8, 86, 59)
    found = detect_chains(p)
    assert CarryChain(2, 4) in found and CarryChain(5, 7) in found
    assert nu_pair(8, CarryChain(2, 4), CarryChain(5, 7)) >= 1


def test_nu_pair_overlap_and_order():
    assert nu_pair(4, CarryChain(1, 3), CarryChain(2, 4)) == 0
    with pytest.raises(ValueError):
        nu_pair(4, CarryChain(2, 4), CarryChain(1, 3))


@pytest.mark.parametrize("n", [4, 6])
def test_nu_pair_matches_enumeration(n):
    chains, members = chain_membership(n)
    for x, c1 in enumerate(chains):
        for y, c2 in enumerate(chains):
            if c2.i > c1.i:
                want = int((members[x] & members[y]).sum())
                assert nu_pair(n, c1, c2) == want, (c1, c2)


@pytest.mark.parametrize("n", [4, 6])
def test_count_dominated_pairs_matches_condition_enumeration(n):
    for ij in all_chains(n):
        for pq in all_chains(n):
            if pq.i > ij.j:
                assert count_dominated_pairs(n, ij, pq) == condition_table_count(
                    n, ij, pq
                ), (ij, pq)


def test_count_dominated_pairs_empty_gap():
    # p = j + 2: no free positions between the chains, gap factor is one
    got = count_dominated_pairs(6, CarryChain(1, 2), CarryChain(4, 6))
    assert got == condition_table_count(6, CarryChain(1, 2), CarryChain(4, 6))


def test_count_dominated_pairs_rejects_bad_order():
    with pytest.raises(ValueError):
        count_dominated_pairs(6, CarryChain(3, 4), CarryChain(2, 6))


@pytest.mark.parametrize("n", [5, 7])
def test_quoted_closed_forms_overcount(n):
    """Two closed forms sometimes quoted for these joint counts disagree
    with direct enumeration by fixed factors; this pins the delta.

    For a top chain ending at the last position the quoted
    2^(n-p) 2^(j-i) 4^((p-1)-(j-i+1)) doubles the true count unless the
    chains are adjacent; otherwise the quoted
    3^(n-q+1) 2^(q-p) 2^(j-i) 4^((p-1)-(j-i+1)) is 9x (adjacent) or 18x
    the true count: one extra free-position in the 4-exponent and two
    extra tail positions in the 3-exponent.
    """
    for ij in all_chains(n):
        for pq in all_chains(n):
            if pq.i <= ij.j:
                continue
            i, j = ij
            p, q = pq
            true_count = count_dominated_pairs(n, ij, pq)
            quoted_4 = 4 ** ((p - 1) - (j - i + 1))
            if q == n:
                quoted = 2 ** (n - p) * 2 ** (j - i) * quoted_4
                factor = 1 if p == j + 1 else 2
            else:
                quoted = 3 ** (n - q + 1) * 2 ** (q - p) * 2 ** (j - i) * quoted_4
                factor = 9 if p == j + 1 else 18
            assert quoted == factor * true_count, (ij, pq)


def test_suffix_counts_totals():
    rng = random.Random(4)
    for n in (1, 3, 6):
        ec = random_realizable_table(n, rng)
        free, bounded = suffix_counts(ec)
        assert free[n] == (0, 0, 1)
        assert bounded[n] == (0, 0, 1)
        for t in range(n + 1):
            assert sum(free[t]) == 4 ** (n - t)
        for t in range(n):
            assert sum(bounded[t]) == 2 * 4 ** (n - t - 1)
        below = below_boundary_counts(ec)
        for m in range(n + 1):
            assert sum(below[m]) == 4**m


def test_suffix_counts_zero_table():
    ec = ChainErrorTable(5)
    free, _ = suffix_counts(ec)
    for t in range(6):
        assert free[t] == (0, 0, 4 ** (5 - t))


def test_whole_pair_classification_matches_enumeration(rng):
    # free[0] classifies complete assignments: cross-check per pair
    for _ in range(12):
        n = rng.choice([2, 3, 4, 5])
        ec = random_realizable_table(n, rng, density=0.8)
        free, _ = suffix_counts(ec)
        tally = {1: 0, -1: 0, 0: 0}
        for p in exhaustive_pairs(n):
            dom = dominating_chain(p, ec)
            if dom is None:
                tally[0] += 1
            else:
                tally[1 if ec.get(dom.i, dom.j) > 0 else -1] += 1
        assert free[0] == (tally[1], tally[-1], tally[0])


def test_nu_signed_single_error_chain():
    for n, c in [(4, CarryChain(2, 3)), (6, CarryChain(1, 6))]:
        ec = ChainErrorTable(n, {c: 1 << c.j})
        plus, minus = nu_signed_all(ec)[c]
        assert plus == nu_single(n, c)
        assert minus == 0
        neg = ChainErrorTable(n, {c: -(1 << (c.i - 1))}) if c.j > c.i else None
        if neg:
            plus, minus = nu_signed_all(neg)[c]
            assert (plus, minus) == (0, nu_single(n, c))


def test_nu_signed_matches_enumeration(rng):
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5, 6])
        ec = random_realizable_table(n, rng, density=rng.choice([0.3, 0.7, 1.0]))
        got = nu_signed_all(ec)
        want = {c: [0, 0] for c in all_chains(n)}
        for p in exhaustive_pairs(n):
            dom = dominating_chain(p, ec)
            if dom is None:
                continue
            sigma = 0 if ec.get(dom.i, dom.j) > 0 else 1
            for c in detect_chains(p):
                want[c][sigma] += 1
        for c in all_chains(n):
            assert got[c] == tuple(want[c]), (c, ec.nonzero())
