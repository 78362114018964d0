import pytest

from pseudoadder import (
    CarryChain,
    ChainErrorTable,
    ChainSet,
    decompose_error,
    detect_chains,
    iter_chain_sets,
    max_abs_error,
    random_realizable_table,
    witness_for_chain_set,
)
from conftest import exhaustive_pairs


def test_all_zero_table():
    value, witness = max_abs_error(ChainErrorTable(4))
    assert value == 0
    assert len(witness) == 0


def test_small_golden_example():
    ec = ChainErrorTable(
        2, {CarryChain(1, 1): 2, CarryChain(1, 2): -3, CarryChain(2, 2): 1}
    )
    value, witness = max_abs_error(ec)
    assert value == 3
    # tie between path weight -3 and +3: the positive path wins, and it is
    # the lexicographically smallest one
    assert witness.chains == (CarryChain(1, 1), CarryChain(2, 2))
    # cross-check against all sixteen input pairs
    worst = max(abs(decompose_error(p, ec)[0]) for p in exhaustive_pairs(2))
    assert worst == 3


def test_single_negative_dominant():
    ec = ChainErrorTable(2, {CarryChain(1, 2): -3, CarryChain(1, 1): 1})
    value, witness = max_abs_error(ec)
    assert value == 3
    assert witness.chains == (CarryChain(1, 2),)


def test_witness_drops_zero_weight_tail():
    ec = ChainErrorTable(3, {CarryChain(1, 1): 2, CarryChain(3, 3): 0})
    _, witness = max_abs_error(ec)
    assert witness.chains == (CarryChain(1, 1),)


def test_compat_dag_edge_facts():
    # an edge u -> v of the compatibility DAG is a valid two-chain set
    with pytest.raises(ValueError):
        ChainSet(16, (CarryChain(4, 8), CarryChain(7, 10)))
    ChainSet(16, (CarryChain(4, 8), CarryChain(9, 10)))
    ChainSet(16, (CarryChain(9, 10), CarryChain(12, 14)))
    path = (CarryChain(4, 8), CarryChain(9, 10), CarryChain(12, 14))
    assert ChainSet(16, path).chains == path


def test_paths_are_exactly_realized_chain_sets():
    for n in (1, 2, 3, 4, 5):
        paths = set(iter_chain_sets(n))
        realized = set()
        for p in exhaustive_pairs(n):
            chains = tuple(detect_chains(p))
            if chains:
                realized.add(chains)
        assert realized == paths
        # and every path has a constructible witness
        for path in paths:
            w = witness_for_chain_set(ChainSet(n, path))
            assert tuple(detect_chains(w)) == path


def test_enumerated_chain_sets_n2():
    assert sorted(iter_chain_sets(2)) == sorted(
        [
            (CarryChain(1, 1),),
            (CarryChain(1, 2),),
            (CarryChain(2, 2),),
            (CarryChain(1, 1), CarryChain(2, 2)),
        ]
    )


def test_dp_matches_path_and_pair_enumeration(rng):
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        ec = random_realizable_table(n, rng, density=rng.choice([0.4, 0.8]))
        value, witness = max_abs_error(ec)
        by_paths = max(
            abs(sum(ec.get(c.i, c.j) for c in path)) for path in iter_chain_sets(n)
        )
        by_pairs = max(abs(decompose_error(p, ec)[0]) for p in exhaustive_pairs(n))
        assert value == by_paths == by_pairs
        if value:
            realized = sum(ec.get(c.i, c.j) for c in witness)
            assert abs(realized) == value


def test_witness_is_deterministic(rng):
    ec = random_realizable_table(5, rng, density=0.9)
    first = max_abs_error(ec)
    for _ in range(3):
        assert max_abs_error(ec) == first
