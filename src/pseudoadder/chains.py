"""Carry-chain detection and per-pair error decomposition.

A chain (i, j) is present in a pair when position i-1 generates (both
bits 1), positions i..j-1 propagate (bits differ), and the bits agree at
position j.  Chains of one pair never overlap, so a pair's total error
under a conservative pseudo-adder is the sum of its chains' errors, and
the sign of that total is the sign of the leftmost (highest start)
error-contributing chain.
"""

from __future__ import annotations

from .model import CarryChain, ChainErrorTable, ChainSet, InputPair, pair_word, word_pair


def detect_chains(p: InputPair) -> ChainSet:
    """All carry chains generated by the pair, ascending by start."""
    n, a, b = p.n, p.a, p.b
    chains: list[CarryChain] = []
    g = 0
    while g < n:
        if (a >> g) & (b >> g) & 1:
            j = g + 1
            # Bits at and above position n are zero, hence equal: j <= n.
            while j < n and ((a >> j) ^ (b >> j)) & 1:
                j += 1
            chains.append(CarryChain(g + 1, j))
            g = j
        else:
            g += 1
    return ChainSet(n, tuple(chains))


def isolate_chain(c: CarryChain, witness: InputPair) -> InputPair:
    """Zero out every position irrelevant to the chain's appearance.

    Positions i-1..j-1 are copied from the witness (which must generate
    the chain), everything else is cleared.  The result generates exactly
    ``{c}``.
    """
    if CarryChain(*c).validate(witness.n) not in detect_chains(witness):
        raise ValueError(f"witness ({witness.a}, {witness.b}) does not generate {c}")
    mask = ((1 << c.j) - 1) & ~((1 << (c.i - 1)) - 1)
    return InputPair(witness.n, witness.a & mask, witness.b & mask)


def canonical_word(c: CarryChain, n: int) -> int:
    """The standard probe pair of a chain as a lane word
    (:func:`~pseudoadder.model.pair_word`), for a chain ``c`` already
    known to fit width n: both operands carry the generate bit at i-1,
    a also carries ones at i..j-1, and the true sum is exactly ``2**j``."""
    i, j = c  # a chain or its (i, j)
    gen = 1 << (i - 1)
    propagate = (1 << j) - (1 << i)  # bits i..j-1
    return pair_word(gen | propagate, gen, n)


def witness_for_chain_set(chains: ChainSet) -> InputPair:
    """An input pair generating exactly the given disjoint chains."""
    word = 0
    for c in chains:  # a ChainSet's chains fit its width
        word |= canonical_word(c, chains.n)
    p = InputPair(chains.n, *word_pair(word, chains.n))
    assert tuple(detect_chains(p)) == chains.chains
    return p


def decompose_error(
    p: InputPair, ec: ChainErrorTable
) -> tuple[int, list[tuple[CarryChain, int]]]:
    """Split a pair's total error into per-chain contributions.

    Returns ``(total, terms)`` where terms lists every generated chain
    with its table entry (zero entries included).  For any conservative
    pseudo-adder realizing the table, the total equals the true sum minus
    the computed sum.
    """
    if ec.n != p.n:
        raise ValueError(f"width mismatch: table has n={ec.n}, pair has n={p.n}")
    terms = [(c, ec.get(c.i, c.j)) for c in detect_chains(p)]
    return sum(v for _, v in terms), terms


def dominating_chain(p: InputPair, ec: ChainErrorTable) -> CarryChain | None:
    """The leftmost (largest start) generated chain with a nonzero error.

    Its sign equals the sign of the pair's total error; ``None`` when no
    generated chain contributes an error.
    """
    erring = [c for c, v in decompose_error(p, ec)[1] if v]
    return erring[-1] if erring else None  # terms ascend by start
