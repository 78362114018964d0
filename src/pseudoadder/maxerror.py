"""Maximum absolute error via a chain-compatibility DAG.

Vertices are all chains (i, j) weighted by their error; an edge runs
from one chain to another exactly when the second starts after the first
ends, so paths correspond one-to-one with the chain sets an input pair
can generate.  The extreme path weights then bound the error of any
single addition, and the maximum absolute error is
``max(-w_min, w_max)`` over nonempty paths.  The DAG is never built:
its edges are implicit in the dynamic program's start order.
"""

from __future__ import annotations

from typing import Iterator

from .model import CarryChain, ChainErrorTable, ChainSet


def iter_chain_sets(n: int) -> Iterator[tuple[CarryChain, ...]]:
    """All nonempty tuples of disjoint chains in ascending order.

    These are exactly the paths of the compatibility DAG.
    """

    def extend(start: int) -> Iterator[tuple[CarryChain, ...]]:
        for i in range(start, n + 1):
            for j in range(i, n + 1):
                head = (CarryChain(i, j),)
                yield head
                for tail in extend(j + 1):
                    yield head + tail

    return extend(1)


def max_abs_error(ec: ChainErrorTable) -> tuple[int, ChainSet]:
    """Largest possible |error| of any single addition, with a witness.

    Dynamic program in descending start order: the best path from a
    vertex is its weight plus the best continuation after its end (or
    nothing, when every continuation hurts).  Suffix maxima over start
    positions keep the whole pass quadratic.  Ties prefer the
    positive-weight side, then the lexicographically smallest chain
    list; a zero result returns the empty chain set.
    """
    n = ec.n
    best_max: dict[tuple[int, int], int] = {}
    best_min: dict[tuple[int, int], int] = {}
    # suffix_max[t] = best path value over vertices with start >= t
    suffix_max: list[int | None] = [None] * (n + 2)
    suffix_min: list[int | None] = [None] * (n + 2)
    for i in range(n, 0, -1):
        row_max: int | None = None
        row_min: int | None = None
        for j in range(i, n + 1):
            w = ec.get(i, j)
            cont_max = suffix_max[j + 1]
            cont_min = suffix_min[j + 1]
            bmax = w + max(0, cont_max) if cont_max is not None else w
            bmin = w + min(0, cont_min) if cont_min is not None else w
            best_max[i, j] = bmax
            best_min[i, j] = bmin
            row_max = bmax if row_max is None else max(row_max, bmax)
            row_min = bmin if row_min is None else min(row_min, bmin)
        suffix_max[i] = row_max if suffix_max[i + 1] is None else max(row_max, suffix_max[i + 1])
        suffix_min[i] = row_min if suffix_min[i + 1] is None else min(row_min, suffix_min[i + 1])

    w_max = suffix_max[1]
    w_min = suffix_min[1]
    assert w_max is not None and w_min is not None
    result = max(-w_min, w_max)
    if result == 0:
        return 0, ChainSet(n, ())
    if w_max == result:
        witness = _reconstruct(ec, best_max, w_max, positive=True)
    else:
        witness = _reconstruct(ec, best_min, w_min, positive=False)
    return result, ChainSet(n, witness)


def _reconstruct(
    ec: ChainErrorTable,
    best: dict[tuple[int, int], int],
    target: int,
    positive: bool,
) -> tuple[CarryChain, ...]:
    """Lexicographically smallest path achieving the target value.

    Greedy: take the smallest (i, j) whose best path value equals what is
    still needed, then recurse past its end.  A zero-valued continuation
    is dropped, so witnesses never carry dead weight.
    """
    n = ec.n
    chosen: list[CarryChain] = []
    start = 1
    remaining = target
    while True:
        pick = next(
            (CarryChain(i, j) for i in range(start, n + 1) for j in range(i, n + 1) if best[i, j] == remaining),
            None,
        )
        assert pick is not None, "DP value has no realizing vertex"
        chosen.append(pick)
        remaining -= ec.get(pick.i, pick.j)
        if (positive and remaining <= 0) or (not positive and remaining >= 0):
            break
        start = pick.j + 1
    return tuple(chosen)
