"""Maximum absolute error and the chain sets it ranges over.

Make each chain (i, j) a vertex weighted by its error and draw an edge
from one chain to another exactly when the second starts after the
first ends: the paths of this compatibility DAG are one-to-one with the
chain sets an input pair can generate, so the maximum absolute error is
``max(-w_min, w_max)`` over path weights.  :func:`iter_chain_sets`
enumerates the paths as a reference; :func:`max_abs_error` reads the
extremes and a witness path off the statistics scan in ``stats``.
"""

from __future__ import annotations

from typing import Iterator

from .model import CarryChain, ChainErrorTable, ChainSet
from .stats import _scan


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

    Both come from the one position scan behind
    :func:`~pseudoadder.stats.analyze_table`: the witness follows its
    back-pointers from the extreme state, prefers the positive side on a
    tie, and holds only erring chains; a zero result returns the empty
    chain set.
    """
    report, witness = _scan(ec)
    return report.max_abs_error, witness
