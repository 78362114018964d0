"""Exact pair counting for carry chains.

Everything here counts input pairs (a, b), 0 <= a, b < 2^n, by the
chains they generate.  Counts are assembled position by position from
the allowed bit-pair choices:

* free position: 4 choices (00, 01, 10, 11)
* generate position (below a chain start): 1 choice (11)
* propagate position (inside a chain): 2 choices (01, 10)
* chain end position j: 2 choices (00, 11) for j < n, forced for j = n
* positions that must not start a new chain: 3 choices (00, 01, 10)

The sign-classified counts ``nu_plus``/``nu_minus`` (pairs generating a
chain whose dominating, i.e. leftmost error-contributing, chain is
positive/negative) come from a quadratic-time dynamic program over
boundary positions, split into three families:

* ``free[t]``: positions t..n-1 unconstrained, classified by the
  dominating chain among those generated at or above t;
* ``bounded[t]``: same, but position t restricted to {00, 11} (the
  situation just past a chain end);
* ``below[m]``: positions 0..m-1 unconstrained given position m holds a
  bit-pair that ends chains, classified by the dominating chain among
  those ending at or below m.

The third family catches pairs whose dominating chain sits *below* a
zero-error chain; it contributes nothing to the error sums (the factor
multiplies a zero entry) but is required for the per-chain tallies to
match their definition exactly.
"""

from __future__ import annotations

from .model import CarryChain, ChainErrorTable

#: pair counts split by dominating-chain sign, as (plus, minus, none)
Tally = tuple[int, int, int]


def nu_single(n: int, c: CarryChain) -> int:
    """Number of pairs generating the chain (i, j).

    Positions below the generate are free, the chain pattern is fixed,
    the end position has two equal-bits choices unless it is the forced
    top position, and everything above is free.
    """
    c = CarryChain(*c).validate(n)
    end = 1 if c.j == n else 2 * 4 ** (n - 1 - c.j)
    return 4 ** (c.i - 1) * 2 ** (c.j - c.i) * end


def suffix_counts(ec: ChainErrorTable) -> tuple[tuple[Tally, ...], tuple[Tally, ...]]:
    """Classify suffix assignments by their dominating chain's sign, as
    ``(free, bounded)`` indexed by boundary t = 0..n.

    ``free[t]`` sums to 4^(n-t); ``bounded[t]`` sums to 2*4^(n-t-1) for
    t < n and to 1 for t = n.  Descending from t = n: a non-generate
    choice at t (3 ways) keeps the classification of the free suffix
    above; the generate choice (11) spawns a chain ending at the first
    equality position q, which claims the dominating slot only when
    nothing above q contributes an error and its own entry is nonzero.
    """
    n = ec.n
    free: list[Tally] = [(0, 0, 0)] * n + [(0, 0, 1)]
    bounded: list[Tally] = [(0, 0, 0)] * n + [(0, 0, 1)]
    for t in range(n - 1, -1, -1):
        gen_p = gen_m = gen_n = 0
        for q in range(t + 1, n + 1):
            ways = 1 << (q - t - 1)
            bp, bm, bn = bounded[q]
            e = ec.get(t + 1, q)
            if e > 0:
                bp, bn = bp + bn, 0
            elif e < 0:
                bm, bn = bm + bn, 0
            gen_p += ways * bp
            gen_m += ways * bm
            gen_n += ways * bn
        fp, fm, fn = free[t + 1]
        free[t] = (3 * fp + gen_p, 3 * fm + gen_m, 3 * fn + gen_n)
        bounded[t] = (fp + gen_p, fm + gen_m, fn + gen_n)
    return tuple(free), tuple(bounded)


def below_boundary_counts(ec: ChainErrorTable) -> tuple[Tally, ...]:
    """Classify assignments below a chain-ending boundary position.

    ``result[m]`` counts assignments of positions 0..m-1, given that
    position m holds equal bits, by the sign of the dominating chain
    among chains ending at or below m.  Recurrence over d, the highest
    equality position below m: choosing 11 there spawns the chain
    (d+1, m); choosing 00 does not; all-unequal leaves no chain at all.
    """
    n = ec.n
    out: list[Tally] = [(0, 0, 1)]
    for m in range(1, n + 1):
        acc_p = acc_m = 0
        acc_n = 1 << m  # every position below m unequal: no chain ends <= m
        for d in range(m):
            ways = 1 << (m - 1 - d)
            ep, em, en = out[d]
            # position d = 00: no chain ends at m, lower classes carry up
            acc_p += ways * ep
            acc_m += ways * em
            acc_n += ways * en
            # position d = 11: chain (d+1, m) exists
            e = ec.get(d + 1, m)
            if e > 0:
                acc_p += ways * 4**d
            elif e < 0:
                acc_m += ways * 4**d
            else:
                acc_p += ways * ep
                acc_m += ways * em
                acc_n += ways * en
        out.append((acc_p, acc_m, acc_n))
    return tuple(out)


def nu_signed_all(ec: ChainErrorTable) -> dict[CarryChain, tuple[int, int]]:
    """(nu_plus, nu_minus) for every chain, from the two class tables.

    For chain (i, j): a signed region above j always dominates; with
    nothing above, the chain itself dominates when its entry is nonzero;
    otherwise the sign comes from the chains below the generate.
    """
    _, bounded = suffix_counts(ec)
    below = below_boundary_counts(ec)
    result: dict[CarryChain, tuple[int, int]] = {}
    for c, e in ec.entries():
        i, j = c
        low_free = 4 ** (i - 1)
        prop = 1 << (j - i)
        gp, gm, gn = bounded[j]
        plus = low_free * gp
        minus = low_free * gm
        if e > 0:
            plus += gn * low_free
        elif e < 0:
            minus += gn * low_free
        else:
            plus += gn * below[i - 1][0]
            minus += gn * below[i - 1][1]
        result[c] = (prop * plus, prop * minus)
    return result
