"""Core domain types for carry-chain error analysis of binary adders.

Operands are n-bit unsigned integers viewed as (n+1)-bit vectors with the
top bit fixed to zero, so the overflow sum bit has a position of its own.
Bit positions 0..n-1 carry operand data and position n holds the final
carry-out.  All counts and error sums use Python's arbitrary-precision
integers; exact ratios use ``fractions.Fraction``; no type is a dataclass.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from . import PseudoAdderError


class ConservativenessError(PseudoAdderError):
    """Raised when a probe input exposes a spurious carry during extraction."""

    def __init__(self, message: str, chain: "CarryChain"):
        super().__init__(message)
        self.chain = chain


class InputPair(namedtuple("InputPair", "n a b")):
    """Two n-bit operands ``(n, a, b)``; the unit of enumeration.

    Invariants: ``0 <= a < 2**n`` and ``0 <= b < 2**n``, so bit n of both
    operands is implicitly zero; ``_make`` and ``_replace`` check them too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, a: int, b: int):
        if n < 1:
            raise ValueError(f"width must be positive, got {n}")
        top = 1 << n
        if not 0 <= a < top:
            raise ValueError(f"a={a} out of range for width {n}")
        if not 0 <= b < top:
            raise ValueError(f"b={b} out of range for width {n}")
        return tuple.__new__(cls, (n, a, b))


def pair_word(a: int, b: int, n: int) -> int:
    """The operands of one pair of width n packed as one lane word,
    ``a | b << n``: the batch format of
    :func:`~pseudoadder.sweep.pair_masks` and the lane order of all 4^n
    pairs."""
    return a | b << n


def word_pair(word: int, n: int) -> tuple[int, int]:
    """The operands ``(a, b)`` of a lane word of :func:`pair_word`."""
    return word & ((1 << n) - 1), word >> n


class CarryChain(NamedTuple):
    """Interval of positions (i, j), 1 <= i <= j <= n, receiving a carry.

    The generate position is i-1 (both operand bits set), positions
    i..j-1 propagate (operand bits differ), and the operand bits agree at
    the end position j.  Errors of a conservative pseudo-adder live only
    inside such intervals.
    """

    i: int
    j: int

    def validate(self, n: int) -> "CarryChain":
        if not 1 <= self.i <= self.j <= n:
            raise ValueError(f"chain {self} violates 1 <= i <= j <= {n}")
        return self


class Record:
    """Slotted base that compares and shows an instance by its slots."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class ChainSet(Record):
    """Chains generated by one input pair: disjoint, ascending by start."""

    __slots__ = ("n", "chains")

    def __init__(self, n: int, chains: tuple[CarryChain, ...]):
        prev_j = 0
        for c in chains:
            c.validate(n)
            if c.i <= prev_j:
                raise ValueError(f"chains must be disjoint and ascending, got {chains}")
            prev_j = c.j
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chains", chains)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash((self.n, self.chains))

    def __reduce__(self):  # copy and pickle go back through __init__
        return ChainSet, (self.n, self.chains)

    def __iter__(self) -> Iterator[CarryChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)


def all_chains(n: int) -> list[CarryChain]:
    """All n(n+1)/2 possible chains for width n, ascending (i, j): rank order."""
    return [CarryChain(i, j) for i, j in _spans(n)]


def _spans(n: int) -> Iterator[tuple[int, int]]:
    """``(i, j)`` of every chain of width n in rank order."""
    return ((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def _rank(n: int, i: int, j: int) -> int:
    """The place of chain (i, j) of width n in rank order."""
    return (i - 1) * (2 * n + 2 - i) // 2 + j - i


class ChainErrorTable(Record):
    """Total map from every chain (i, j) to its signed integer error.

    The entries, zeros too, are one list in :func:`all_chains` order: (i, j) at (i-1)(2n+2-i)/2 + j-i.
    Each is below ``2**(n+1)`` in magnitude, since an error is a difference of two (n+1)-bit sums.
    The sign convention is *true sum minus computed sum*: a dropped carry at the chain end is positive.
    """

    __slots__ = ("n", "_ec")

    def __init__(self, n: int, entries: dict[CarryChain, int] | None = None):
        if n < 1:
            raise ValueError(f"width must be positive, got {n}")
        ec, bound = [0] * (n * (n + 1) // 2), 1 << (n + 1)
        for key, value in (entries or {}).items():
            chain = CarryChain(*key).validate(n)
            if type(value) is not int:
                raise ValueError(f"error for chain {chain} must be an int, got {value!r}")
            if abs(value) >= bound:
                raise ValueError(f"error {value} for chain {chain} exceeds +/-2^{n + 1}")
            ec[_rank(n, *chain)] = value
        self.n, self._ec = n, ec

    @classmethod
    def _of(cls, n: int, ec: list[int]) -> ChainErrorTable:
        """Unchecked: the library's entries in rank order, each 2^j - s' of an (n+1)-bit read s', in bounds."""
        table = cls.__new__(cls)
        table.n, table._ec = n, ec
        return table

    def get(self, i: int, j: int) -> int:
        return self._ec[_rank(self.n, i, j)] if 1 <= i <= j <= self.n else 0

    def row(self, i: int) -> list[int]:
        """The entries of chains (i, i..n), j ascending, as one slice."""
        return self._ec[(r := _rank(self.n, i, i)):r + self.n - i + 1]

    def nonzero(self) -> list[tuple[CarryChain, int]]:
        """Chains with a nonzero error, ascending by (i, j)."""
        return [(CarryChain(i, j), v) for i, j, v in ChainTally(self, self._ec)._triples()]

    def __repr__(self) -> str:
        return f"ChainErrorTable(n={self.n}, nonzero={len(ChainTally(self, self._ec))})"

    def to_json_dict(self, lazy: bool = False) -> dict:
        """The table as JSON; ``lazy`` gives its entries as an iterator
        instead of a list."""
        return {"n": self.n, "ec": _chain_entries(ChainTally(self, self._ec), lazy)}


class ChainTally(Mapping):
    """Read-only map from each erring chain of a table to a value: a list in rank order, read
    through the table's.  Keys are chains or ``(i, j)``, iterated ascending; others raise ``KeyError``."""

    __slots__ = ("_table", "_values")

    def __init__(self, table: ChainErrorTable, values: list[int]):
        self._table, self._values = table, values

    def __getitem__(self, chain: tuple[int, int]) -> int:
        if isinstance(chain, tuple) and len(chain) == 2 and self._table.get(*chain):
            return self._values[_rank(self._table.n, *chain)]
        raise KeyError(chain)

    def __iter__(self) -> Iterator[CarryChain]:
        return (CarryChain(i, j) for i, j, _ in self._triples())

    def __len__(self) -> int:
        return len(self._values) - self._table._ec.count(0)

    __repr__ = lambda self: repr(dict(self))

    def _triples(self) -> Iterator[tuple[int, int, int]]:
        return ((i, j, v) for (i, j), e, v in zip(_spans(self._table.n), self._table._ec, self._values) if e)


def _chain_entries(m: Mapping[CarryChain, int] | None, lazy: bool) -> Iterator[dict] | list[dict] | None:
    """A chain map's JSON: ``{"i", "j", "value"}`` objects ascending by
    chain, as a list, or as an iterator that makes them one at a time from
    the map (a :class:`ChainTally`'s lists) when ``lazy``; None for no map."""
    if m is None:
        return None
    triples = m._triples() if isinstance(m, ChainTally) else ((c.i, c.j, m[c]) for c in sorted(m))
    entries = ({"i": i, "j": j, "value": v} for i, j, v in triples)
    return entries if lazy else list(entries)


class StatsReport(Record):
    """Exact error statistics of a pseudo-adder over all 2^(2n) input pairs.

    ``sae`` is the summed absolute error, ``er_avg = sae / 2**(2n)``.  The
    per-chain maps count a chain's generating input pairs by the sign of
    their dominating (leftmost error-contributing) chain.  The fast path
    tallies exactly the erring chains (nonzero entries; the others enter
    no statistic) in read-only :class:`ChainTally` maps over lists in the table's order, the chain
    oracle every chain in dicts, and oracles that never look at chains leave them ``None``.
    """

    __slots__ = ("n", "sae", "er_avg", "mse", "max_abs_error", "nu_plus", "nu_minus")

    def __init__(self, n: int, sae: int, er_avg: Fraction, mse: Fraction | None = None,
                 max_abs_error: int | None = None, nu_plus: Mapping[CarryChain, int] | None = None,
                 nu_minus: Mapping[CarryChain, int] | None = None):
        self.n, self.sae, self.er_avg, self.mse = n, sae, er_avg, mse
        self.max_abs_error, self.nu_plus, self.nu_minus = max_abs_error, nu_plus, nu_minus

    @property
    def er_avg_float(self) -> float:
        return float(self.er_avg)

    def to_json_dict(self, lazy: bool = False) -> dict:
        """The report as JSON; ``lazy`` gives the tally entries as
        iterators instead of lists."""

        def ratio(x: Fraction) -> dict:
            return {
                "numerator": x.numerator,
                "denominator": x.denominator,
                "float": float(x),
            }

        return {
            "n": self.n,
            "sae": self.sae,
            "er_avg": ratio(self.er_avg),
            "mse": None if self.mse is None else ratio(self.mse),
            "max_abs_error": self.max_abs_error,
            "nu_plus": _chain_entries(self.nu_plus, lazy),
            "nu_minus": _chain_entries(self.nu_minus, lazy),
        }


def reference_add(p: InputPair) -> tuple[int, int]:
    """Fully correct addition.

    Returns ``(sum, carries)`` where ``carries`` packs c_0..c_n as an
    integer (bit k is the carry into position k, c_0 = 0).  The sum fixes
    the carries: its bit k is ``a_k ^ b_k ^ c_k``, so the carries are
    ``sum ^ a ^ b`` (bit n of both operands is 0, so c_n is the sum's bit n).
    """
    s = p.a + p.b
    return s, s ^ p.a ^ p.b
