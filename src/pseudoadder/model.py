"""Core domain types for carry-chain error analysis of binary adders.

Operands are n-bit unsigned integers viewed as (n+1)-bit vectors with the
top bit fixed to zero, so the overflow sum bit has a position of its own.
Bit positions 0..n-1 carry operand data and position n holds the final
carry-out.  All counts and error sums use Python's arbitrary-precision
integers; exact ratios use ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple


class PseudoAdderError(Exception):
    """Base class for errors raised by this package."""


class OracleLimitError(PseudoAdderError):
    """Raised when a brute-force enumeration would exceed the width limit."""


class ConservativenessError(PseudoAdderError):
    """Raised when a probe input exposes a spurious carry during extraction."""

    def __init__(self, message: str, chain: "CarryChain"):
        super().__init__(message)
        self.chain = chain


def bit(x: int, k: int) -> int:
    """Bit k of the unsigned integer x (0 or 1).

    Positions at or above the operand width read as 0, matching the fixed
    zero top bit of (n+1)-bit operand vectors.
    """
    if k < 0:
        raise ValueError(f"bit position must be non-negative, got {k}")
    return (x >> k) & 1


@dataclass(frozen=True)
class InputPair:
    """Two n-bit operands; the unit of enumeration.

    Invariants: ``0 <= a < 2**n`` and ``0 <= b < 2**n``, so bit n of both
    operands is implicitly zero.
    """

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"width must be positive, got {self.n}")
        top = 1 << self.n
        if not 0 <= self.a < top:
            raise ValueError(f"a={self.a} out of range for width {self.n}")
        if not 0 <= self.b < top:
            raise ValueError(f"b={self.b} out of range for width {self.n}")


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


@dataclass(frozen=True)
class ChainSet:
    """Chains generated by one input pair: disjoint, ascending by start."""

    n: int
    chains: tuple[CarryChain, ...]

    def __post_init__(self) -> None:
        prev_j = 0
        for c in self.chains:
            c.validate(self.n)
            if c.i <= prev_j:
                raise ValueError(
                    f"chains must be disjoint and ascending, got {self.chains}"
                )
            prev_j = c.j

    def __iter__(self) -> Iterator[CarryChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)


def all_chains(n: int) -> list[CarryChain]:
    """All n(n+1)/2 possible chains for width n, ascending (i, j)."""
    return [CarryChain(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


class ChainErrorTable:
    """Total map from every chain (i, j) to its signed integer error.

    Missing entries are zero.  Every entry is bounded by ``2**(n+1)`` in
    magnitude since an error is a difference of two (n+1)-bit sums.  The
    sign convention is *true sum minus computed sum*, so a dropped carry
    at the chain end yields a positive entry.
    """

    __slots__ = ("n", "_ec")

    def __init__(self, n: int, entries: dict[CarryChain, int] | None = None):
        if n < 1:
            raise ValueError(f"width must be positive, got {n}")
        self.n = n
        ec: dict[CarryChain, int] = {}
        bound = 1 << (n + 1)
        for key, value in (entries or {}).items():
            chain = CarryChain(*key).validate(n)
            if type(value) is not int:
                raise ValueError(f"error for chain {chain} must be an int, got {value!r}")
            if abs(value) >= bound:
                raise ValueError(
                    f"error {value} for chain {chain} exceeds +/-2^{n + 1}"
                )
            if value:
                ec[chain] = value
        self._ec = ec

    def get(self, i: int, j: int) -> int:
        return self._ec.get((i, j), 0)

    def nonzero(self) -> list[tuple[CarryChain, int]]:
        """Chains with a nonzero error, ascending by (i, j)."""
        return sorted(self._ec.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainErrorTable):
            return NotImplemented
        return self.n == other.n and self._ec == other._ec

    def __repr__(self) -> str:
        return f"ChainErrorTable(n={self.n}, nonzero={len(self._ec)})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ec": [
                {"i": c.i, "j": c.j, "value": v} for c, v in sorted(self._ec.items())
            ],
        }


@dataclass
class StatsReport:
    """Exact error statistics of a pseudo-adder over all 2^(2n) input pairs.

    ``sae`` is the summed absolute error, ``er_avg = sae / 2**(2n)``.  The
    per-chain maps count a chain's generating input pairs by the sign of
    their dominating (leftmost error-contributing) chain.  The fast path
    tallies exactly the erring chains (nonzero entries; the others enter
    no statistic), the chain oracle every chain, and oracles that never
    look at chains leave them ``None``.
    """

    n: int
    sae: int
    er_avg: Fraction
    mse: Fraction | None = None
    max_abs_error: int | None = None
    nu_plus: dict[CarryChain, int] | None = None
    nu_minus: dict[CarryChain, int] | None = None

    @property
    def er_avg_float(self) -> float:
        return float(self.er_avg)

    def to_json_dict(self) -> dict:
        def ratio(x: Fraction) -> dict:
            return {
                "numerator": x.numerator,
                "denominator": x.denominator,
                "float": float(x),
            }

        def chainmap(m: dict[CarryChain, int] | None):
            if m is None:
                return None
            return [{"i": c.i, "j": c.j, "value": v} for c, v in sorted(m.items())]

        return {
            "n": self.n,
            "sae": self.sae,
            "er_avg": ratio(self.er_avg),
            "mse": None if self.mse is None else ratio(self.mse),
            "max_abs_error": self.max_abs_error,
            "nu_plus": chainmap(self.nu_plus),
            "nu_minus": chainmap(self.nu_minus),
        }


def reference_add(p: InputPair) -> tuple[int, int]:
    """Fully correct addition via the carry recurrence.

    Returns ``(sum, carries)`` where ``carries`` packs c_0..c_n as an
    integer (bit k is the carry into position k, c_0 = 0).  The sum bit at
    position k is ``a_k ^ b_k ^ c_k`` and the carry obeys the majority
    recurrence ``c_{k+1} = a_k b_k | a_k c_k | b_k c_k``.
    """
    carries = 0
    c = 0
    for k in range(p.n):
        ak = bit(p.a, k)
        bk = bit(p.b, k)
        c = (ak & bk) | (ak & c) | (bk & c)
        carries |= c << (k + 1)
    s = p.a + p.b
    return s, carries
