"""Netlist generators for ripple-carry and Kogge-Stone adders.

Every generator emits plain :class:`~pseudoadder.netlist.Netlist` objects,
so the generated adders round-trip through JSON and run on the same
simulators as hand-written netlists.

Delay conventions: the ripple-carry generator takes one delay per carry
(majority) gate and one per sum XOR; the Kogge-Stone generator takes one
delay per *module* (PG cell, prefix cell, sum XOR).  A prefix cell is
built from an inner zero-delay AND plus output gates carrying the module
delay, so one traversal of the cell costs exactly its assigned delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .netlist import Delay, Gate, GateKind, Netlist, as_delay, delay_to_json, malformed_json


def _input_gates(n: int) -> list[Gate]:
    gates = [Gate(f"a{k}", GateKind.INPUT) for k in range(n)]
    gates += [Gate(f"b{k}", GateKind.INPUT) for k in range(n)]
    gates.append(Gate("zero", GateKind.CONST0))
    return gates


def generate_rca(
    n: int, carry_delays: Sequence[Delay], sum_delays: Sequence[Delay]
) -> Netlist:
    """Full-adder chain with per-stage carry and sum delays.

    Stage k owns one MAJ3 carry gate (``carry_delays[k]``) and one sum
    XOR (``sum_delays[k]``); the extra entry ``sum_delays[n]`` times the
    overflow sum bit.  Stage 0 folds the zero input carry into a single
    XOR, so a 1-bit adder has exactly three logic gates.
    """
    if n < 1:
        raise ValueError(f"width must be positive, got {n}")
    if len(carry_delays) != n:
        raise ValueError(f"need {n} carry delays, got {len(carry_delays)}")
    if len(sum_delays) != n + 1:
        raise ValueError(f"need {n + 1} sum delays, got {len(sum_delays)}")
    cd = [as_delay(d) for d in carry_delays]
    sd = [as_delay(d) for d in sum_delays]

    gates = _input_gates(n)
    outputs: dict[int, str] = {}
    carry = "zero"
    for k in range(n):
        if k == 0:
            gates.append(Gate("s0", GateKind.XOR2, ("a0", "b0"), sd[0]))
        else:
            gates.append(Gate(f"p{k}", GateKind.XOR2, (f"a{k}", f"b{k}"), 0))
            gates.append(Gate(f"s{k}", GateKind.XOR2, (f"p{k}", carry), sd[k]))
        gates.append(Gate(f"c{k + 1}", GateKind.MAJ3, (f"a{k}", f"b{k}", carry), cd[k]))
        outputs[k] = f"s{k}"
        carry = f"c{k + 1}"
    gates.append(Gate(f"s{n}", GateKind.XOR2, (carry, "zero"), sd[n]))
    outputs[n] = f"s{n}"
    return Netlist(n, gates, outputs)


@dataclass(frozen=True)
class KsaDelays:
    """Per-module delay assignment for a Kogge-Stone adder.

    ``pg[k]`` times the propagate/generate cell of bit k, ``prefix[l][k]``
    the prefix cell at level l (0-based) and column k, and ``sums[k]`` the
    sum XOR of position k.  Prefix entries at columns without a compute
    cell (k below the level's span) are ignored.
    """

    pg: tuple[Delay, ...]
    prefix: tuple[tuple[Delay, ...], ...]
    sums: tuple[Delay, ...]

    @classmethod
    def uniform(cls, n: int, d: Delay) -> "KsaDelays":
        d = as_delay(d)
        levels = (n - 1).bit_length()
        return cls(
            pg=(d,) * n,
            prefix=tuple(((d,) * n) for _ in range(levels)),
            sums=(d,) * (n + 1),
        )

    def to_json_dict(self) -> dict:
        return {
            "pg": [delay_to_json(d) for d in self.pg],
            "prefix": [[delay_to_json(d) for d in row] for row in self.prefix],
            "sum": [delay_to_json(d) for d in self.sums],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KsaDelays":
        with malformed_json("KSA delay"):
            return cls(
                pg=tuple(as_delay(d) for d in data["pg"]),
                prefix=tuple(tuple(as_delay(d) for d in row) for row in data["prefix"]),
                sums=tuple(as_delay(d) for d in data["sum"]),
            )


def generate_ksa(n: int, delays: KsaDelays | Delay) -> Netlist:
    """Kogge-Stone parallel-prefix adder.

    The PG row computes ``p_k = a_k ^ b_k`` and ``g_k = a_k & b_k``;
    log2(n) prefix levels combine spans with ``G = G_hi | (P_hi & G_lo)``
    and ``P = P_hi & P_lo`` (cells whose span reaches bit 0 skip the P
    output); the sum row is ``s_k = p_k ^ c_k`` with ``c_k`` the group
    generate over bits 0..k-1.  Width must be a power of two, n >= 2.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"Kogge-Stone width must be a power of two >= 2, got {n}")
    if not isinstance(delays, KsaDelays):
        delays = KsaDelays.uniform(n, delays)
    levels = n.bit_length() - 1
    if len(delays.pg) != n or len(delays.sums) != n + 1 or len(delays.prefix) != levels:
        raise ValueError(
            f"delay assignment does not fit an n={n} Kogge-Stone "
            f"(need pg[{n}], prefix[{levels}][{n}], sum[{n + 1}])"
        )
    for row in delays.prefix:
        if len(row) != n:
            raise ValueError(f"each prefix level needs {n} entries, got {len(row)}")

    gates = _input_gates(n)
    g_net: list[str] = []
    p_net: list[str] = []
    for k in range(n):
        d = as_delay(delays.pg[k])
        gates.append(Gate(f"p{k}", GateKind.XOR2, (f"a{k}", f"b{k}"), d))
        gates.append(Gate(f"g{k}", GateKind.AND2, (f"a{k}", f"b{k}"), d))
        g_net.append(f"g{k}")
        p_net.append(f"p{k}")

    for level in range(1, levels + 1):
        span = 1 << (level - 1)
        g_next = list(g_net)
        p_next = list(p_net)
        for k in range(span, n):
            d = as_delay(delays.prefix[level - 1][k])
            tag = f"l{level}k{k}"
            gates.append(
                Gate(f"gp_{tag}", GateKind.AND2, (p_net[k], g_net[k - span]), 0)
            )
            gates.append(Gate(f"G_{tag}", GateKind.OR2, (g_net[k], f"gp_{tag}"), d))
            g_next[k] = f"G_{tag}"
            if k >= 1 << level:  # span does not reach bit 0: P still needed
                gates.append(
                    Gate(f"P_{tag}", GateKind.AND2, (p_net[k], p_net[k - span]), d)
                )
                p_next[k] = f"P_{tag}"
        g_net, p_net = g_next, p_next

    outputs: dict[int, str] = {}
    gates.append(Gate("s0", GateKind.XOR2, ("p0", "zero"), as_delay(delays.sums[0])))
    outputs[0] = "s0"
    for k in range(1, n):
        gates.append(
            Gate(f"s{k}", GateKind.XOR2, (f"p{k}", g_net[k - 1]), as_delay(delays.sums[k]))
        )
        outputs[k] = f"s{k}"
    gates.append(
        Gate(f"s{n}", GateKind.XOR2, (g_net[n - 1], "zero"), as_delay(delays.sums[n]))
    )
    outputs[n] = f"s{n}"
    return Netlist(n, gates, outputs)


def staggered_ksa8_delays() -> KsaDelays:
    """A deliberately uneven delay assignment for the 8-bit Kogge-Stone.

    With these module delays the carry into position 7 lands at t=7 while
    the carries into positions 5 and 6 only land at t=10, so a read at
    T=7 sees one chain err by -96 and another by +16 at the same time.
    The quiescent output (t=11) is fully correct.
    """
    x = 0  # placeholder for columns without a compute cell
    return KsaDelays(
        pg=(1,) * 8,
        prefix=(
            (x, 3, 2, 1, 1, 1, 1, 1),
            (x, x, 2, 4, 4, 4, 2, 1),
            (x, x, x, x, 4, 4, 3, 1),
        ),
        sums=(0,) * 9,
    )


def staggered_ksa8() -> Netlist:
    """8-bit Kogge-Stone built from :func:`staggered_ksa8_delays`."""
    return generate_ksa(8, staggered_ksa8_delays())
