"""Netlist generators for ripple-carry and Kogge-Stone adders.

Every generator emits plain :class:`~pseudoadder.netlist.Netlist` objects,
each gate input the ``str`` of the id it names, so the generated adders
round-trip through JSON and run on the same simulators as hand-written
netlists.

Delay conventions: the ripple-carry generator takes one delay per carry
(majority) gate and one per sum XOR; the Kogge-Stone generator takes one
delay per *module* (PG cell, prefix cell, sum XOR).  A prefix cell is
built from an inner zero-delay AND plus output gates carrying the module
delay, so one traversal of the cell costs exactly its assigned delay.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .netlist import Delay, Gate, GateKind, Netlist, as_delay, delay_to_json, json_list, malformed_json


def _input_gates(n: int) -> tuple[list[Gate], list[str], list[str]]:
    """The INPUT gates a0.., b0.. and the CONST0 ``zero``, with the ids of a's and of b's bits."""
    a, b = ([f"{x}{k}" for k in range(n)] for x in "ab")
    gates = [Gate(gid, GateKind.INPUT) for gid in (*a, *b)]
    gates.append(Gate("zero", GateKind.CONST0))
    return gates, a, b


def _add(gates: list[Gate], gid: str, kind: GateKind, inputs: tuple[str, ...], delay: Delay) -> str:
    """Append one gate and return its id, for later gates to read."""
    gates.append(Gate(gid, kind, inputs, delay))
    return gid


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
    gates, a, b = _input_gates(n)
    zero = carry = gates[-1].id
    outputs: dict[int, str] = {}
    for k in range(n):
        if k == 0:
            outputs[0] = _add(gates, "s0", GateKind.XOR2, (a[0], b[0]), sum_delays[0])
        else:
            p = _add(gates, f"p{k}", GateKind.XOR2, (a[k], b[k]), 0)
            outputs[k] = _add(gates, f"s{k}", GateKind.XOR2, (p, carry), sum_delays[k])
        carry = _add(gates, f"c{k + 1}", GateKind.MAJ3, (a[k], b[k], carry), carry_delays[k])
    outputs[n] = _add(gates, f"s{n}", GateKind.XOR2, (carry, zero), sum_delays[n])
    return Netlist(n, gates, outputs)


class KsaDelays(namedtuple("KsaDelays", "pg prefix sums")):
    """Per-module delay assignment ``(pg, prefix, sums)`` for a
    Kogge-Stone adder, each a tuple of delays.

    ``pg[k]`` times the propagate/generate cell of bit k, ``prefix[l][k]``
    the prefix cell at level l (0-based) and column k, and ``sums[k]`` the
    sum XOR of position k.  Prefix entries at columns without a compute
    cell (k below the level's span) are ignored.
    """

    __slots__ = ()

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
                pg=tuple(map(as_delay, json_list(data["pg"], "pg"))),
                prefix=tuple(
                    tuple(map(as_delay, json_list(row, "prefix row"))) for row in json_list(data["prefix"], "prefix")
                ),
                sums=tuple(map(as_delay, json_list(data["sum"], "sum"))),
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

    gates, a, b = _input_gates(n)
    zero = gates[-1].id
    g_net: list[str] = []
    p_net: list[str] = []
    for k in range(n):
        d = delays.pg[k]
        p_net.append(_add(gates, f"p{k}", GateKind.XOR2, (a[k], b[k]), d))
        g_net.append(_add(gates, f"g{k}", GateKind.AND2, (a[k], b[k]), d))
    p = p_net  # the PG row's propagates, which the sums read; each level makes a new p_net

    for level in range(1, levels + 1):
        span = 1 << (level - 1)
        g_next = list(g_net)
        p_next = list(p_net)
        for k in range(span, n):
            d = delays.prefix[level - 1][k]
            tag = f"l{level}k{k}"
            gp = _add(gates, f"gp_{tag}", GateKind.AND2, (p_net[k], g_net[k - span]), 0)
            g_next[k] = _add(gates, f"G_{tag}", GateKind.OR2, (g_net[k], gp), d)
            if k >= 1 << level:  # span does not reach bit 0: P still needed
                p_next[k] = _add(gates, f"P_{tag}", GateKind.AND2, (p_net[k], p_net[k - span]), d)
        g_net, p_net = g_next, p_next

    outputs = {0: _add(gates, "s0", GateKind.XOR2, (p[0], zero), delays.sums[0])}
    for k in range(1, n):
        outputs[k] = _add(gates, f"s{k}", GateKind.XOR2, (p[k], g_net[k - 1]), delays.sums[k])
    outputs[n] = _add(gates, f"s{n}", GateKind.XOR2, (g_net[n - 1], zero), delays.sums[n])
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
