"""Delay-annotated gate netlists for pseudo-adders.

A netlist is an acyclic gate graph with 2n operand input vertices (ids
``a0..a{n-1}`` and ``b0..b{n-1}``), optional constants, and one mapped
output gate per sum position 0..n.  The input carry is modeled as a
CONST0 gate.  Delays are non-negative numbers (integers or exact
rationals); zero is allowed.

JSON schema::

    {
      "n": 8,
      "gates": [{"id": "g1", "kind": "AND2", "inputs": ["a0", "b0"], "delay": 1}],
      "outputs": {"0": "s0", ..., "8": "s8"}
    }

INPUT gates take no ``inputs`` and are bound to operand bits through
their ids.  A delay is written as an integer or, when it is not one, as
an exact ``"p/q"`` string; floats are read but never written.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

Delay = int | Fraction
Time = Delay  # a read time: exact like every delay


class GateKind(str, Enum):
    INPUT = "INPUT"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND2 = "AND2"
    OR2 = "OR2"
    XOR2 = "XOR2"
    MAJ3 = "MAJ3"


ARITY = {
    GateKind.INPUT: 0,
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
    GateKind.BUF: 1,
    GateKind.NOT: 1,
    GateKind.AND2: 2,
    GateKind.OR2: 2,
    GateKind.XOR2: 2,
    GateKind.MAJ3: 3,
}

SOURCE_KINDS = (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1)


def evaluate_gate(kind: GateKind, vals: Sequence[int], full: int) -> int:
    """Output of a logic gate over lanes of input bits.

    Each value is a lane mask (bit k is the signal in lane k) and ``full``
    has every lane set; a single pair is the one-lane case ``full=1``.
    """
    if kind is GateKind.BUF:
        return vals[0]
    if kind is GateKind.NOT:
        return full ^ vals[0]
    if kind is GateKind.AND2:
        return vals[0] & vals[1]
    if kind is GateKind.OR2:
        return vals[0] | vals[1]
    if kind is GateKind.XOR2:
        return vals[0] ^ vals[1]
    if kind is GateKind.MAJ3:
        x, y, z = vals
        return (x & y) | (x & z) | (y & z)
    if kind is GateKind.CONST1:
        return full
    return 0  # CONST0; INPUT values come from the stimulus


def as_delay(value: int | float | str | Fraction) -> Delay:
    """Normalize a delay to an exact non-negative int or Fraction."""
    if isinstance(value, bool):
        raise ValueError("delay must be a number")
    if isinstance(value, int):
        d: Delay = value
    elif isinstance(value, Fraction):
        d = int(value) if value.denominator == 1 else value
    elif isinstance(value, float):
        f = Fraction(str(value))
        d = int(f) if f.denominator == 1 else f
    elif isinstance(value, str):
        f = Fraction(value)
        d = int(f) if f.denominator == 1 else f
    else:
        raise ValueError(f"cannot interpret delay {value!r}")
    if d < 0:
        raise ValueError(f"delay must be non-negative, got {value}")
    return d


@contextmanager
def malformed_json(what: str) -> Iterator[None]:
    """Raise a missing key, wrongly typed value or bad value in decoded JSON
    as one ValueError naming the format."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        fault = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed {what} JSON: {fault}") from exc


def delay_to_json(d: Delay) -> int | str:
    """Exact JSON form of a delay: an int, else ``"p/q"`` (see :func:`as_delay`)."""
    return d if isinstance(d, int) else str(d)


@dataclass(frozen=True)
class Gate:
    id: str
    kind: GateKind
    inputs: tuple[str, ...] = ()
    delay: Delay = 0

    def __post_init__(self) -> None:
        if len(self.inputs) != ARITY[self.kind]:
            raise ValueError(
                f"gate {self.id!r}: kind {self.kind.value} takes "
                f"{ARITY[self.kind]} inputs, got {len(self.inputs)}"
            )
        if self.delay < 0:
            raise ValueError(f"gate {self.id!r}: negative delay {self.delay}")


class Netlist:
    """Immutable gate DAG with designated sum outputs.

    Construction validates acyclicity, the input-id convention, output
    completeness and gate arities, and precomputes a topological order
    and fanout lists for the simulators.
    """

    def __init__(self, n: int, gates: list[Gate] | tuple[Gate, ...], outputs: dict[int, str]):
        if n < 1:
            raise ValueError(f"width must be positive, got {n}")
        self.n = n
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.outputs: dict[int, str] = dict(outputs)
        self.by_id: dict[str, Gate] = {}
        for g in self.gates:
            if g.id in self.by_id:
                raise ValueError(f"duplicate gate id {g.id!r}")
            self.by_id[g.id] = g

        expected_inputs = {f"a{k}" for k in range(n)} | {f"b{k}" for k in range(n)}
        declared_inputs = {g.id for g in self.gates if g.kind is GateKind.INPUT}
        if declared_inputs != expected_inputs:
            raise ValueError(
                "INPUT gates must be exactly a0..a%d and b0..b%d" % (n - 1, n - 1)
            )

        for g in self.gates:
            for src in g.inputs:
                if src not in self.by_id:
                    raise ValueError(f"gate {g.id}: unknown input {src!r}")

        if set(self.outputs) != set(range(n + 1)):
            raise ValueError(f"outputs must map every position 0..{n}")
        for pos, gid in self.outputs.items():
            if gid not in self.by_id:
                raise ValueError(f"output {pos}: unknown gate {gid!r}")

        fan: dict[str, list[str]] = {g.id: [] for g in self.gates}
        for g in self.gates:
            for src in g.inputs:
                fan[src].append(g.id)
        self.fanout: dict[str, tuple[str, ...]] = {gid: tuple(v) for gid, v in fan.items()}

        # Kahn's algorithm over the fanout; a duplicate input is two edges
        waiting = {g.id: len(g.inputs) for g in self.gates}
        order = [g.id for g in self.gates if not g.inputs]  # grows as gates become ready
        for gid in order:
            for dst in fan[gid]:
                waiting[dst] -= 1
                if not waiting[dst]:
                    order.append(dst)
        if len(order) < len(self.gates):
            stuck = ", ".join(g.id for g in self.gates if waiting[g.id])
            raise ValueError(f"gate graph is not acyclic: gates on or behind a cycle: {stuck}")
        self.order: tuple[str, ...] = tuple(order)

    def input_bit(self, gate_id: str) -> tuple[str, int]:
        """Operand ('a' or 'b') and bit position bound to an INPUT gate."""
        return gate_id[0], int(gate_id[1:])

    def source_value(self, gate: Gate, a: int, b: int) -> int:
        if gate.kind is GateKind.INPUT:
            operand, k = self.input_bit(gate.id)
            word = a if operand == "a" else b
            return (word >> k) & 1
        return 1 if gate.kind is GateKind.CONST1 else 0

    def arrival_time(self) -> Delay:
        """Latest static arrival time of any sum output: the longest delay
        along a path into an output gate.  Under transport delay no output
        changes after it, for any input pair."""
        arrival: dict[str, Delay] = {}
        for gid in self.order:
            gate = self.by_id[gid]
            arrival[gid] = gate.delay + max((arrival[s] for s in gate.inputs), default=0)
        return max(arrival[gid] for gid in self.outputs.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gates": [
                {
                    "id": g.id,
                    "kind": g.kind.value,
                    "inputs": list(g.inputs),
                    "delay": delay_to_json(g.delay),
                }
                for g in self.gates
            ],
            "outputs": {str(pos): gid for pos, gid in sorted(self.outputs.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Netlist":
        """Parse the JSON schema; ``n`` must be an integer, ``inputs`` a
        list and every output key a canonical decimal ``"0"``..``"n"``.
        A bad kind, delay or arity names its gate."""
        with malformed_json("netlist"):
            gates = []
            for g in data["gates"]:
                inputs = g.get("inputs", [])
                if not isinstance(inputs, list):
                    raise TypeError(f"gate {g['id']!r}: inputs must be a list, got {inputs!r}")
                try:
                    kind, delay = GateKind(g["kind"]), as_delay(g.get("delay", 0))
                except ValueError as exc:
                    raise ValueError(f"gate {g['id']!r}: {exc}") from exc
                gates.append(Gate(str(g["id"]), kind, tuple(map(str, inputs)), delay))
            n = data["n"]
            if type(n) is not int:
                raise TypeError(f"n must be an integer, got {n!r}")
            positions = {str(k): k for k in range(n + 1)}
            outputs = {}
            for key, gid in data["outputs"].items():
                if key not in positions:
                    raise TypeError(f"output key {key!r} is not one of '0'..'{n}'")
                outputs[positions[key]] = str(gid)
        return cls(n, gates, outputs)

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        return cls.from_json_dict(json.loads(text))
