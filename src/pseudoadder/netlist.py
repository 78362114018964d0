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
their ids; a source gate (INPUT, CONST0, CONST1) takes no delay, as both
simulators apply it at t=0.  A delay is written as an integer or, when it
is not one, as an exact ``"p/q"`` string; floats are read but never
written.  A :class:`Gate` is an immutable named tuple, checked once when
built.  Each name is held once: every input and output is the ``str`` of
the id it names.  :meth:`Netlist.from_json` turns each decoded gate into
its Gate in place, and ``gen`` streams them out (``to_json_dict(lazy=True)``).
"""

from __future__ import annotations

import json
from collections import namedtuple
from contextlib import contextmanager
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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
    Sources never reach it: their values come from the stimulus.
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
    x, y, z = vals  # MAJ3
    return (x & y) | (x & z) | (y & z)


def _exact(value: int | float | str | Fraction) -> Delay:
    """A delay or read time as an exact int or Fraction (int when whole)."""
    if isinstance(value, bool):
        raise ValueError("delay must be a number")
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, float, str)):
        try:
            f = Fraction(value if isinstance(value, Fraction) else str(value))
        except (ValueError, ZeroDivisionError):  # "x", "p/0", "nan"
            raise ValueError(f"cannot interpret delay {value!r}") from None
        return int(f) if f.denominator == 1 else f
    raise ValueError(f"cannot interpret delay {value!r}")


def as_delay(value: int | float | str | Fraction) -> Delay:
    """Normalize a delay to an exact non-negative int or Fraction."""
    d = _exact(value)
    if d < 0:
        raise ValueError(f"delay must be non-negative, got {value}")
    return d


def as_time(t: int | float | str | Fraction) -> Time:
    """Normalize a read time exactly like a delay (:func:`as_delay`); a
    negative or uninterpretable one is refused as a read time."""
    try:
        d = _exact(t)
    except ValueError:
        raise ValueError(f"cannot interpret read time {t!r}") from None
    if d < 0:
        raise ValueError(f"read time must be non-negative, got {t}")
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


def json_list(value: object, what: str) -> list:
    """``value`` when decoded JSON holds a list there, else a TypeError naming ``what``."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def delay_to_json(d: Delay) -> int | str:
    """Exact JSON form of a delay: an int, else ``"p/q"`` (see :func:`as_delay`)."""
    return d if isinstance(d, int) else str(d)


_KINDS = {k.value: k for k in GateKind}  # a str-Enum member hashes like its value


class Gate(namedtuple("Gate", "id kind inputs delay")):
    """One gate ``(id, kind, inputs=(), delay=0)``: an immutable named tuple
    with no ``__dict__``, equal to the plain tuple of its fields, and checked
    once when built (``_make`` and ``_replace`` too).  Its kind is stored as
    a :class:`GateKind` and its delay exactly (:func:`as_delay`); a source
    gate's delay must be 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, id: str, kind: GateKind | str, inputs: tuple[str, ...] = (), delay: Delay = 0):
        try:
            kind = _KINDS[kind]
        except (KeyError, TypeError):  # a JSON list or dict kind is unhashable
            raise ValueError(f"gate {id!r}: {kind!r} is not a valid GateKind") from None
        try:
            delay = as_delay(delay)
        except ValueError as exc:
            raise ValueError(f"gate {id!r}: {exc}") from exc
        arity = ARITY[kind]
        if len(inputs) != arity:
            raise ValueError(f"gate {id!r}: kind {kind.value} takes {arity} inputs, got {len(inputs)}")
        if delay and not arity:  # the sources are the kinds without inputs
            raise ValueError(f"gate {id!r}: source gate {kind.value} takes no delay, got {delay}")
        return tuple.__new__(cls, (id, kind, inputs, delay))


class Netlist:
    """Immutable gate DAG with designated sum outputs.

    Construction validates acyclicity, the input-id convention, output
    completeness and gate arities, and precomputes a topological order.
    The readers of each gate (:attr:`fanout`) are built on first read,
    which only the event-driven oracle makes.
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

        # sizes first, so a claimed n costs nothing until the gates are there
        declared_inputs = {g.id for g in self.gates if g.kind is GateKind.INPUT}
        if len(declared_inputs) != 2 * n or declared_inputs != {f"{x}{k}" for x in "ab" for k in range(n)}:
            raise ValueError(
                "INPUT gates must be exactly a0..a%d and b0..b%d" % (n - 1, n - 1)
            )

        fan = self._readers()

        if len(self.outputs) != n + 1 or set(self.outputs) != set(range(n + 1)):
            raise ValueError(f"outputs must map every position 0..{n}")
        for pos, gid in self.outputs.items():
            if gid not in self.by_id:
                raise ValueError(f"output {pos}: unknown gate {gid!r}")

        # Kahn's algorithm over the readers; a duplicate input is two edges
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

    def _readers(self) -> dict[str, list[str]]:
        """The ids of the gates reading each gate, in gate order; an unknown input raises."""
        fan: dict[str, list[str]] = {g.id: [] for g in self.gates}
        for g in self.gates:
            for src in g.inputs:
                if src not in fan:
                    raise ValueError(f"gate {g.id}: unknown input {src!r}")
                fan[src].append(g.id)
        return fan

    @cached_property
    def fanout(self) -> dict[str, tuple[str, ...]]:
        return {gid: tuple(v) for gid, v in self._readers().items()}

    def input_bit(self, gate_id: str) -> tuple[str, int]:
        """Operand ('a' or 'b') and bit position bound to an INPUT gate."""
        return gate_id[0], int(gate_id[1:])

    def source_value(self, gate: Gate, bit: Callable[[str, int], int], full: int = 1) -> int:
        """The stimulus of a source gate, the one rule of both simulators:
        ``bit(operand, k)`` for the operand bit an INPUT is bound to,
        ``full`` (every lane; one pair is the one-lane case) for CONST1
        and 0 for CONST0."""
        if gate.kind is GateKind.INPUT:
            return bit(*self.input_bit(gate.id))
        return full if gate.kind is GateKind.CONST1 else 0

    def arrival_time(self) -> Delay:
        """Latest static arrival time of any sum output: the longest delay
        along a path into an output gate.  Under transport delay no output
        changes after it, for any input pair."""
        arrival: dict[str, Delay] = {}
        for gid in self.order:
            gate = self.by_id[gid]
            arrival[gid] = gate.delay + max((arrival[s] for s in gate.inputs), default=0)
        return max(arrival[gid] for gid in self.outputs.values())

    def to_json_dict(self, lazy: bool = False) -> dict:
        """The netlist as JSON; ``lazy`` gives its gate dicts as an iterator, made as read."""
        gates = ({"id": g.id, "kind": g.kind.value, "inputs": list(g.inputs), "delay": delay_to_json(g.delay)}
                 for g in self.gates)
        return {
            "n": self.n,
            "gates": gates if lazy else list(gates),
            "outputs": {str(pos): gid for pos, gid in sorted(self.outputs.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Netlist":
        """Parse the JSON schema; ``n`` must be an integer, ``inputs`` a
        list and every output key a canonical decimal ``"0"``..``"n"``.
        A bad kind, delay or arity names its gate.  ``data`` is left as
        it was."""
        return cls._parse(data, copy=True)

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        """:meth:`from_json_dict` of decoded text, each gate dict replaced by its Gate as it is read."""
        return cls._parse(json.loads(text), copy=False)

    @classmethod
    def _parse(cls, data: dict, copy: bool) -> "Netlist":
        names: dict[str, str] = {}  # each name's first str
        with malformed_json("netlist"):
            gates = list(data["gates"]) if copy else data["gates"]
            for k, g in enumerate(gates):
                inputs = g.get("inputs", [])
                if type(inputs) is not list:  # its message, naming the gate, is made only here
                    json_list(inputs, f"gate {g['id']!r}: inputs")
                gid = str(g["id"])
                ids = tuple([names.setdefault(s, s) for s in map(str, inputs)])
                gates[k] = Gate(names.setdefault(gid, gid), g["kind"], ids, g.get("delay", 0))
            n = data["n"]
            if type(n) is not int:
                raise TypeError(f"n must be an integer, got {n!r}")
            outputs = {}
            for key, gid in data["outputs"].items():
                if not (key.isdecimal() and len(key) <= len(str(n)) and str(int(key)) == key and int(key) <= n):
                    raise TypeError(f"output key {key!r} is not one of '0'..'{n}'")
                gid = str(gid)
                outputs[int(key)] = names.setdefault(gid, gid)
        return cls(n, gates, outputs)
