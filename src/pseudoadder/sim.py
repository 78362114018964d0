"""Discrete-event simulation of delay-annotated netlists: the reference oracle.

The production engine is the lane-parallel :class:`pseudoadder.sweep.PairSweep`;
this simulator runs one input pair at a time and exists so that tests can
check the engine against an independent implementation.

Semantics: every gate output is 0 at t=0; operand and constant values are
applied at t=0 (sources take no delay); whenever a gate's inputs change at
time t it re-evaluates and, if the result differs from its output, the new value commits
at ``t + delay`` (transport delay, no pulse swallowing).  Reads at time T
take the value of the last transition at or before T.  Acyclicity
guarantees quiescence.
"""

from __future__ import annotations

import heapq

from .model import InputPair, Record
from .netlist import Netlist, SOURCE_KINDS, Time, as_time, evaluate_gate


class SignalTrace(Record):
    """Per-gate transition lists ``(time, value)``; implicit 0 before the
    first transition.  Times are strictly increasing per gate and values
    alternate."""

    __slots__ = ("n", "transitions")

    def __init__(self, n: int, transitions: dict[str, list[tuple[Time, int]]]):
        self.n, self.transitions = n, transitions

    def value_at(self, gate_id: str, t: Time) -> int:
        """The gate's value at read time t, taken exactly like a delay by
        :func:`~pseudoadder.netlist.as_time`: 0.3 reads at 3/10."""
        t = as_time(t)
        value = 0
        for when, v in self.transitions[gate_id]:
            if when > t:
                break
            value = v
        return value

    def quiescence_time(self) -> Time:
        """Time of the last transition anywhere (0 for a frozen netlist)."""
        latest: Time = 0
        for events in self.transitions.values():
            if events and events[-1][0] > latest:
                latest = events[-1][0]
        return latest


def simulate(net: Netlist, p: InputPair) -> SignalTrace:
    """Run one input pair to quiescence and record every transition."""
    if p.n != net.n:
        raise ValueError(f"width mismatch: netlist n={net.n}, pair n={p.n}")

    value: dict[str, int] = {g.id: 0 for g in net.gates}
    transitions: dict[str, list[tuple[Time, int]]] = {g.id: [] for g in net.gates}

    heap: list[tuple[Time, int, str, int]] = []
    seq = 0

    def schedule(t: Time, gid: str, v: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, gid, v))
        seq += 1

    # t=0: sources take their stimulus values, everything else evaluates
    # once against the all-zero initial state.
    for g in net.gates:
        if g.kind in SOURCE_KINDS:
            schedule(0, g.id, net.source_value(g, lambda x, k: (p.a if x == "a" else p.b) >> k & 1))
        else:
            v = evaluate_gate(g.kind, [0] * len(g.inputs), 1)
            if v:
                schedule(g.delay, g.id, v)

    while heap:
        now = heap[0][0]
        # Delta cycles: zero-delay fanout settles within the timestamp and
        # only the net value change is recorded as a transition.
        before: dict[str, int] = {}
        while heap and heap[0][0] == now:
            changed: dict[str, int] = {}
            # commits at one instant coalesce; the last scheduled wins
            while heap and heap[0][0] == now:
                _, _, gid, v = heapq.heappop(heap)
                changed[gid] = v
            touched: set[str] = set()
            for gid, v in changed.items():
                if v != value[gid]:
                    before.setdefault(gid, value[gid])
                    value[gid] = v
                    touched.update(net.fanout[gid])
            for gid in touched:
                g = net.by_id[gid]
                v = evaluate_gate(g.kind, [value[s] for s in g.inputs], 1)
                schedule(now + g.delay, gid, v)
        for gid, old in before.items():
            if value[gid] != old:
                transitions[gid].append((now, value[gid]))

    return SignalTrace(net.n, transitions)


def computed_sum(net: Netlist, p: InputPair, t: Time) -> int:
    """Oracle: simulate one pair and read the sum at time T."""
    trace = simulate(net, p)
    return sum(trace.value_at(gid, t) << pos for pos, gid in net.outputs.items())
