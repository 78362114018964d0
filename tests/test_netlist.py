import copy
import json
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    Gate,
    GateKind,
    KsaDelays,
    Netlist,
    PairSweep,
    extract_ec_table,
    generate_ksa,
    generate_rca,
)
from pseudoadder import sweep as sweep_module
from pseudoadder.cli import main
from pseudoadder.netlist import as_delay
from conftest import random_netlist


rationals = st.fractions(min_value=0, max_value=4, max_denominator=12)


def inputs_for(n):
    gates = [Gate(f"a{k}", GateKind.INPUT) for k in range(n)]
    gates += [Gate(f"b{k}", GateKind.INPUT) for k in range(n)]
    return gates


def test_gate_arity_checked():
    with pytest.raises(ValueError):
        Gate("g", GateKind.AND2, ("x",))
    with pytest.raises(ValueError):
        Gate("g", GateKind.NOT, ("x", "y"))
    with pytest.raises(ValueError):
        Gate("g", GateKind.INPUT, ("x",))


def test_gate_normalizes_kind_and_delay():
    gate = Gate("x", "XOR2", ("a0", "b0"), 0.1)
    assert gate.kind is GateKind.XOR2 and gate.delay == Fraction(1, 10)
    exact = generate_rca(3, [Fraction(1, 10)] * 3, [Fraction(2, 7), 1, 0, Fraction(1, 2)])
    loose_delay = {Fraction(1, 10): 0.1, Fraction(2, 7): "2/7", 1: 1.0, 0: "0", Fraction(1, 2): "1/2"}
    loose = Netlist(
        3,
        [Gate(g.id, g.kind.value, g.inputs, loose_delay[g.delay]) for g in exact.gates],
        exact.outputs,
    )
    for g, e in zip(loose.gates, exact.gates):
        assert g == e and g.kind is e.kind and type(g.delay) is type(e.delay), g
    assert loose.to_json() == exact.to_json()
    assert loose.arrival_time() == exact.arrival_time() == Fraction(11, 10)
    lanes, reference = PairSweep(loose), PairSweep(exact)
    for t in reference.output_change_times():
        assert lanes.lane_sums(t) == reference.lane_sums(t), t
    # a non-negative int and a non-whole Fraction are kept as they are; every other value is normalized
    for value, exact in ((7, 7), (Fraction(5, 7), Fraction(5, 7)), (Fraction(6, 3), 2), (0.75, Fraction(3, 4)),
                         (2.0, 2), ("3/6", Fraction(1, 2)), (IntEnum("Step", "ONE TWO").TWO, 2)):
        delay = Gate("x", GateKind.XOR2, ("a0", "b0"), value).delay
        assert delay == exact and type(delay) is type(exact), value
    for args, fault in (
        ((GateKind.XOR2, ("a0", "b0"), True), "delay must be a number"),
        ((GateKind.XOR2, ("a0", "b0"), Fraction(-1, 2)), "delay must be non-negative, got -1/2"),
        ((GateKind.XOR2, ("a0", "b0"), Fraction(-4, 2)), "delay must be non-negative, got -2"),
        (("XOR3", ("a0", "b0")), "'XOR3' is not a valid GateKind"),
        ((["XOR2"], ("a0", "b0")), "['XOR2'] is not a valid GateKind"),  # unhashable, as JSON gives it
        ((GateKind.XOR2, ("a0", "b0"), -1), "delay must be non-negative, got -1"),
        # both simulators apply a source at t=0, so a source delay would
        # only push arrival_time (and sweep's quiescence) past the last change
        ((GateKind.INPUT, (), 5), "source gate INPUT takes no delay, got 5"),
        ((GateKind.CONST1, (), "1/2"), "source gate CONST1 takes no delay, got 1/2"),
    ):
        with pytest.raises(ValueError, match=f"^gate 'x': {re.escape(fault)}$"):
            Gate("x", *args)


def test_as_delay():
    assert as_delay(3) == 3 and isinstance(as_delay(3), int)
    assert as_delay(2.0) == 2 and isinstance(as_delay(2.0), int)
    assert as_delay(0.5) == Fraction(1, 2)
    assert as_delay("0.1") == Fraction(1, 10)
    with pytest.raises(ValueError):
        as_delay(-1)
    with pytest.raises(ValueError):
        as_delay(True)


def test_netlist_validation_errors():
    gates = inputs_for(1)
    gates.append(Gate("s0", GateKind.XOR2, ("a0", "b0"), 1))
    gates.append(Gate("s1", GateKind.AND2, ("a0", "b0"), 1))
    Netlist(1, gates, {0: "s0", 1: "s1"})  # baseline is fine

    with pytest.raises(ValueError, match="duplicate"):
        Netlist(1, gates + [Gate("s0", GateKind.BUF, ("a0",))], {0: "s0", 1: "s1"})
    with pytest.raises(ValueError, match="INPUT gates"):
        Netlist(2, gates + [Gate("a1", GateKind.INPUT)], {0: "s0", 1: "s1", 2: "s1"})
    with pytest.raises(ValueError, match="unknown input"):
        Netlist(1, inputs_for(1) + [Gate("s0", GateKind.BUF, ("nope",))], {0: "s0", 1: "s0"})
    with pytest.raises(ValueError, match="outputs"):
        Netlist(1, gates, {0: "s0"})
    with pytest.raises(ValueError, match="unknown gate"):
        Netlist(1, gates, {0: "s0", 1: "ghost"})


def test_netlist_rejects_cycles():
    cases = [
        # two gates feeding each other
        ([Gate("x", GateKind.AND2, ("y", "a0")), Gate("y", GateKind.OR2, ("x", "b0"))], "x, y"),
        # a self-loop
        ([Gate("x", GateKind.AND2, ("x", "a0")), Gate("y", GateKind.BUF, ("b0",))], "x"),
        # a cycle hanging off valid gates, with a valid gate behind it
        (
            [
                Gate("p", GateKind.XOR2, ("a0", "b0")),
                Gate("q", GateKind.BUF, ("p",)),
                Gate("x", GateKind.AND2, ("q", "z")),
                Gate("z", GateKind.NOT, ("x",)),
                Gate("y", GateKind.OR2, ("z", "p")),
            ],
            "x, z, y",
        ),
    ]
    for extra, stuck in cases:
        with pytest.raises(ValueError, match=f"not acyclic: .*: {stuck}$"):
            Netlist(1, inputs_for(1) + extra, {0: "x", 1: "y"})


def test_duplicate_input_gate_builds():
    gates = inputs_for(1) + [
        Gate("s0", GateKind.XOR2, ("a0", "a0")),
        Gate("s1", GateKind.MAJ3, ("s0", "b0", "s0")),
    ]
    net = Netlist(1, gates, {0: "s0", 1: "s1"})
    assert net.order[-2:] == ("s0", "s1")
    assert net.fanout["a0"] == ("s0", "s0")
    assert sweep_reader_counts(net) == {"a0": 2, "b0": 1, "s0": 2}


def sweep_reader_counts(net):
    """The reader count of each read gate that a PairSweep of ``net`` starts
    from, after checking that the sweep reads each count down to 0."""
    made = []

    class Readers(Counter):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((dict(self), self))

    with mock.patch.object(sweep_module, "Counter", Readers):
        PairSweep(net, times=[net.arrival_time()])
    ((counts, left),) = made
    assert set(left.values()) <= {0}, left
    return counts


@st.composite
def listed_netlists(draw):
    """``(kind, net)``: an RCA or a KSA with fractional delays, or a
    ``random_netlist``, its gates as generated."""
    kind = draw(st.sampled_from(("rca", "ksa", "random")))
    delays = lambda count: tuple(draw(st.lists(rationals, min_size=count, max_size=count)))
    if kind == "rca":
        n = draw(st.integers(1, 5))
        return kind, generate_rca(n, delays(n), delays(n + 1))
    if kind == "ksa":
        n = draw(st.sampled_from((2, 4, 8)))
        return kind, generate_ksa(n, KsaDelays(delays(n), tuple(delays(n) for _ in range(n.bit_length() - 1)),
                                               delays(n + 1)))
    return kind, random_netlist(draw(st.integers(1, 3)), random.Random(draw(st.integers(0, 2**32 - 1))))


def names_are_held_once(net):
    return all(net.by_id[s].id is s for g in net.gates for s in g.inputs) and all(
        net.by_id[s].id is s for s in net.outputs.values())


@settings(max_examples=60, deadline=None)
@given(listed_netlists(), st.booleans(), st.data())
def test_each_name_is_held_once_through_json(drawn, shuffle, data):
    kind, net = drawn
    if shuffle:
        net = Netlist(net.n, data.draw(st.permutations(net.gates)), net.outputs)
    text = net.to_json()
    again = Netlist.from_json(text)
    assert (again.gates, again.outputs, again.to_json(), again.order) == (net.gates, net.outputs, text, net.order)
    position = {gid: k for k, gid in enumerate(again.order)}
    assert all(position[s] < position[g.id] for g in again.gates for s in g.inputs)
    assert names_are_held_once(net) and names_are_held_once(again)
    decoded = json.loads(text)
    before = copy.deepcopy(decoded)
    assert Netlist.from_json_dict(decoded).to_json() == text
    assert decoded == before
    assert sweep_reader_counts(net) == {gid: len(readers) for gid, readers in net.fanout.items() if readers}
    if kind != "random" and not shuffle:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.json"
            if kind == "rca":
                carry = [str(g.delay) for g in net.gates if g.kind is GateKind.MAJ3]
                sums = [str(net.by_id[net.outputs[k]].delay) for k in range(net.n + 1)]
                argv = ["rca", "--carry-delays", ",".join(carry), "--sum-delays", ",".join(sums)]
            else:
                delays = Path(tmp) / "delays.json"
                delays.write_text(json.dumps(ksa_delays(net).to_json_dict()))
                argv = ["ksa", "--delay", f"file:{delays}"]
            assert main(["gen", *argv, "--n", str(net.n), "-o", str(path)]) == 0
            assert path.read_text() == text + "\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), names=st.lists(st.text(), min_size=20, max_size=20, unique=True),
       delays=st.lists(rationals, min_size=14, max_size=14))
def test_json_text_is_one_json_dumps(seed, names, delays):
    """Any names, quoted or escaped as json.dumps would, and exact delays."""
    base = random_netlist(2, random.Random(seed))
    name = dict(zip((g.id for g in base.gates if g.kind is not GateKind.INPUT),
                    (x for x in names if not re.fullmatch("[ab][01]", x))))
    delay = iter(delays)
    gates = [g if g.kind is GateKind.INPUT else Gate(name[g.id], g.kind, tuple(name.get(s, s) for s in g.inputs),
                                                     next(delay) if g.inputs else 0) for g in base.gates]
    net = Netlist(2, gates, {pos: name.get(gid, gid) for pos, gid in base.outputs.items()})
    text = json.dumps({
        "n": 2,
        "gates": [{"id": g.id, "kind": g.kind.value, "inputs": list(g.inputs),
                   "delay": g.delay if type(g.delay) is int else str(g.delay)} for g in net.gates],
        "outputs": {str(pos): net.outputs[pos] for pos in range(3)},
    })
    assert net.to_json() == "".join(net.json_pieces()) == text
    assert net.to_json_dict() == json.loads(text)
    assert Netlist.from_json(text).gates == net.gates


def ksa_delays(net):
    """The module delays a generated KSA was built from (0 where no cell is)."""
    levels = net.n.bit_length() - 1
    delay = lambda gid: net.by_id[gid].delay if gid in net.by_id else 0
    return KsaDelays(tuple(delay(f"p{k}") for k in range(net.n)),
                     tuple(tuple(delay(f"G_l{level}k{k}") for k in range(net.n)) for level in range(1, levels + 1)),
                     tuple(delay(f"s{k}") for k in range(net.n + 1)))


def test_from_json_of_the_ksa128_in_bounded_memory():
    text = generate_ksa(128, 1).to_json()
    Netlist.from_json(text)  # warm
    tracemalloc.start()
    try:
        net = Netlist.from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 128
    # the decoded JSON beside the gates, every name twice and a fanout
    # tuple per gate peaked at 2.68 MB; each gate in place of its dict,
    # each name once and the fanout on demand, at 1.40 MB
    assert peak < 1_600_000, f"from_json peaked at {peak / 1e6:.2f} MB"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_order_is_topological(seed, n):
    rng = random.Random(seed)
    base = random_netlist(n, rng)
    # gates listed after their inputs keep the listing order: generated adders and gen's output
    delays = lambda count: [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(count)]
    width, ksa = rng.randint(1, 9), 2 << n
    listed = [base, generate_rca(width, delays(width), delays(width + 1)), generate_ksa(ksa, delays(1)[0])]
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["rca", "--n", str(width)], ["ksa", "--n", str(ksa), "--delay", str(delays(1)[0])]):
            assert main(["gen", *argv, "-o", f"{tmp}/net.json"]) == 0
            listed.append(Netlist.from_json(Path(f"{tmp}/net.json").read_text()))
    for net in listed:
        assert net.order == tuple(g.id for g in net.gates)
    gates = list(base.gates)
    rng.shuffle(gates)  # a shuffled listing still gets a topological order
    net = Netlist(n, gates, base.outputs)
    assert sorted(net.order) == sorted(g.id for g in gates)
    position = {gid: k for k, gid in enumerate(net.order)}
    for g in gates:
        assert all(position[s] < position[g.id] for s in g.inputs)


def test_generated_netlists_roundtrip_json():
    for net in (
        generate_rca(4, [1, 2, 0, 3], [0, 1, 2, 3, 4]),
        generate_ksa(8, KsaDelays.uniform(8, 2)),
    ):
        again = Netlist.from_json(net.to_json())
        assert again.to_json_dict() == net.to_json_dict()
        assert again.n == net.n
        assert again.order == net.order


def test_malformed_netlist_json_is_refused():
    base = generate_rca(1, [1], [1, 1]).to_json_dict()
    assert base["outputs"] == {"0": "s0", "1": "s1"}
    xor = next(g for g in base["gates"] if g["id"] == "s0")
    assert xor["inputs"] == ["a0", "b0"]

    def changed(edit):
        data = json.loads(json.dumps(base))
        edit(data)
        return data

    for data, fault in (
        # "01" used to fold onto position 1, making s0 the carry-out
        (changed(lambda d: d["outputs"].update({"01": "s0"})), "output key '01' is not one of '0'..'1'"),
        (changed(lambda d: d["outputs"].update({" 1": "s1"})), "output key ' 1'"),
        # too long for int(): refused by its length, with the same message
        (changed(lambda d: d["outputs"].update({"9" * 5000: "s1"})), "output key '999"),
        (changed(lambda d: d.update(n=1.5)), "n must be an integer, got 1.5"),
        (changed(lambda d: d.update(n=True)), "n must be an integer, got True"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(inputs="a0b0")),
         "gate 's0': inputs must be a list, got 'a0b0'"),
        # a bad kind, delay or arity names its gate
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(kind="FOO")),
         "gate 's0': 'FOO' is not a valid GateKind"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(kind=["XOR2"])),
         "gate 's0': ['XOR2'] is not a valid GateKind"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay="abc")),
         "gate 's0': cannot interpret delay 'abc'"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay="1/0")),
         "gate 's0': cannot interpret delay '1/0'"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay=-1)),
         "gate 's0': delay must be non-negative, got -1"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay="-1/2")),
         "gate 's0': delay must be non-negative, got -1/2"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay=True)),
         "gate 's0': delay must be a number"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(inputs=["a0"])),
         "gate 's0': kind XOR2 takes 2 inputs, got 1"),
        (changed(lambda d: d["gates"][0].update(delay=5)), "gate 'a0': source gate INPUT takes no delay, got 5"),
    ):
        with pytest.raises(ValueError) as exc:
            Netlist.from_json_dict(data)
        assert str(exc.value).startswith(f"malformed netlist JSON: {fault}")
    assert Netlist.from_json_dict(base).outputs == {0: "s0", 1: "s1"}
    # a claimed n costs no memory before the file is checked against it
    n = 10**9
    for outputs in ({}, {"0": "x"}):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                Netlist.from_json_dict({"n": n, "gates": [], "outputs": outputs})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"INPUT gates must be exactly a0..a{n - 1} and b0..b{n - 1}"
        assert peak < 1 << 20, peak


def test_fractional_delays_roundtrip():
    net = generate_rca(2, [as_delay("0.5"), 1], [0, as_delay("0.25"), 1])
    again = Netlist.from_json(net.to_json())
    delays = {g.id: g.delay for g in again.gates}
    assert delays["c1"] == Fraction(1, 2)
    assert delays["s1"] == Fraction(1, 4)


def test_sevenths_survive_json_and_keep_the_table():
    net = generate_rca(4, [Fraction(5, 7)] * 4, [Fraction(5, 7)] * 5)
    text = net.to_json()
    assert '"5/7"' in text
    again = Netlist.from_json(text)
    for t in (Fraction(5, 7), Fraction(10, 7), Fraction(15, 7)):
        assert extract_ec_table(again, t) == extract_ec_table(net, t)


@settings(max_examples=25, deadline=None)
@given(
    carries=st.lists(rationals, min_size=3, max_size=3),
    sums=st.lists(rationals, min_size=4, max_size=4),
    reads=st.lists(rationals, min_size=1, max_size=3),
)
def test_rational_delays_roundtrip_exactly(carries, sums, reads):
    net = generate_rca(3, carries, sums)
    again = Netlist.from_json(net.to_json())
    assert [g.delay for g in again.gates] == [g.delay for g in net.gates]
    assert again.to_json_dict() == net.to_json_dict()
    for t in reads:
        assert extract_ec_table(again, t) == extract_ec_table(net, t)


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=17, max_size=17))
def test_rational_ksa_delays_roundtrip_exactly(values):
    # a 4-bit Kogge-Stone: 4 PG cells, 2 prefix levels of 4, 5 sum XORs
    delays = KsaDelays(tuple(values[:4]), (tuple(values[4:8]), tuple(values[8:12])), tuple(values[12:]))
    assert KsaDelays.from_json_dict(json.loads(json.dumps(delays.to_json_dict()))) == delays


def test_generator_guards():
    with pytest.raises(ValueError):
        generate_rca(4, [1, 1, 1], [1] * 5)
    with pytest.raises(ValueError):
        generate_rca(4, [1] * 4, [1] * 4)
    with pytest.raises(ValueError):
        generate_ksa(12, 1)
    with pytest.raises(ValueError):
        generate_ksa(1, 1)


def test_rca_minimal_structure():
    net = generate_rca(1, [1], [1, 1])
    kinds = sorted(g.kind.value for g in net.gates if g.inputs)
    assert kinds == ["MAJ3", "XOR2", "XOR2"]


def test_ksa_delay_spec_roundtrip():
    delays = KsaDelays.uniform(4, 2)
    assert KsaDelays.from_json_dict(delays.to_json_dict()) == delays
    with pytest.raises(ValueError):
        generate_ksa(8, KsaDelays.uniform(4, 1))
