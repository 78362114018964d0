import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pseudoadder import (
    Gate,
    GateKind,
    KsaDelays,
    Netlist,
    extract_ec_table,
    generate_ksa,
    generate_rca,
)
from pseudoadder.netlist import as_delay
from conftest import random_netlist


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_order_is_topological(seed, n):
    rng = random.Random(seed)
    base = random_netlist(n, rng)
    gates = list(base.gates)
    rng.shuffle(gates)  # the order must not lean on the listing order
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
        (changed(lambda d: d.update(n=1.5)), "n must be an integer, got 1.5"),
        (changed(lambda d: d.update(n=True)), "n must be an integer, got True"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(inputs="a0b0")),
         "gate 's0': inputs must be a list, got 'a0b0'"),
        # a bad kind, delay or arity names its gate
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(kind="FOO")),
         "gate 's0': 'FOO' is not a valid GateKind"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay="abc")),
         "gate 's0': Invalid literal for Fraction: 'abc'"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(delay=-1)),
         "gate 's0': delay must be non-negative, got -1"),
        (changed(lambda d: d["gates"][base["gates"].index(xor)].update(inputs=["a0"])),
         "gate 's0': kind XOR2 takes 2 inputs, got 1"),
    ):
        with pytest.raises(ValueError) as exc:
            Netlist.from_json_dict(data)
        assert str(exc.value).startswith(f"malformed netlist JSON: {fault}")
    assert Netlist.from_json_dict(base).outputs == {0: "s0", 1: "s1"}


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


rationals = st.fractions(min_value=0, max_value=4, max_denominator=12)


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
