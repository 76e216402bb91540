import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revdiv.adders import ADDERS, build_vbe, wrap_add_sub
from revdiv.circuit import (
    Circuit,
    CircuitError,
    Gate,
    Template,
    ccx,
    cx,
    measure,
    x,
)
from revdiv.divider import KINDS, build_divider, make_params

from strategies import circuits


def test_gate_validation():
    # 1 to 3 operands, all distinct ints, none negative; a bool is no operand
    for qubits in [
        (), (0, 1, 2, 3), (0, 0), (0, 0, 1), (0, 1, 1), (-1,), (0, -2),
        (0, 1.5), (1.0,), ("0", 1), (True, 2), (0, 1, False), (0, None), ([0], 1),
    ]:
        with pytest.raises(CircuitError):
            Gate(qubits)
    with pytest.raises(CircuitError, match=r"^non-integer operand in cx\(0, 1\.5\)$"):
        Circuit(2).append(Gate((0, 1.5)))


def test_gate_is_slotted_and_frozen():
    g = ccx(0, 1, 2)
    assert not hasattr(g, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.name = "cx"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.qubits = (0, 1)
    assert Gate.__slots__ == ("qubits",)
    assert g == Gate((0, 1, 2))
    assert hash(g) == hash(Gate((0, 1, 2)))
    assert repr(g) == "Gate(qubits=(0, 1, 2))"
    # the name follows from the operand count
    assert (x(0).name, cx(0, 1).name, ccx(0, 1, 2).name) == ("x", "cx", "ccx")
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", sorted(ADDERS))
def test_extend_copies_equal_validated_gates(kind, adder):
    # extend skips validation; every copy must still be a gate that passes it
    for n in range(1, 9):
        c, _ = build_divider(make_params(n, adder, kind))
        for g in c.gates:
            checked = Gate(g.qubits)
            assert type(g) is Gate
            assert type(g.qubits) is tuple
            assert g == checked
            assert hash(g) == hash(checked)
            assert max(g.qubits) < c.qubit_count


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", sorted(ADDERS))
def test_built_dividers_share_equal_gates(kind, adder):
    # each adder uncomputes its carries with the gates that computed them,
    # and one placement shares those equal gates
    c, _ = build_divider(make_params(32, adder, kind))
    assert len({id(g) for g in c.gates}) <= 0.65 * len(c.gates)


def test_register_allocation_contiguous():
    c = Circuit()
    a = c.new_register("a", 3)
    b = c.new_register("b", 2)
    assert a == (0, 1, 2)
    assert b == (3, 4)
    assert c.qubit_count == 5
    assert c.registers == {"a": a, "b": b}
    with pytest.raises(CircuitError):
        c.new_register("a", 1)
    # a bool or float size is no size, and a name must be one export can write
    for name, size, message in [
        ("c", True, r"^register size must be an int, not True$"),
        ("c", 2.0, r"^register size must be an int, not 2\.0$"),
        (1, 1, r"^register name 1 is not a str$"),
    ]:
        with pytest.raises(CircuitError, match=message):
            c.new_register(name, size)
    assert c.qubit_count == 5


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param((-2,), r"^qubit count must be a non-negative int, got -2$", id="negative"),
        pytest.param((2.0,), r"^qubit count must be a non-negative int, got 2\.0$", id="float"),
        pytest.param((True,), r"^qubit count must be a non-negative int, got True$", id="bool"),
        pytest.param(
            (1, {"a": (0,)}, [cx(0, 1)]),
            r"^gate cx\(0, 1\) out of range for 1-qubit circuit$",
            id="gate-past-the-end",
        ),
        pytest.param((0, {}, [x(0)]), r"^gate x\(0,\) out of range for 0-qubit circuit$", id="no-wires"),
        pytest.param(
            (2, {"a": (0, 2)}),
            r"^register 'a' wire 2 out of range for 2-qubit circuit$",
            id="register-past-the-end",
        ),
        pytest.param(
            (2, {"a": (-1, 0)}),
            r"^register 'a' wire -1 out of range for 2-qubit circuit$",
            id="register-negative",
        ),
        pytest.param(
            (2, {"a": (1.0,)}),
            r"^register 'a' wire 1\.0 out of range for 2-qubit circuit$",
            id="register-float",
        ),
        pytest.param(
            (3, {"a": (0, 1), "b": (1, 2)}),
            r"^registers overlap on wire 1$",
            id="overlap",
        ),
        pytest.param((2, {"a": (0, 0)}), r"^registers overlap on wire 0$", id="repeat"),
        pytest.param(
            (2, [("a", (0,)), ("b", (1,))]),
            r"^registers must be a dict, not list$",
            id="registers-list",
        ),
        pytest.param((1, {1: (0,)}), r"^register name 1 is not a str$", id="name-int"),
        pytest.param(
            (1, {"a": 5}), r"^register 'a' wires must be a tuple, not int$", id="wires-int"
        ),
        pytest.param(
            # a list would not round-trip: import gives back a tuple
            (1, {"a": [0]}), r"^register 'a' wires must be a tuple, not list$", id="wires-list"
        ),
    ],
)
def test_constructor_validation(args, message):
    with pytest.raises(CircuitError, match=message):
        Circuit(*args)


def test_constructor_accepts_gapped_and_unordered_registers():
    # registers may leave wires out or list them out of order; export refuses those
    c = Circuit(3, {"b": (2,), "a": (0,)}, [ccx(0, 1, 2)])
    assert dataclasses.replace(c) == c
    with pytest.raises(CircuitError, match=r"^gate cx\(0, 3\) out of range for 3-qubit circuit$"):
        c.append(cx(0, 3))


def test_append_bounds():
    c = Circuit()
    c.new_register("a", 2)
    c.append(cx(0, 1))
    with pytest.raises(CircuitError):
        c.append(x(2))


def test_extend_remaps_and_copies():
    frag = Circuit()
    frag.new_register("a", 2)
    frag.append(cx(0, 1))
    frag.append(cx(1, 0))
    frag.append(cx(0, 1))  # equal to the first gate, a distinct object
    before = list(frag.gates)
    host = Circuit()
    host.new_register("w", 4)
    host.extend(Template.of(frag), [3, 1])
    assert host.gates == [cx(3, 1), cx(1, 3), cx(3, 1)]
    # the two equal copies are one Gate, the unequal one another
    assert host.gates[0] is host.gates[2]
    assert host.gates[1] is not host.gates[0]
    assert frag.gates == [cx(0, 1), cx(1, 0), cx(0, 1)]
    assert all(g is h for g, h in zip(frag.gates, before))
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [0])
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [2, 2])
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [3, 4])


def naive_remap(fragment, mapping):
    return [Gate(tuple(mapping[q] for q in g.qubits)) for g in fragment.gates]


def test_template_placements_share_within_not_across():
    frag = build_vbe(3)
    t = frag.template
    assert frag.template is t  # made once, at the first use
    # frozen for declared and undeclared attributes alike
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.order = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.foo = 1
    assert len(t.slices) < len(t.order) == len(frag.circuit.gates)
    host = Circuit()
    host.new_register("w", 2 * frag.circuit.qubit_count)
    first = list(range(frag.circuit.qubit_count))
    second = list(reversed(range(frag.circuit.qubit_count, host.qubit_count)))
    host.extend(t, first)
    host.extend(t, second)
    placed = (host.gates[: len(t.order)], host.gates[len(t.order) :])
    for gates, mapping in zip(placed, (first, second)):
        assert gates == naive_remap(frag.circuit, mapping)
        # equal gates of one placement are one object, and only those
        by_value = {}
        for g in gates:
            assert by_value.setdefault(g, g) is g
    assert not {id(g) for g in placed[0]} & {id(g) for g in placed[1]}


@st.composite
def fragments_and_mappings(draw):
    frag = draw(circuits(1, 8, 40, tiled=False))
    width = frag.qubit_count
    host_width = draw(st.integers(min_value=width, max_value=12))
    mapping = draw(st.permutations(range(host_width)))[:width]
    return frag, host_width, mapping


@settings(max_examples=200, deadline=None)
@given(fragments_and_mappings())
def test_extend_is_the_naive_remap(case):
    frag, host_width, mapping = case
    before = list(frag.gates)
    host = Circuit()
    host.new_register("h", host_width)
    host.append(x(0))
    host.extend(Template.of(frag), mapping)
    assert host.gates[0] == x(0)
    assert host.gates[1:] == naive_remap(frag, mapping)
    assert all(type(g) is Gate and type(g.qubits) is tuple for g in host.gates)
    # one copy per distinct fragment gate
    assert len({id(g) for g in host.gates[1:]}) == len(set(frag.gates))
    assert frag.gates == before and all(g is h for g, h in zip(frag.gates, before))


@pytest.mark.parametrize("adder", sorted(ADDERS))
def test_placed_fragment_matches_extend_of_its_circuit(adder):
    frag = wrap_add_sub(ADDERS[adder].build(5))
    n = 6
    width = frag.circuit.qubit_count
    placed, extended = Circuit(), Circuit()
    for c in (placed, extended):
        c.new_register("w", width + n)
    for i in range(n):
        # shift every role one wire up per placement, wrapping around
        host_of = [(k + i) % (width + n) for k in range(width)]
        frag.place(
            placed,
            [host_of[k] for k in frag.a],
            [host_of[k] for k in frag.b],
            host_of[frag.carry_in],
            host_of[frag.carry_out],
            [host_of[k] for k in frag.ancillas],
        )
        extended.extend(Template.of(frag.circuit), host_of)
    assert placed.gates == extended.gates
    assert len(placed.gates) == n * len(frag.circuit.gates)


def test_template_of_empty_and_wireless_circuits():
    host = Circuit()
    host.new_register("w", 2)
    assert host.extend(Template.of(Circuit()), []).gates == []
    t = Template.of(Circuit(2))
    assert host.extend(t, [1, 0]).gates == []
    with pytest.raises(CircuitError):
        host.extend(t, [1])


def test_depth_disjoint_toffolis():
    c = Circuit()
    c.new_register("w", 6)
    c.append(ccx(0, 1, 2))
    c.append(ccx(3, 4, 5))
    assert measure(c).toffoli_depth == 1
    assert measure(c).toffoli_count == 2


def test_depth_chained_toffolis():
    c = Circuit()
    c.new_register("w", 5)
    c.append(ccx(0, 1, 2))
    c.append(ccx(2, 3, 4))
    assert measure(c).toffoli_depth == 2


def test_depth_clifford_only_zero():
    c = Circuit()
    c.new_register("w", 3)
    c.append(x(0))
    c.append(cx(0, 1))
    c.append(cx(1, 2))
    rep = measure(c)
    assert rep.toffoli_depth == 0
    assert rep.toffoli_count == 0
    assert rep.gate_total == 3


def test_depth_clifford_mediated_ordering():
    # a CNOT between two Toffolis forces them onto different levels
    c = Circuit()
    c.new_register("w", 6)
    c.append(ccx(0, 1, 2))
    c.append(cx(2, 3))
    c.append(ccx(3, 4, 5))
    assert measure(c).toffoli_depth == 2


def reversed_circuit(c):
    """Same wires, gates in reverse order: the inverse, as each gate is self-inverse."""
    return Circuit(c.qubit_count, dict(c.registers), c.gates[::-1])


def test_reversed_is_inverse_order():
    c = Circuit()
    c.new_register("w", 3)
    c.append(x(0))
    c.append(ccx(0, 1, 2))
    r = reversed_circuit(c)
    assert r.gates == [ccx(0, 1, 2), x(0)]
    assert c.gates == [x(0), ccx(0, 1, 2)]


def _reference_measure(c):
    """Dependency scheduling as a max over every operand's level."""
    level = [0] * c.qubit_count
    depth = count = 0
    for g in c.gates:
        v = max(level[q] for q in g.qubits)
        if g.name == "ccx":
            v += 1
            count += 1
            depth = max(depth, v)
        for q in g.qubits:
            level[q] = v
    return depth, count


@settings(max_examples=300, deadline=None)
@given(circuits(3, 8, 60, tiled=False))
def test_measure_matches_reference_scheduler(c):
    rep = measure(c)
    assert (rep.toffoli_depth, rep.toffoli_count) == _reference_measure(c)
    assert rep.qubit_count == c.qubit_count
    assert rep.gate_total == len(c.gates)
