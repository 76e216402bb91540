import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revdiv import circuit
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
        [0, 1],  # a list would leave the gate unhashable
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


HELPERS = {1: x, 2: cx, 3: ccx}


REFUSED = [
    (True,), (1.0,), ("0",), (-1,), (None,),
    (False, 1), (0, 1.5), ("0", 1), (-2, 0), (0, -1), (1, 1), (True, 1),
    (True, 1, 2), (0, 1, 2.0), (0, "1", 2), (-1, 0, 1), (0, 1, -3),
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (-1, -1, 0),
]


@pytest.mark.parametrize("qubits", REFUSED)
def test_helpers_refuse_what_gate_refuses(qubits):
    with pytest.raises(CircuitError) as by_gate:
        Gate(qubits)
    with pytest.raises(CircuitError, match=f"^{re.escape(str(by_gate.value))}$"):
        HELPERS[len(qubits)](*qubits)


def _writer(c: Circuit, arity: int):
    return (c.x, c.cx, c.ccx)[arity - 1]


@pytest.mark.parametrize("qubits", REFUSED)
def test_writers_refuse_what_gate_refuses(qubits):
    # each writer checks its operands inline; a refusal must read as Gate's
    c = Circuit(4, {}, [cx(0, 1)])
    with pytest.raises(CircuitError) as by_gate:
        Gate(qubits)
    with pytest.raises(CircuitError, match=f"^{re.escape(str(by_gate.value))}$"):
        _writer(c, len(qubits))(*qubits)
    assert c.ops == [-1, 0, 1]


@pytest.mark.parametrize("qubits", [(3,), (3, 0), (0, 4), (5, 1, 2), (0, 3, 1), (0, 1, 5)])
def test_writers_refuse_out_of_range_as_append_does(qubits):
    c = Circuit(3)
    with pytest.raises(CircuitError) as by_append:
        c.append(Gate(qubits))
    assert str(by_append.value) == f"gate {Gate(qubits).name}{qubits} out of range for 3-qubit circuit"
    with pytest.raises(CircuitError, match=f"^{re.escape(str(by_append.value))}$"):
        _writer(c, len(qubits))(*qubits)
    assert c.ops == []


def _outcome(write, c: Circuit):
    """The store after ``write(c)``, or the refusal it raised."""
    try:
        write(c)
    except CircuitError as exc:
        return str(exc)
    return c.ops


@given(st.integers(3, 6), st.data())
def test_writers_store_what_append_stores(width, data):
    # a writer and append of the helper's gate leave the same store, or the
    # same refusal when one operand is negative, out of range, a bool, a
    # float or a repeat
    k = data.draw(st.integers(1, 3))
    qubits = data.draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k, unique=True))
    if data.draw(st.booleans()):
        bad = st.sampled_from([-1, width, True, 1.0, qubits[0]])
        qubits[data.draw(st.integers(0, k - 1))] = data.draw(bad)
    by_append = _outcome(lambda c: c.append(HELPERS[k](*qubits)), Circuit(width))
    by_writer = _outcome(lambda c: _writer(c, k)(*qubits), Circuit(width))
    assert by_writer == by_append


@given(st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=3, unique=True))
def test_helpers_make_what_gate_makes(qubits):
    q = tuple(qubits)
    g = HELPERS[len(q)](*q)
    assert type(g) is Gate and type(g.qubits) is tuple
    assert g == Gate(q) and g.qubits == q and hash(g) == hash(Gate(q))


def test_valid_builds_skip_the_gate_constructor(monkeypatch):
    # a count in place of a timing gate: builds store their gates through the
    # writers and extend's remap, so they make no Gate, which would run
    # __post_init__, and call no append
    calls, appends = [], []
    checked, append = Gate.__post_init__, Circuit.append
    monkeypatch.setattr(Gate, "__post_init__", lambda g: calls.append(g) or checked(g))
    monkeypatch.setattr(Circuit, "append", lambda c, g: appends.append(g) or append(c, g))
    for n in range(1, 9):
        for kind in KINDS:
            for adder in sorted(ADDERS):
                build_divider(make_params(n, adder, kind))
    assert (calls, appends) == ([], [])
    Circuit(2).append(cx(0, 1))  # the counters see a helper's gate and its append
    assert calls == appends == [Gate((0, 1))]


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
    # so about half the gates equal an earlier one
    c, _ = build_divider(make_params(32, adder, kind))
    assert len(set(c.gates)) <= 0.65 * len(c.gates)


def test_gate_counts_make_no_gate(monkeypatch):
    # the benchmark reads len(c.gates) per build and len(template.gates) per
    # placement; neither may make a Gate, by the constructor or by the view
    calls = []
    checked, view_gate = Gate.__post_init__, circuit._gate
    monkeypatch.setattr(Gate, "__post_init__", lambda g: calls.append(g) or checked(g))
    monkeypatch.setattr(circuit, "_gate", lambda *op: calls.append(op) or view_gate(*op))
    frag = build_vbe(4)
    c, _ = build_divider(make_params(4, "vbe", KINDS[0]))
    assert (len(c.gates), len(frag.template.gates)) == (len(c.ops) // 3, len(frag.circuit.gates))
    assert calls == []
    assert c.gates[0] == Gate(c.gates[0].qubits)
    assert len(calls) == 3  # the counter sees two reads of the view and a construction


_GATES_ON_6 = st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True).map(
    lambda q: Gate(tuple(q))
)
_INDICES = st.integers(-9, 9)
_SLICES = st.builds(slice, st.none() | _INDICES, st.none() | _INDICES, st.none() | st.integers(-3, 3))
_EDITS = st.one_of(
    st.tuples(st.just("get"), _INDICES | _SLICES),
    st.tuples(st.just("insert"), _INDICES, _GATES_ON_6),
    st.tuples(st.just("del"), _INDICES | _SLICES),
    st.tuples(st.just("set"), _INDICES, _GATES_ON_6),
    st.tuples(st.just("set"), _SLICES, st.lists(_GATES_ON_6, max_size=4)),
)


def _edit(gates, edit):
    """Apply one edit to a list of gates, or name the error it raises."""
    op, i, *value = edit
    try:
        if op == "get":
            return gates[i]
        if op == "insert":
            gates.insert(i, *value)
        elif op == "del":
            del gates[i]
        else:
            gates[i] = value[0]
    except (IndexError, ValueError) as exc:  # a bad index, a zero step or an unequal slice
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_GATES_ON_6, max_size=8), st.lists(_EDITS, max_size=8))
def test_gate_view_edits_as_a_list_does(initial, edits):
    c = Circuit(6, {"w": tuple(range(6))}, list(initial))
    model = list(initial)
    for edit in edits:
        assert _edit(c.gates, edit) == _edit(model, edit)
        assert c.gates == model and len(c.gates) == len(model) == len(c.ops) // 3
        assert list(c.gates) == model and c.gates[:] == model


def test_gate_view_writes_are_checked():
    c = Circuit(3, {"w": (0, 1, 2)}, [x(0), ccx(0, 1, 2)])
    for write in (
        lambda g: g.append(cx(0, 3)),
        lambda g: g.insert(0, x(3)),
        lambda g: g.__setitem__(0, ccx(1, 2, 5)),
        lambda g: g.__setitem__(slice(0, 1), [x(1), x(7)]),
    ):
        with pytest.raises(CircuitError, match=r"out of range for 3-qubit circuit$"):
            write(c.gates)
    with pytest.raises(CircuitError, match=r"^gates must be a list of Gate$"):
        c.gates.append((0,))
    assert c.gates == [x(0), ccx(0, 1, 2)] and c.ops == [-1, -1, 0, 0, 1, 2]
    # assigning gates refills the store through the same checks
    c.gates += [cx(2, 1)]
    assert c.ops == [-1, -1, 0, 0, 1, 2, -1, 2, 1]
    with pytest.raises(CircuitError, match=r"^gate x\(3,\) out of range for 3-qubit circuit$"):
        c.gates = [x(3)]
    with pytest.raises(TypeError):  # a template's store is a tuple
        Template.of(c).gates.append(x(0))


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
        pytest.param((1, {"a": (0,)}, [(0,)]), r"^gates must be a list of Gate$", id="gate-tuple"),
        pytest.param(
            (1, {"a": (0,)}, (x(0),)), r"^gates must be a list of Gate$", id="gates-tuple"
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
    frag.append(cx(0, 1))  # equal to the first gate
    before = list(frag.gates)
    host = Circuit()
    host.new_register("w", 4)
    host.extend(Template.of(frag), [3, 1])
    assert host.gates == [cx(3, 1), cx(1, 3), cx(3, 1)]
    assert frag.gates == [cx(0, 1), cx(1, 0), cx(0, 1)] == before
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [0])
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [2, 2])
    with pytest.raises(CircuitError):
        host.extend(Template.of(frag), [3, 4])
    # a float or bool entry would be copied onto the gates as an operand
    for mapping in ([0.0, 2], [True, 2]):
        with pytest.raises(CircuitError, match=r"^mapping entries must be ints$"):
            host.extend(Template.of(frag), mapping)
    assert len(host.gates) == 3


def naive_remap(fragment, mapping):
    return [Gate(tuple(mapping[q] for q in g.qubits)) for g in fragment.gates]


def test_template_places_every_arity_in_any_wire_order():
    frag = Circuit(4, {"f": (0, 1, 2, 3)}, [x(2), cx(3, 0), ccx(1, 2, 3), x(2), ccx(0, 3, 1)])
    host = Circuit(6, {"h": tuple(range(6))})
    mapping = [5, 0, 3, 1]  # a list: extend's getters must still yield tuples
    host.extend(Template.of(frag), mapping)
    # a template made with a wire order takes the host wires in that order
    wires = (3, 1, 0, 2)
    host.extend(Template.of(frag, wires), [mapping[k] for k in wires])
    assert host.gates == 2 * naive_remap(frag, mapping)
    assert all(type(g) is Gate and type(g.qubits) is tuple for g in host.gates)


def test_template_placements_share_within_not_across():
    frag = build_vbe(3)
    t = frag.template
    assert frag.template is t  # made once, at the first use
    # frozen for declared and undeclared attributes alike
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.ops = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.foo = 1
    assert len(t.gates) == len(frag.circuit.gates)
    host = Circuit()
    host.new_register("w", 2 * frag.circuit.qubit_count)
    first = list(range(frag.circuit.qubit_count))
    second = list(reversed(range(frag.circuit.qubit_count, host.qubit_count)))
    host.extend(t, first)
    host.extend(t, second)
    placed = (host.gates[: len(t.gates)], host.gates[len(t.gates) :])
    for gates, mapping in zip(placed, (first, second)):
        assert gates == naive_remap(frag.circuit, mapping)


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
    assert frag.gates == before


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
