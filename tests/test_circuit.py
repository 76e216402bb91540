import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revdiv.circuit as circuit_module
from revdiv.adders import ADDERS, build_vbe, wrap_add_sub
from revdiv.circuit import Circuit, CircuitError, Gate, ResourceReport, Template, measure
from revdiv.divider import KINDS, build_divider, make_params

from strategies import circuits


def _ops(*gates):
    """The store of the gates on these operands: -1 for each absent control."""
    return [q for g in gates for q in (-1, -1, *g)[-3:]]


def _triples(ops):
    it = iter(ops)
    return list(zip(it, it, it))


def test_gate_validation():
    # a triple holds 1 to 3 distinct int operands, none negative, behind an
    # int -1 for each absent control; a bool is no operand
    for ops in [
        [-1, 0, 0], [0, 0, 1], [0, 1, 1], [-1, -1, -2], [-1, 0, -2],
        [-1, 0, 1.5], [-1, -1, 1.0], [-1, "0", 1], [-1, True, 2], [0, 1, False],
        [-1, 0, None], [-1, [0], 1],
        [-1.0, 0, 1], [-1, -1.0, 1], [-2, -1, 0], [0, -1, 1],  # near misses of an absent control
        [-1, -1, 0, -1], [-1, 0],  # not whole triples
    ]:
        with pytest.raises(CircuitError):
            Circuit(3, {}, ops)
    with pytest.raises(CircuitError, match=r"^non-integer operand in cx\(0, 1\.5\)$"):
        Circuit(2).cx(0, 1.5)


def test_gate_is_a_frozen_record():
    g = Gate((0, 1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.name = "cx"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.qubits = (0, 1)
    assert g == Gate((0, 1, 2))
    assert hash(g) == hash(Gate((0, 1, 2)))
    assert repr(g) == "Gate(qubits=(0, 1, 2))"
    # the name follows from the operand count
    assert [Gate(q).name for q in [(0,), (0, 1), (0, 1, 2)]] == ["x", "cx", "ccx"]
    assert pickle.loads(pickle.dumps(g)) == g


# Operands that make no gate, each with the writer's exact refusal.
REFUSED = [
    ((True,), "non-integer operand in x(True,)"),
    ((1.0,), "non-integer operand in x(1.0,)"),
    (("0",), "non-integer operand in x('0',)"),
    ((-1,), "negative qubit index in x(-1,)"),
    ((None,), "non-integer operand in x(None,)"),
    ((False, 1), "non-integer operand in cx(False, 1)"),
    ((0, 1.5), "non-integer operand in cx(0, 1.5)"),
    (("0", 1), "non-integer operand in cx('0', 1)"),
    ((-2, 0), "negative qubit index in cx(-2, 0)"),
    ((0, -1), "negative qubit index in cx(0, -1)"),
    ((1, 1), "duplicate operands in cx(1, 1)"),
    ((True, 1), "non-integer operand in cx(True, 1)"),
    ((True, 1, 2), "non-integer operand in ccx(True, 1, 2)"),
    ((0, 1, 2.0), "non-integer operand in ccx(0, 1, 2.0)"),
    ((0, "1", 2), "non-integer operand in ccx(0, '1', 2)"),
    ((-1, 0, 1), "negative qubit index in ccx(-1, 0, 1)"),
    ((0, 1, -3), "negative qubit index in ccx(0, 1, -3)"),
    ((0, 0, 1), "duplicate operands in ccx(0, 0, 1)"),
    ((0, 1, 0), "duplicate operands in ccx(0, 1, 0)"),
    ((1, 0, 0), "duplicate operands in ccx(1, 0, 0)"),
    ((-1, -1, 0), "duplicate operands in ccx(-1, -1, 0)"),
    ((0, -1, 9), "negative qubit index in ccx(0, -1, 9)"),  # negative before out of range
]
REFUSED_IDS = [f"qubits{i}" for i in range(len(REFUSED))]  # a case's place in the table


def _writer(c: Circuit, arity: int):
    return (c.x, c.cx, c.ccx)[arity - 1]


@pytest.mark.parametrize("qubits, message", REFUSED, ids=REFUSED_IDS)
def test_writers_refuse_what_gate_refuses(qubits, message):
    # each writer checks its operands inline and refuses in exactly these words
    c = Circuit(4, {}, [-1, 0, 1])
    with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
        _writer(c, len(qubits))(*qubits)
    assert c.ops == [-1, 0, 1]


@pytest.mark.parametrize("qubits, message", REFUSED, ids=REFUSED_IDS)
def test_helpers_refuse_what_gate_refuses(qubits, message):
    # the constructor's helpers, _operands and _refuse, read each triple back
    # to the writer call that stores it and refuse that call's operands in
    # the writer's words
    ops = _ops(qubits)
    if len(qubits) > 1 and type(qubits[0]) is int and qubits[0] == -1:
        # a leading -1 is the store's mark of an absent control, so this
        # call's triple is the store of a smaller gate, which is taken
        assert Circuit(4, {}, ops).ops == ops
    else:
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            Circuit(4, {}, ops)


@pytest.mark.parametrize("qubits", [(3,), (3, 0), (0, 4), (5, 1, 2), (0, 3, 1), (0, 1, 5)])
def test_writers_refuse_out_of_range_as_append_does(qubits):
    # an out-of-range operand is refused last, by the writers and by the constructor alike
    c = Circuit(3)
    name = ("x", "cx", "ccx")[len(qubits) - 1]
    message = f"^{re.escape(f'gate {name}{qubits} out of range for 3-qubit circuit')}$"
    with pytest.raises(CircuitError, match=message):
        _writer(c, len(qubits))(*qubits)
    assert c.ops == []
    with pytest.raises(CircuitError, match=message):
        Circuit(3, {}, _ops(qubits))


def _outcome(make):
    """The store of the circuit that ``make()`` returns, spelled so that -1.0
    and -1 differ, or the refusal it raised."""
    try:
        return repr(make().ops)
    except CircuitError as exc:
        return str(exc)


def _written(width: int, qubits) -> Circuit:
    c = Circuit(width)
    _writer(c, len(qubits))(*qubits)
    return c


@given(st.integers(3, 6), st.data())
def test_writers_store_what_append_stores(width, data):
    # a writer and the constructor given the triple it stores leave the same
    # store, or the same refusal: one operand may be negative, out of range,
    # a bool, a float or a repeat, and a control slot may hold a near miss of
    # the -1 that marks an absent control
    k = data.draw(st.integers(1, 3))
    qubits = data.draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k, unique=True))
    if data.draw(st.booleans()):
        bad = st.sampled_from([-1, width, True, 1.0, qubits[0]])
        qubits[data.draw(st.integers(0, k - 1))] = data.draw(bad)
    triple = [-1] * (3 - k) + qubits
    if data.draw(st.booleans()):
        triple[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from([-2, -1.0, True]))
    # the writer call whose store the triple is: each leading int -1 is an absent control
    absent = 0
    while absent < 2 and type(triple[absent]) is int and triple[absent] == -1:
        absent += 1
    by_writer = _outcome(lambda: _written(width, triple[absent:]))
    by_constructor = _outcome(lambda: Circuit(width, {}, triple))
    assert by_constructor == by_writer


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", sorted(ADDERS))
def test_extend_copies_equal_validated_gates(kind, adder, monkeypatch):
    # extend skips validation; the checked constructor must take every copy,
    # and by its test of the whole store, which reads no triple to _refuse
    calls = []
    refuse = circuit_module._refuse
    monkeypatch.setattr(circuit_module, "_refuse", lambda *a: calls.append(a) or refuse(*a))
    for n in range(1, 9):
        c, _ = build_divider(make_params(n, adder, kind))
        assert {*map(type, c.ops)} == {int}
        assert Circuit(c.qubit_count, c.registers, c.ops) == c
    assert calls == []
    with pytest.raises(CircuitError):
        Circuit(3, {}, [-1, 0, 0])
    assert calls == [((0, 0), 3)]  # the counter sees a refusal


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", sorted(ADDERS))
def test_built_dividers_share_equal_gates(kind, adder):
    # each adder uncomputes its carries with the gates that computed them,
    # so about half the gates equal an earlier one
    c, _ = build_divider(make_params(32, adder, kind))
    assert len(set(_triples(c.ops))) <= 0.65 * len(c.gates)


def test_gate_counts_make_no_gate(monkeypatch):
    # the benchmark reads len(c.gates) per build and len(template.gates) per
    # placement; neither may make a Gate, and nor may a build
    calls = []
    init = Gate.__init__
    monkeypatch.setattr(Gate, "__init__", lambda g, qubits: calls.append(qubits) or init(g, qubits))
    frag = build_vbe(4)
    c, _ = build_divider(make_params(4, "vbe", KINDS[0]))
    assert (len(c.gates), len(frag.template.gates)) == (len(c.ops) // 3, len(frag.circuit.ops) // 3)
    assert calls == []
    first = tuple(q for q in c.ops[:3] if q >= 0)
    assert next(iter(c.gates)) == Gate(first)
    assert len(calls) == 2  # the counter sees a read of the view and a construction


@settings(max_examples=200, deadline=None)
@given(circuits(1, 6, 12, tiled=False), st.integers(-14, 14))
def test_gate_view_reads_and_deletes_as_the_benchmark_does(c, i):
    # the view's whole surface: len, iteration, and del of one gate
    triples = _triples(c.ops)
    gates = list(c.gates)
    assert all(type(g) is Gate for g in gates)
    assert [g.qubits for g in gates] == [tuple(q for q in t if q >= 0) for t in triples]
    assert [g.name for g in gates] == [("ccx", "cx", "x")[t.count(-1)] for t in triples]
    if -len(triples) <= i < len(triples):
        del c.gates[i]
        del triples[i]
    else:
        with pytest.raises(IndexError):  # as a list raises
            del c.gates[i]
    assert _triples(c.ops) == triples and len(c.gates) == len(triples)


def test_template_view_refuses_deletion():
    c = Circuit(2, {}, _ops((0,), (0, 1)))
    t = Template.of(c)
    with pytest.raises(TypeError):  # a template's store is a tuple
        del t.gates[0]
    assert len(t.gates) == 2 and t.ops == tuple(c.ops)


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
            (1, {"a": (0,)}, [-1, 0, 1]),
            r"^gate cx\(0, 1\) out of range for 1-qubit circuit$",
            id="gate-past-the-end",
        ),
        pytest.param(
            (0, {}, [-1, -1, 0]), r"^gate x\(0,\) out of range for 0-qubit circuit$", id="no-wires"
        ),
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
        pytest.param(
            # a triple nested as one entry in place of its three
            (1, {"a": (0,)}, [(-1, -1, 0)]),
            r"^ops length 1 is not a multiple of 3$",
            id="gate-tuple",
        ),
        pytest.param(
            # a tuple would leave the store without the writers' extend
            (1, {"a": (0,)}, (-1, -1, 0)), r"^ops must be a list, not tuple$", id="gates-tuple"
        ),
        pytest.param((2, {}, [0, 1]), r"^ops length 2 is not a multiple of 3$", id="ops-short"),
        pytest.param(
            (3, {}, [-1, 0, 1, -1.0, 0, 1]),
            r"^non-integer operand in ccx\(-1\.0, 0, 1\)$",
            id="ops-float-control",
        ),
    ],
)
def test_constructor_validation(args, message):
    with pytest.raises(CircuitError, match=message):
        Circuit(*args)


def test_constructor_accepts_gapped_and_unordered_registers():
    # registers may leave wires out or list them out of order; export refuses those
    c = Circuit(3, {"b": (2,), "a": (0,)}, [0, 1, 2])
    assert dataclasses.replace(c) == c
    assert dataclasses.replace(c).ops is not c.ops  # the constructor copies the store
    with pytest.raises(CircuitError, match=r"^gate cx\(0, 3\) out of range for 3-qubit circuit$"):
        c.cx(0, 3)


def test_append_bounds():
    c = Circuit()
    c.new_register("a", 2)
    c.cx(0, 1)
    with pytest.raises(CircuitError):
        c.x(2)
    assert c.ops == [-1, 0, 1]


def test_extend_remaps_and_copies():
    frag = Circuit()
    frag.new_register("a", 2)
    frag.cx(0, 1)
    frag.cx(1, 0)
    frag.cx(0, 1)  # equal to the first gate
    before = list(frag.ops)
    host = Circuit()
    host.new_register("w", 4)
    host.extend(Template.of(frag), [3, 1])
    assert host.ops == _ops((3, 1), (1, 3), (3, 1))
    assert frag.ops == _ops((0, 1), (1, 0), (0, 1)) == before
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
    assert len(host.ops) == 9


def naive_remap(fragment, mapping):
    return [-1 if q < 0 else mapping[q] for q in fragment.ops]


def test_template_places_every_arity_in_any_wire_order():
    frag = Circuit(4, {"f": (0, 1, 2, 3)}, _ops((2,), (3, 0), (1, 2, 3), (2,), (0, 3, 1)))
    host = Circuit(6, {"h": tuple(range(6))})
    mapping = [5, 0, 3, 1]  # a list: extend's getters must still yield tuples
    host.extend(Template.of(frag), mapping)
    # a template made with a wire order takes the host wires in that order
    wires = (3, 1, 0, 2)
    host.extend(Template.of(frag, wires), [mapping[k] for k in wires])
    assert host.ops == 2 * naive_remap(frag, mapping)
    assert {*map(type, host.ops)} == {int}


def test_template_placements_share_within_not_across():
    frag = build_vbe(3)
    t = frag.template
    assert frag.template is t  # made once, at the first use
    # frozen for declared and undeclared attributes alike
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.ops = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.foo = 1
    assert t.ops == tuple(frag.circuit.ops)
    host = Circuit()
    host.new_register("w", 2 * frag.circuit.qubit_count)
    first = list(range(frag.circuit.qubit_count))
    second = list(reversed(range(frag.circuit.qubit_count, host.qubit_count)))
    host.extend(t, first)
    host.extend(t, second)
    placed = (host.ops[: len(t.ops)], host.ops[len(t.ops) :])
    for ops, mapping in zip(placed, (first, second)):
        assert ops == naive_remap(frag.circuit, mapping)


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
    before = list(frag.ops)
    host = Circuit()
    host.new_register("h", host_width)
    host.x(0)
    host.extend(Template.of(frag), mapping)
    assert host.ops[:3] == [-1, -1, 0]
    assert host.ops[3:] == naive_remap(frag, mapping)
    assert {*map(type, host.ops)} <= {int}
    assert frag.ops == before


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
    assert placed.ops == extended.ops
    assert len(placed.ops) == n * len(frag.circuit.ops)


def test_template_of_empty_and_wireless_circuits():
    host = Circuit()
    host.new_register("w", 2)
    assert host.extend(Template.of(Circuit()), []).ops == []
    t = Template.of(Circuit(2))
    assert host.extend(t, [1, 0]).ops == []
    with pytest.raises(CircuitError):
        host.extend(t, [1])


@pytest.mark.parametrize("wires", [(2, 1, 0, 0), (0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3)])
def test_template_of_names_each_wire_once(wires):
    # a repeated wire gave two wires one place, so (2, 1, 0, 0) templated
    # cx(0, 1) as the store of x(1); a missing wire raised a bare KeyError
    c = Circuit(3)
    c.cx(0, 1)
    with pytest.raises(CircuitError, match=r"^template wires \(.*\) must name each of its 3 wires once$"):
        Template.of(c, wires)
    assert Template.of(c, (2, 1, 0)).ops == (-1, 2, 1)


def test_depth_disjoint_toffolis():
    c = Circuit()
    c.new_register("w", 6)
    c.ccx(0, 1, 2)
    c.ccx(3, 4, 5)
    assert measure(c).toffoli_depth == 1
    assert measure(c).toffoli_count == 2


def test_depth_chained_toffolis():
    c = Circuit()
    c.new_register("w", 5)
    c.ccx(0, 1, 2)
    c.ccx(2, 3, 4)
    assert measure(c).toffoli_depth == 2


def test_depth_clifford_only_zero():
    c = Circuit()
    c.new_register("w", 3)
    c.x(0)
    c.cx(0, 1)
    c.cx(1, 2)
    rep = measure(c)
    assert rep.toffoli_depth == 0
    assert rep.toffoli_count == 0
    assert rep.gate_total == 3


def test_depth_of_no_wires_no_gates_and_copied_levels():
    assert measure(Circuit()) == ResourceReport(0, 0, 0, 0)
    assert measure(Circuit(3)) == ResourceReport(0, 0, 3, 0)
    # CNOTs copy the deepest Toffoli's level onto other wires, which sets no
    # deeper level
    c = Circuit()
    c.new_register("w", 6)
    c.ccx(0, 1, 2)
    c.ccx(2, 3, 4)
    c.cx(4, 5)
    c.cx(5, 0)
    c.x(0)
    assert measure(c) == ResourceReport(2, 2, 6, 5)


def test_depth_clifford_mediated_ordering():
    # a CNOT between two Toffolis forces them onto different levels
    c = Circuit()
    c.new_register("w", 6)
    c.ccx(0, 1, 2)
    c.cx(2, 3)
    c.ccx(3, 4, 5)
    assert measure(c).toffoli_depth == 2


def reversed_circuit(c):
    """Same wires, gates in reverse order: the inverse, as each gate is self-inverse."""
    return Circuit(c.qubit_count, dict(c.registers), [q for t in _triples(c.ops)[::-1] for q in t])


def test_reversed_is_inverse_order():
    c = Circuit()
    c.new_register("w", 3)
    c.x(0)
    c.ccx(0, 1, 2)
    r = reversed_circuit(c)
    assert r.ops == _ops((0, 1, 2), (0,))
    assert c.ops == _ops((0,), (0, 1, 2))


def _reference_measure(c):
    """Dependency scheduling as a max over every operand's level."""
    level = [0] * c.qubit_count
    depth = count = 0
    for t in _triples(c.ops):
        qubits = [q for q in t if q >= 0]
        v = max(level[q] for q in qubits)
        if len(qubits) == 3:
            v += 1
            count += 1
            depth = max(depth, v)
        for q in qubits:
            level[q] = v
    return depth, count


@settings(max_examples=300, deadline=None)
@given(circuits(3, 8, 60, tiled=False))
def test_measure_matches_reference_scheduler(c):
    rep = measure(c)
    assert (rep.toffoli_depth, rep.toffoli_count) == _reference_measure(c)
    assert rep.qubit_count == c.qubit_count
    assert rep.gate_total == len(c.ops) // 3
