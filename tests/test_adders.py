from dataclasses import replace

import pytest

from revdiv.adders import (
    ADDERS,
    build_cond_add,
    build_cuccaro,
    build_vbe,
    get_adder,
    wrap_add_sub,
    wrap_subtractor,
)
from revdiv.circuit import Circuit, CircuitError, measure
from revdiv.sim import apply, decode_register, encode_register


def _run_adder(frag, a, b, cin):
    state = [0] * frag.circuit.qubit_count
    encode_register(frag.a, a, state)
    encode_register(frag.b, b, state)
    state[frag.carry_in] = cin
    out = apply(frag.circuit, state)
    return out


@pytest.mark.parametrize("builder", [build_cuccaro, build_vbe])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_adder_exhaustive(builder, m):
    frag = builder(m)
    for a in range(1 << m):
        for b in range(1 << m):
            for cin in (0, 1):
                out = _run_adder(frag, a, b, cin)
                total = a + b + cin
                assert decode_register(out, frag.b) == total % (1 << m)
                assert decode_register(out, frag.a) == a
                assert out[frag.carry_in] == cin
                assert out[frag.carry_out] == total >> m
                assert all(out[q] == 0 for q in frag.ancillas)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_cuccaro_toffoli_counts(m):
    rep = measure(build_cuccaro(m).circuit)
    assert rep.toffoli_count == 2 * m - 1
    assert rep.toffoli_depth == 2 * m - 1


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 33])
def test_vbe_toffoli_count_and_ancillas(m):
    frag = build_vbe(m)
    rep = measure(frag.circuit)
    assert rep.toffoli_count == 4 * m - 2
    # m-1 levels short of the count, which the vbe cost row takes as its depth
    assert rep.toffoli_depth == 3 * m - 1
    assert len(frag.ancillas) == m - 1


def test_adder_registry():
    assert set(ADDERS) == {"cuccaro", "vbe"}
    assert len(get_adder("cuccaro").build(5).ancillas) == 0
    assert len(get_adder("vbe").build(5).ancillas) == 4
    with pytest.raises(ValueError):
        get_adder("nope")


@pytest.mark.parametrize("name", ["cuccaro", "vbe"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_subtractor_exhaustive(name, m):
    frag = wrap_subtractor(get_adder(name).build(m))
    for a in range(1 << m):
        for b in range(1 << m):
            out = _run_adder(frag, a, b, 0)
            assert decode_register(out, frag.b) == (b - a) % (1 << m)
            assert decode_register(out, frag.a) == a
            assert out[frag.carry_in] == 0
            assert out[frag.carry_out] == (1 if b >= a else 0)
            assert all(out[q] == 0 for q in frag.ancillas)


def _subtractor_flips(frag):
    """The stored triples a subtractor puts before and after the adder's."""
    flips = [w for q in frag.a for w in (-1, -1, q)]
    cin = [-1, -1, frag.carry_in]
    return cin + flips, flips + cin


def _add_sub_flips(frag):
    flips = [w for q in frag.a for w in (-1, frag.carry_in, q)]
    return flips, flips


def _roles(frag):
    return frag.a, frag.b, frag.carry_in, frag.carry_out, frag.ancillas


@pytest.mark.parametrize(
    "wrap, flips",
    [(wrap_subtractor, _subtractor_flips), (wrap_add_sub, _add_sub_flips)],
    ids=["subtractor", "add_sub"],
)
@pytest.mark.parametrize("name", ["cuccaro", "vbe"])
def test_subtractor_adds_no_toffolis(name, wrap, flips):
    """A wrapper is the adder's own fragment, its gates between NOT/CNOT
    flips, and it leaves that fragment as built, so a divider can wrap one
    built adder with both wrappers."""
    m = 4
    adder = get_adder(name).build(m)
    wrapped = wrap(adder)
    before, after = flips(adder)
    want = before + adder.circuit.ops + after
    assert wrapped.circuit.ops == want
    assert {*(before + after)[::3]} == {-1}  # no flip is a Toffoli
    assert _roles(wrapped) == _roles(adder)
    assert wrapped.circuit.qubit_count == adder.circuit.qubit_count
    # then the other wrapper, on the same fragment
    other = wrap_add_sub if wrap is wrap_subtractor else wrap_subtractor
    again = other(adder)
    fresh = get_adder(name).build(m)
    assert adder.circuit.ops == fresh.circuit.ops
    assert adder.circuit.registers == fresh.circuit.registers
    assert wrapped.circuit.ops == want
    assert _roles(again) == _roles(wrapped) == _roles(adder) == _roles(fresh)


@pytest.mark.parametrize("name", ["cuccaro", "vbe"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_add_sub_both_branches(name, m):
    frag = wrap_add_sub(get_adder(name).build(m))
    for a in range(1 << m):
        for b in range(1 << m):
            for ctrl in (0, 1):
                state = [0] * frag.circuit.qubit_count
                encode_register(frag.a, a, state)
                encode_register(frag.b, b, state)
                state[frag.carry_in] = ctrl
                out = apply(frag.circuit, state)
                want = (b - a) if ctrl else (a + b)
                assert decode_register(out, frag.b) == want % (1 << m)
                assert decode_register(out, frag.a) == a
                assert out[frag.carry_in] == ctrl
                # carry-out = 1 iff the signed result is non-negative
                nonneg = (b >= a) if ctrl else (a + b >= (1 << m))
                assert out[frag.carry_out] == int(nonneg)
                assert all(out[q] == 0 for q in frag.ancillas)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_cond_add_exhaustive(m):
    frag = build_cond_add(m)
    for a in range(1 << m):
        for b in range(1 << m):
            for ctrl in (0, 1):
                state = [0] * frag.circuit.qubit_count
                encode_register(frag.a, a, state)
                encode_register(frag.b, b, state)
                state[frag.carry_in] = ctrl
                out = apply(frag.circuit, state)
                want = (b + a) % (1 << m) if ctrl else b
                assert decode_register(out, frag.b) == want
                assert decode_register(out, frag.a) == a
                assert out[frag.carry_in] == ctrl


@pytest.mark.parametrize("m", list(range(1, 10)))
def test_cond_add_toffoli_count(m):
    rep = measure(build_cond_add(m).circuit)
    assert rep.toffoli_count == 3 * (m - 1) + 1
    assert rep.qubit_count == 2 * m + 1  # no ancillas


def test_width_validation():
    with pytest.raises(ValueError):
        build_cuccaro(0)
    with pytest.raises(ValueError):
        build_cond_add(0)
    # a bool or float width is no width: True would build the width-1 fragment
    for build in (build_cuccaro, build_vbe, build_cond_add):
        for m in (True, 2.0):
            with pytest.raises(CircuitError, match=f"^register size must be an int, not {m}$"):
                build(m)
    # place checks each role's width, not just the total wire count
    frag = build_cuccaro(3)
    host = Circuit()
    wires = host.new_register("w", frag.circuit.qubit_count)
    frag.place(host, wires[0:3], wires[3:6], wires[6], wires[7])
    for a, b in ((wires[0:2], wires[2:6]), (wires[0:4], wires[4:6])):
        with pytest.raises(CircuitError):
            frag.place(host, a, b, wires[6], wires[7])
    with pytest.raises(CircuitError):
        frag.place(host, wires[0:3], wires[3:6], wires[6])  # carry-out missing


@pytest.mark.parametrize(
    "roles",
    [
        pytest.param({"a": (0, 0)}, id="repeated"),
        pytest.param({"b": (2, 9)}, id="outside"),
        pytest.param({"carry_in": -1}, id="negative"),
        pytest.param({"carry_out": None}, id="wire-left-out"),
        pytest.param({"ancillas": (6,)}, id="extra"),
    ],
)
def test_fragment_roles_name_each_wire_once(roles):
    # refused when the fragment is made, not at its first placement
    frag = build_cuccaro(2)
    with pytest.raises(CircuitError, match=r"^fragment roles \(.*\) must name each of its 6 wires once$"):
        replace(frag, **roles)
    assert replace(frag, a=frag.b, b=frag.a).template.qubit_count == 6
