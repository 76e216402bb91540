import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revdiv.circuit import Circuit
from revdiv.divider import NON_RESTORING, build_divider, make_params, run_division
from revdiv.sim import (
    SimulationError,
    apply,
    apply_planes,
    decode_register,
    encode_register,
)

from strategies import circuits


def _single_gate(name, wires, width):
    c = Circuit()
    c.new_register("w", width)
    getattr(c, name)(*wires)
    return c


def test_not_truth_table():
    c = _single_gate("x", (0,), 1)
    assert apply(c, [0]) == [1]
    assert apply(c, [1]) == [0]


def test_cnot_truth_table():
    c = _single_gate("cx", (0, 1), 2)
    assert apply(c, [0, 0]) == [0, 0]
    assert apply(c, [1, 0]) == [1, 1]
    assert apply(c, [1, 1]) == [1, 0]
    assert apply(c, [0, 1]) == [0, 1]


def test_toffoli_truth_table():
    c = _single_gate("ccx", (0, 1, 2), 3)
    for a in range(2):
        for b in range(2):
            for t in range(2):
                out = apply(c, [a, b, t])
                assert out == [a, b, t ^ (a & b)]


def test_state_validation():
    c = _single_gate("x", (0,), 1)
    with pytest.raises(SimulationError):
        apply(c, [0, 0])
    with pytest.raises(SimulationError):
        apply(c, [2])
    # each equals a bit, but a float would reach the kernel and a bool is no bit
    for bit in (1.0, 0.0, True, False):
        with pytest.raises(SimulationError, match=r"^state bits must be the ints 0 or 1$"):
            apply(c, [bit])


def _lanes_to_planes(states, width):
    """Wire-major planes of the given states, one lane each."""
    return [sum(s[i] << k for k, s in enumerate(states)) for i in range(width)]


def _lane(planes, k):
    return [(p >> k) & 1 for p in planes]


def _reference(c, bits):
    """Gate-by-gate evaluation of one basis state, independent of the kernel."""
    s = list(bits)
    it = iter(c.ops)
    for a, b, t in zip(it, it, it):
        if (a < 0 or s[a]) and (b < 0 or s[b]):
            s[t] ^= 1
    return s


def test_packed_agrees_with_list():
    # all 16 basis states of 4 wires in one bit-sliced pass
    c = Circuit()
    c.new_register("w", 4)
    c.x(0)
    c.cx(0, 2)
    c.ccx(0, 2, 3)
    states = [[(v >> i) & 1 for i in range(4)] for v in range(16)]
    planes = apply_planes(c, _lanes_to_planes(states, 4), (1 << 16) - 1)
    for k, bits in enumerate(states):
        assert apply(c, bits) == _lane(planes, k)


@st.composite
def _circuits_and_states(draw):
    c = draw(circuits(3, 8, 40, tiled=False))
    width = c.qubit_count
    bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    states = draw(st.lists(bits, min_size=1, max_size=70))
    return c, states


@settings(max_examples=150, deadline=None)
@given(_circuits_and_states())
def test_many_lanes_equal_apply_lane_by_lane(case):
    c, states = case
    width = c.qubit_count
    planes = apply_planes(c, _lanes_to_planes(states, width), (1 << len(states)) - 1)
    for k, bits in enumerate(states):
        assert _lane(planes, k) == apply(c, bits) == _reference(c, bits)


def test_register_encode_decode_lsb_first():
    state = [0] * 5
    encode_register([3, 1, 0], 0b101, state)
    assert state == [1, 0, 0, 1, 0]
    assert decode_register(state, [3, 1, 0]) == 0b101
    with pytest.raises(SimulationError):
        encode_register([0, 1], 4, state)
    for value in (1.0, True, 5.0):
        with pytest.raises(SimulationError, match=r"^value .* is not an int$"):
            encode_register([0, 1, 2], value, state)
    assert state == [1, 0, 0, 1, 0]
    # a division's operands reach the register encoder as they are given
    c, layout = build_divider(make_params(3, "cuccaro", NON_RESTORING))
    with pytest.raises(SimulationError, match=r"^value 5\.0 is not an int$"):
        run_division(c, layout, 5.0, 2)
