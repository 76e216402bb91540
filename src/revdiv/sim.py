"""Exact classical simulation of {NOT, CNOT, TOFFOLI} circuits on basis states.

Every gate in scope is classically reversible, so a basis state maps to a
basis state and the simulation is exact.  The kernel is bit-sliced and
wire-major: each wire is one Python integer (a *plane*) whose bit k is the
wire's value in lane k, so one pass over the gates runs every lane at once.
A single basis state is the one-lane case.
"""
from __future__ import annotations

from .circuit import Circuit


class SimulationError(ValueError):
    pass


def apply_planes(circuit: Circuit, planes: list[int], ones: int) -> list[int]:
    """Run the circuit on every lane of ``planes`` at once.

    ``planes[i]`` holds wire i: bit k is its value in lane k.  ``ones`` has
    a bit set for every lane, so NOT flips exactly those.  The planes are
    updated in place and returned.
    """
    if len(planes) != circuit.qubit_count:
        raise SimulationError(
            f"state length {len(planes)} != qubit count {circuit.qubit_count}"
        )
    w = planes
    it = iter(circuit.ops)
    for a, b, t in zip(it, it, it):
        if a >= 0:
            w[t] ^= w[a] & w[b]
        elif b >= 0:
            w[t] ^= w[b]
        else:
            w[t] ^= ones
    return w


def apply(circuit: Circuit, state: list[int] | tuple[int, ...]) -> list[int]:
    """Run the circuit on a computational-basis state, one bit per qubit."""
    # 1.0 and True equal 1, but a float would fail in the kernel and a bool is no bit
    if any(type(b) is not int or b not in (0, 1) for b in state):
        raise SimulationError("state bits must be the ints 0 or 1")
    return apply_planes(circuit, list(state), 1)


def encode_register(positions, value: int, state: list[int]) -> list[int]:
    """Write ``value`` into ``state`` at the given qubit positions, LSB first."""
    if type(value) is not int:
        raise SimulationError(f"value {value!r} is not an int")
    if not 0 <= value < (1 << len(positions)):
        raise SimulationError(
            f"value {value} out of range for {len(positions)}-bit register"
        )
    for i, p in enumerate(positions):
        state[p] = (value >> i) & 1
    return state


def decode_register(state: list[int] | tuple[int, ...], positions) -> int:
    """Read the integer held at the given qubit positions, LSB first."""
    v = 0
    for i, p in enumerate(positions):
        v |= state[p] << i
    return v
