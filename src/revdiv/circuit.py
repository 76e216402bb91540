"""Reversible-circuit intermediate representation over {NOT, CNOT, TOFFOLI}.

Circuits are ordered gate lists over integer-indexed qubits, with disjoint
registers: a dict from each register's name to its wires.  A gate is its
operands; its name follows from their count.  Circuits are append-only:
builders grow a circuit and hand it out, composition copies gates with an
index remap.  Toffoli depth is computed by dependency scheduling in which
NOT/CNOT gates impose ordering but contribute no depth of their own.
"""
from __future__ import annotations

import gc
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import repeat

GATE_NAMES = ("x", "cx", "ccx")  # the name of a gate on k operands is GATE_NAMES[k - 1]
GATE_ARITY = {name: k for k, name in enumerate(GATE_NAMES, 1)}


class CircuitError(ValueError):
    """Raised for structurally invalid gates, registers or mappings."""


# The collector's flag is process-wide.  This lock makes a pause's read and
# disable one step: were another thread's restore to fall between them, the
# pause would disable the collector last and, having read it disabled,
# never enable it again.
_gc_flag = threading.Lock()


@contextmanager
def gc_paused():
    """Pause cyclic garbage collection, then restore its previous state.

    For code that makes gates in bulk: a gate holds only a tuple of ints,
    so gates form no cycles, yet while the collector runs its passes walk
    every gate made so far, again and again as a circuit grows.  The
    collector is re-enabled on exit only if it was enabled on entry, so
    nested pauses and callers that disabled it themselves keep their state.
    Usable as a decorator.
    """
    with _gc_flag:
        was_enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            with _gc_flag:
                gc.enable()


@dataclass(frozen=True)
class Gate:
    """One gate on 1, 2 or 3 distinct operands, controls first and target
    last: ``x`` (NOT), ``cx`` (CNOT) or ``ccx`` (Toffoli)."""

    # By hand, not by slots=True, whose new class the frozen __setattr__ misses:
    # setting ``name`` would raise TypeError.  __reduce__ keeps it picklable.
    __slots__ = ("qubits",)
    qubits: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.qubits) <= 3:
            raise CircuitError(f"a gate takes 1 to 3 operands, got {len(self.qubits)}")
        # a float would pass the checks below and fail only where simulation,
        # measure or export indexes a list by it; a bool would act as wire 0 or 1
        if any(type(q) is not int for q in self.qubits):
            raise CircuitError(f"non-integer operand in {self.name}{self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate operands in {self.name}{self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self.name}{self.qubits}")

    @property
    def name(self) -> str:
        return GATE_NAMES[len(self.qubits) - 1]

    def __reduce__(self):
        return Gate, (self.qubits,)


def x(target: int) -> Gate:
    return Gate((target,))


def cx(control: int, target: int) -> Gate:
    return Gate((control, target))


def ccx(control1: int, control2: int, target: int) -> Gate:
    return Gate((control1, control2, target))


@dataclass
class Circuit:
    """Ordered gate list over ``qubit_count`` wires with disjoint registers.

    ``registers`` maps each register's name to its wires, index 0 the least
    significant bit, in the order the registers were declared.
    """

    qubit_count: int = 0
    registers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        n = self.qubit_count
        if type(n) is not int or n < 0:
            raise CircuitError(f"qubit count must be a non-negative int, got {n!r}")
        if not isinstance(self.registers, dict):
            raise CircuitError(f"registers must be a dict, not {type(self.registers).__name__}")
        used: set[int] = set()
        for name, wires in self.registers.items():
            if type(name) is not str:
                raise CircuitError(f"register name {name!r} is not a str")
            if type(wires) is not tuple:
                raise CircuitError(
                    f"register {name!r} wires must be a tuple, not {type(wires).__name__}"
                )
            for q in wires:
                if type(q) is not int or not 0 <= q < n:
                    raise CircuitError(
                        f"register {name!r} wire {q!r} out of range for {n}-qubit circuit"
                    )
                if q in used:
                    raise CircuitError(f"registers overlap on wire {q}")
                used.add(q)
        for g in self.gates:
            if max(g.qubits) >= n:
                raise self._out_of_range(g)

    def _out_of_range(self, gate: Gate) -> CircuitError:
        return CircuitError(
            f"gate {gate.name}{gate.qubits} out of range for {self.qubit_count}-qubit circuit"
        )

    def new_register(self, name: str, size: int) -> tuple[int, ...]:
        """Allocate ``size`` fresh wires as a contiguous named register and
        return them, least significant first."""
        if type(name) is not str:
            raise CircuitError(f"register name {name!r} is not a str")
        if type(size) is not int:
            raise CircuitError(f"register size must be an int, not {size!r}")
        if size < 0:
            raise CircuitError("register size must be non-negative")
        if name in self.registers:
            raise CircuitError(f"duplicate register name {name!r}")
        wires = self.registers[name] = tuple(range(self.qubit_count, self.qubit_count + size))
        self.qubit_count += size
        return wires

    def append(self, gate: Gate) -> "Circuit":
        if max(gate.qubits) >= self.qubit_count:
            raise self._out_of_range(gate)
        self.gates.append(gate)
        return self

    def extend(self, t: Template, mapping: list[int] | tuple[int, ...]) -> Circuit:
        """Append every gate of the fragment that ``t`` templates, remapped
        through ``mapping``.

        ``mapping[k]`` is the host wire for fragment wire ``k``.  Equal gates
        of the fragment append one shared copy.  The fragment is left
        untouched.
        """
        if len(mapping) != t.qubit_count:
            raise CircuitError(
                f"mapping length {len(mapping)} != fragment qubit count "
                f"{t.qubit_count}"
            )
        if len(set(mapping)) != len(mapping):
            raise CircuitError("mapping entries must be pairwise distinct")
        if mapping and (min(mapping) < 0 or max(mapping) >= self.qubit_count):
            raise CircuitError("mapping entry out of range for host circuit")
        # An injective, in-range map sends a valid gate to a valid gate, so
        # the copies skip Gate.__post_init__ and fill their one slot directly.
        # It also sends equal gates, and only those, to equal copies, so one
        # copy per distinct gate serves all its positions.  Each map below
        # runs in C; deque(..., 0) drains the one whose items are all None.
        wires = tuple(map(mapping.__getitem__, t.operands))
        copies = list(map(object.__new__, repeat(Gate, len(t.slices))))
        deque(map(Gate.qubits.__set__, copies, map(wires.__getitem__, t.slices)), 0)
        self.gates += map(copies.__getitem__, t.order)
        return self


@dataclass(frozen=True)
class Template:
    """A fragment's placement template: its distinct gates and their order.

    ``gates`` are the fragment's gates.  Distinct gate ``i`` is the gate on
    ``operands[slices[i]]``, and ``gates[k]`` is distinct gate ``order[k]``.
    Adders uncompute their carries with the gates that computed them, so
    there are about half as many distinct gates as positions.
    """

    qubit_count: int
    gates: tuple[Gate, ...]
    operands: tuple[int, ...]
    slices: tuple[slice, ...]
    order: tuple[int, ...]

    @classmethod
    def of(cls, circuit: Circuit) -> "Template":
        index: dict[tuple[int, ...], int] = {}  # distinct operands -> number, first seen first
        order = tuple([index.setdefault(g.qubits, len(index)) for g in circuit.gates])
        operands: list[int] = []
        slices = []
        for q in index:
            slices.append(slice(len(operands), len(operands) + len(q)))
            operands += q
        return cls(circuit.qubit_count, tuple(circuit.gates), tuple(operands), tuple(slices), order)


@dataclass(frozen=True)
class ResourceReport:
    """Measured (Toffoli depth, Toffoli count, qubit count) of one circuit."""

    toffoli_depth: int
    toffoli_count: int
    qubit_count: int
    gate_total: int

    def as_dict(self) -> dict:
        return asdict(self)


def measure(circuit: Circuit) -> ResourceReport:
    """Toffoli depth/count and qubit count by dependency scheduling.

    Every gate waits for all earlier gates it shares a wire with.  A Toffoli
    then sits one level deeper; NOT/CNOT stay on the level they inherit, so a
    Clifford-only circuit has depth 0.  One pass reads each gate's operands
    once and dispatches on their count: a Toffoli takes the highest of its
    three levels by two comparisons, and a CNOT copies the higher of its two
    levels onto the other wire.
    """
    level = [0] * circuit.qubit_count
    depth = 0
    count = 0
    for g in circuit.gates:
        q = g.qubits
        n = len(q)
        if n == 3:
            a, b, t = q
            u, v, w = level[a], level[b], level[t]
            v = ((u if u > w else w) if u > v else (v if v > w else w)) + 1
            level[a] = level[b] = level[t] = v
            count += 1
            if v > depth:
                depth = v
        elif n == 2:
            # both wires end on the higher level; only the lower one moves
            a, t = q
            v, w = level[a], level[t]
            if v > w:
                level[t] = v
            elif w > v:
                level[a] = w
        # x touches one wire, so it moves no level
    return ResourceReport(
        toffoli_depth=depth,
        toffoli_count=count,
        qubit_count=circuit.qubit_count,
        gate_total=len(circuit.gates),
    )
