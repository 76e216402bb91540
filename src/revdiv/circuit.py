"""Reversible-circuit intermediate representation over {NOT, CNOT, TOFFOLI}.

Circuits are ordered gate lists over integer-indexed qubits, with disjoint
registers: a dict from each register's name to its wires.  A circuit keeps
its gates in one flat list of ints, three wires per gate, and makes no
object per gate.  Builders grow a circuit through its checked writers
``x``, ``cx`` and ``ccx`` and hand it out; composition copies a fragment's
store with an index remap.  Toffoli depth is computed by dependency
scheduling in which NOT/CNOT gates impose ordering but contribute no depth
of their own.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from operator import add, eq, itemgetter

GATE_NAMES = ("x", "cx", "ccx")  # the name of a gate on k operands is GATE_NAMES[k - 1]
GATE_ARITY = {name: k for k, name in enumerate(GATE_NAMES, 1)}


class CircuitError(ValueError):
    """Raised for structurally invalid gates, registers or mappings."""


def _refuse(qubits: tuple, n: int) -> None:
    """Raise the error for the first fault of a gate on ``qubits`` in an ``n``-wire
    circuit: a non-integer, repeated, negative or out-of-range operand, in that order."""
    name = GATE_NAMES[len(qubits) - 1]
    # a float would fail only where a list is indexed by it; a bool would act as wire 0 or 1
    if {*map(type, qubits)} != {int}:
        raise CircuitError(f"non-integer operand in {name}{qubits}")
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"duplicate operands in {name}{qubits}")
    if min(qubits) < 0:
        raise CircuitError(f"negative qubit index in {name}{qubits}")
    if max(qubits) >= n:
        raise CircuitError(f"gate {name}{qubits} out of range for {n}-qubit circuit")


def _operands(op: tuple) -> tuple:
    """The operands of the stored triple ``op``, less the int -1 of each absent control."""
    k = 0
    while k < 2 and type(op[k]) is int and op[k] == -1:
        k += 1
    return op[k:]


def _valid_store(ops: list, n: int) -> bool:
    """Whether every triple of ``ops`` is one that a writer call stores on ``n``
    wires, tested over whole slices of the store in C; a store this refuses
    is read triple by triple to word its first fault."""
    a, b, t = ops[0::3], ops[1::3], ops[2::3]
    # With every entry an int in -1..n-1 and no target a control, a triple
    # is valid unless its first control alone is present or its controls
    # are one wire: the -1s of b must be exactly the triples whose a and b
    # are both -1, and so must every a == b.
    return not ops or (
        {*map(type, ops)} == {int}
        and min(ops) >= -1 and max(ops) < n and min(t) >= 0
        and not any(map(eq, a, t)) and not any(map(eq, b, t))
        and b.count(-1) == list(map(add, a, b)).count(-2) == sum(map(eq, a, b))
    )


@dataclass(frozen=True)
class Gate:
    """A stored gate's operands, controls first and target last, as a view
    reads them: ``x`` (NOT), ``cx`` (CNOT) or ``ccx`` (Toffoli) by their count."""

    qubits: tuple[int, ...]

    @property
    def name(self) -> str:
        return GATE_NAMES[len(self.qubits) - 1]


class GateView:
    """A live view of an owner's ``ops``: ``len`` makes no :class:`Gate`, iteration
    yields one per stored triple, and ``del view[i]`` removes the i-th triple.
    A :class:`Template`'s store is a tuple, so its view refuses deletion."""

    __slots__ = ("_owner",)

    def __init__(self, owner):
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner.ops) // 3

    def __iter__(self):
        it = iter(self._owner.ops)
        return (Gate(_operands(op)) for op in zip(it, it, it))

    def __delitem__(self, i: int) -> None:
        k = 3 * range(len(self))[i]  # an IndexError past either end, as a list raises
        del self._owner.ops[k : k + 3]


@dataclass
class Circuit:
    """Ordered gate list over ``qubit_count`` wires with disjoint registers.

    ``registers`` maps each register's name to its wires, index 0 the least
    significant bit, in the order the registers were declared.  ``ops`` is
    the store: three wires per gate, controls first and target last, and -1
    for each control an ``x`` or ``cx`` lacks.  The constructor copies it and
    refuses, in a writer's words, any triple that no writer call stores.
    """

    qubit_count: int = 0
    registers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    ops: list[int] = field(default_factory=list)

    gates = property(GateView, doc="A live view of the gates: len, iteration and del.")

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
        if type(self.ops) is not list:
            raise CircuitError(f"ops must be a list, not {type(self.ops).__name__}")
        if len(self.ops) % 3:
            raise CircuitError(f"ops length {len(self.ops)} is not a multiple of 3")
        self.ops = self.ops[:]
        if not _valid_store(self.ops, n):
            it = iter(self.ops)
            for op in zip(it, it, it):
                _refuse(_operands(op), n)

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

    # Each writer stores one gate; _refuse words the refusal of what its inline check fails.
    def x(self, t: int) -> None:
        """Store a NOT on wire ``t`` last."""
        if type(t) is int and 0 <= t < self.qubit_count:
            self.ops.extend((-1, -1, t))
        else:
            _refuse((t,), self.qubit_count)

    def cx(self, c: int, t: int) -> None:
        """Store a CNOT from wire ``c`` onto wire ``t`` last."""
        n = self.qubit_count
        if type(c) is type(t) is int and c != t and 0 <= c < n and 0 <= t < n:
            self.ops.extend((-1, c, t))
        else:
            _refuse((c, t), n)

    def ccx(self, c1: int, c2: int, t: int) -> None:
        """Store a Toffoli from wires ``c1`` and ``c2`` onto wire ``t`` last."""
        n = self.qubit_count
        if (type(c1) is type(c2) is type(t) is int and c1 != c2 != t != c1
                and 0 <= c1 < n and 0 <= c2 < n and 0 <= t < n):
            self.ops.extend((c1, c2, t))
        else:
            _refuse((c1, c2, t), n)

    def extend(self, t: Template, mapping: list[int] | tuple[int, ...]) -> Circuit:
        """Add every gate of the fragment that ``t`` templates, remapped
        through ``mapping``.

        ``mapping[k]`` is the host wire for fragment wire ``k``, or for ``wires[k]``
        if ``t`` came from ``Template.of(c, wires)``.  The fragment is left
        untouched.
        """
        mapping = tuple(mapping)
        if len(mapping) != t.qubit_count:
            raise CircuitError(
                f"mapping length {len(mapping)} != fragment qubit count {t.qubit_count}"
            )
        if not {*map(type, mapping)} <= {int}:
            raise CircuitError("mapping entries must be ints")
        if len(set(mapping)) != len(mapping):
            raise CircuitError("mapping entries must be pairwise distinct")
        if mapping and (min(mapping) < 0 or max(mapping) >= self.qubit_count):
            raise CircuitError("mapping entry out of range for host circuit")
        # An injective, in-range map sends a valid gate to a valid gate, so
        # the remapped store is added as it comes, in one C call; the
        # absent controls sit at place -1 and pick the -1 added here.
        self.ops += t.getter((*mapping, -1))
        return self


@dataclass(frozen=True)
class Template:
    """A fragment's placement template: its store over places, and one getter.

    ``ops`` is the fragment's store with each wire replaced by its place:
    place ``k`` is fragment wire ``k``, or ``wires[k]`` if the template came
    from ``Template.of(c, wires)``, and an absent control keeps place -1.
    ``getter`` picks every entry of ``ops`` out of a mapping, so a mapping
    with -1 added at its end gives the placed store.  ``gates`` views ``ops``.
    """

    qubit_count: int
    ops: tuple[int, ...]
    getter: itemgetter

    gates = property(GateView)

    @classmethod
    def of(cls, circuit: Circuit, wires: tuple[int, ...] = ()) -> "Template":
        n, wires = circuit.qubit_count, tuple(wires)
        if wires in ((), tuple(range(n))):
            ops = tuple(circuit.ops)  # each wire is its own place
        elif len(wires) != n or {*wires} != {*range(n)}:
            # a repeat would give two wires one place, and a missing wire none
            raise CircuitError(f"template wires {wires} must name each of its {n} wires once")
        else:
            at = dict(zip((*wires, -1), (*range(n), -1)))  # wire -> its place; -1 stays
            ops = tuple(map(at.__getitem__, circuit.ops))
        # an empty store takes an empty slice, which yields an empty tuple
        return cls(n, ops, itemgetter(*ops) if ops else itemgetter(slice(0)))


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
    Clifford-only circuit has depth 0.  One pass reads each stored triple
    once and dispatches on its first present control: a Toffoli takes the
    highest of its three levels by two comparisons, and a CNOT copies the
    higher of its two levels onto the other wire.  No update lowers a level,
    so the depth is the highest level left, and the count is the number of
    present first controls.
    """
    level = [0] * circuit.qubit_count
    it = iter(circuit.ops)
    for a, b, t in zip(it, it, it):
        if a >= 0:
            u, v, w = level[a], level[b], level[t]
            level[a] = level[b] = level[t] = (
                (u if u > w else w) if u > v else (v if v > w else w)
            ) + 1
        elif b >= 0:
            # both wires end on the higher level; only the lower one moves
            v, w = level[b], level[t]
            if v > w:
                level[t] = v
            elif w > v:
                level[b] = w
        # x touches one wire, so it moves no level
    controls = circuit.ops[0::3]
    return ResourceReport(
        toffoli_depth=max(level, default=0),
        toffoli_count=len(controls) - controls.count(-1),
        qubit_count=circuit.qubit_count,
        gate_total=len(circuit.ops) // 3,
    )
