"""Reversible-circuit intermediate representation over {NOT, CNOT, TOFFOLI}.

Circuits are ordered gate lists over integer-indexed qubits, with disjoint
registers: a dict from each register's name to its wires.  A gate is its
operands; its name follows from their count.  A circuit stores its gates in
one flat list of ints, three wires per gate, so it makes no object per gate;
``Circuit.gates`` is a live view of that store.  Builders grow a circuit
through its writers ``x``, ``cx`` and ``ccx``, which store a gate without
making one, and hand it out; composition copies a fragment's store with an
index remap.
Toffoli depth is computed by dependency scheduling in which NOT/CNOT gates
impose ordering but contribute no depth of their own.
"""
from __future__ import annotations

from collections.abc import MutableSequence
from dataclasses import asdict, dataclass, field
from itertools import chain, count, starmap
from math import inf
from operator import index, itemgetter

GATE_NAMES = ("x", "cx", "ccx")  # the name of a gate on k operands is GATE_NAMES[k - 1]
GATE_ARITY = {name: k for k, name in enumerate(GATE_NAMES, 1)}


class CircuitError(ValueError):
    """Raised for structurally invalid gates, registers or mappings."""


@dataclass(frozen=True)
class Gate:
    """One gate on 1, 2 or 3 distinct operands, controls first and target
    last: ``x`` (NOT), ``cx`` (CNOT) or ``ccx`` (Toffoli)."""

    # By hand, not by slots=True, whose new class the frozen __setattr__ misses:
    # setting ``name`` would raise TypeError.  __reduce__ keeps it picklable.
    __slots__ = ("qubits",)
    qubits: tuple[int, ...]

    def __post_init__(self):
        if type(self.qubits) is not tuple:  # a list would leave the gate unhashable
            raise CircuitError(f"gate operands must be a tuple, not {type(self.qubits).__name__}")
        if not 1 <= len(self.qubits) <= 3:
            raise CircuitError(f"a gate takes 1 to 3 operands, got {len(self.qubits)}")
        # a float would pass the checks below and fail only where simulation,
        # measure or export indexes a list by it; a bool would act as wire 0 or 1
        if {*map(type, self.qubits)} != {int}:
            raise CircuitError(f"non-integer operand in {self.name}{self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate operands in {self.name}{self.qubits}")
        if min(self.qubits) < 0:
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


# what the store puts before a gate's k operands: -1 for each absent control
_PAD = (None, (-1, -1), (-1,), ())


def _checked(gate: Gate, qubit_count: int) -> tuple[int, int, int]:
    """The operands of ``gate``, a Gate on wires below ``qubit_count``, as
    the store holds them."""
    if type(gate) is not Gate:
        raise CircuitError("gates must be a list of Gate")
    if max(gate.qubits) >= qubit_count:
        raise CircuitError(
            f"gate {gate.name}{gate.qubits} out of range for {qubit_count}-qubit circuit"
        )
    return _PAD[len(gate.qubits)] + gate.qubits


# A stored triple is a valid gate, so the view fills a bare Gate and skips
# its checks (``_fill`` gives None, so ``or g``).
_new, _fill = object.__new__, Gate.qubits.__set__


def _gate(a: int, b: int, t: int) -> Gate:
    """The gate that the store holds as ``a, b, t``."""
    return _fill(g := _new(Gate), (a, b, t) if a >= 0 else (b, t) if b >= 0 else (t,)) or g


class GateView(MutableSequence):
    """A live view of an owner's store, its ``ops``, as a list of ``Gate``.

    A read makes a ``Gate`` per gate read; ``len`` makes none.  A write takes
    ``Gate`` values, checked as :meth:`Circuit.append` checks them, and edits
    the store in place; a slice is edited as a list of stored triples, in one
    pass over the store.  A :class:`Template`'s store is a tuple, so its view
    is read-only.  A view equals a view or a list of the same gates.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner):
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner.ops) // 3

    def __iter__(self):
        it = iter(self._owner.ops)
        return starmap(_gate, zip(it, it, it))

    def _rows(self) -> list[tuple[int, int, int]]:
        it = iter(self._owner.ops)
        return list(zip(it, it, it))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(starmap(_gate, self._rows()[i]))
        k = 3 * range(len(self))[i]
        return _gate(*self._owner.ops[k : k + 3])

    def __setitem__(self, i, value):
        if isinstance(i, slice):
            rows = self._rows()
            rows[i] = [_checked(g, self._owner.qubit_count) for g in value]
            self._owner.ops[:] = chain.from_iterable(rows)
        else:
            k = 3 * range(len(self))[i]
            self._owner.ops[k : k + 3] = _checked(value, self._owner.qubit_count)

    def __delitem__(self, i):
        if isinstance(i, slice):
            rows = self._rows()
            del rows[i]
            self._owner.ops[:] = chain.from_iterable(rows)
        else:
            k = 3 * range(len(self))[i]
            del self._owner.ops[k : k + 3]

    def insert(self, i, value):
        # the store's empty slice at 3i is where list.insert(i, ...) puts an
        # item, for any i: a negative i counts from the end, and both ends clip
        k = 3 * index(i)
        self._owner.ops[k:k] = _checked(value, self._owner.qubit_count)

    def __eq__(self, other):
        if isinstance(other, GateView):
            return list(self._owner.ops) == list(other._owner.ops)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class Circuit:
    """Ordered gate list over ``qubit_count`` wires with disjoint registers.

    ``registers`` maps each register's name to its wires, index 0 the least
    significant bit, in the order the registers were declared.  ``ops`` is
    the store: three wires per gate, controls first and target last, and
    -1 for each control an ``x`` or ``cx`` lacks.  ``gates`` is a live
    :class:`GateView` of it; the constructor, like assigning ``gates``,
    takes a list of ``Gate`` or another circuit's view, and copies it.
    """

    qubit_count: int = 0
    registers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    gates: GateView = field(default_factory=list)  # through the property set below

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

    def _set_gates(self, gates) -> None:
        if type(gates) is not list and not isinstance(gates, GateView):
            raise CircuitError("gates must be a list of Gate")
        n = self.qubit_count  # the constructor sets it first and checks it after
        self.ops = [q for g in gates for q in _checked(g, n if type(n) is int else inf)]

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
        self.ops += _checked(gate, self.qubit_count)
        return self

    # The writers store one gate each.  Their inline checks accept what Gate
    # and _checked accept; anything else goes through those two, which word
    # the refusal.
    def x(self, t: int) -> None:
        """Append a NOT on wire ``t``."""
        if type(t) is int and 0 <= t < self.qubit_count:
            self.ops.extend((-1, -1, t))
        else:
            self.ops += _checked(Gate((t,)), self.qubit_count)

    def cx(self, c: int, t: int) -> None:
        """Append a CNOT from wire ``c`` onto wire ``t``."""
        n = self.qubit_count
        if type(c) is type(t) is int and c != t and 0 <= c < n and 0 <= t < n:
            self.ops.extend((-1, c, t))
        else:
            self.ops += _checked(Gate((c, t)), n)

    def ccx(self, c1: int, c2: int, t: int) -> None:
        """Append a Toffoli from wires ``c1`` and ``c2`` onto wire ``t``."""
        n = self.qubit_count
        if (type(c1) is type(c2) is type(t) is int and c1 != c2 != t != c1
                and 0 <= c1 < n and 0 <= c2 < n and 0 <= t < n):
            self.ops.extend((c1, c2, t))
        else:
            self.ops += _checked(Gate((c1, c2, t)), n)

    def extend(self, t: Template, mapping: list[int] | tuple[int, ...]) -> Circuit:
        """Append every gate of the fragment that ``t`` templates, remapped
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
        # the remapped store is appended as it comes, in one C call; the
        # absent controls sit at place -1 and pick the -1 appended here.
        self.ops += t.getter((*mapping, -1))
        return self


Circuit.gates = property(GateView, Circuit._set_gates, doc="A live view of the gates.")


@dataclass(frozen=True)
class Template:
    """A fragment's placement template: its store over places, and one getter.

    ``ops`` is the fragment's store with each wire replaced by its place:
    place ``k`` is fragment wire ``k``, or ``wires[k]`` if the template came
    from ``Template.of(c, wires)``, and an absent control keeps place -1.
    ``getter`` picks every entry of ``ops`` out of a mapping, so a mapping
    with -1 appended gives the placed store.  ``gates`` views ``ops``.
    """

    qubit_count: int
    ops: tuple[int, ...]
    getter: itemgetter

    gates = property(GateView)

    @classmethod
    def of(cls, circuit: Circuit, wires: tuple[int, ...] = ()) -> "Template":
        if wires in ((), tuple(range(circuit.qubit_count))):
            ops = tuple(circuit.ops)  # each wire is its own place
        else:
            at = dict(zip(wires, count()))  # wire -> its place
            at[-1] = -1
            ops = tuple(map(at.__getitem__, circuit.ops))
        # an empty store takes an empty slice, which yields an empty tuple
        return cls(circuit.qubit_count, ops, itemgetter(*ops) if ops else itemgetter(slice(0)))


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
    higher of its two levels onto the other wire.
    """
    level = [0] * circuit.qubit_count
    depth = 0
    count = 0
    it = iter(circuit.ops)
    for a, b, t in zip(it, it, it):
        if a >= 0:
            u, v, w = level[a], level[b], level[t]
            v = ((u if u > w else w) if u > v else (v if v > w else w)) + 1
            level[a] = level[b] = level[t] = v
            count += 1
            if v > depth:
                depth = v
        elif b >= 0:
            # both wires end on the higher level; only the lower one moves
            v, w = level[b], level[t]
            if v > w:
                level[t] = v
            elif w > v:
                level[b] = w
        # x touches one wire, so it moves no level
    return ResourceReport(
        toffoli_depth=depth,
        toffoli_count=count,
        qubit_count=circuit.qubit_count,
        gate_total=len(circuit.ops) // 3,
    )
