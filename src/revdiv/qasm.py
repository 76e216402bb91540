"""Textual import/export of circuits as an OpenQASM-3 subset.

The subset: one ``qubit[k] name;`` declaration per register (declarations
must tile the wire range contiguously, in index order), then ``x``, ``cx``
and ``ccx`` statements in sequence order.  Export is deterministic; import
of exported text reproduces the circuit structurally.
"""
from __future__ import annotations

import re
import sys

from .circuit import Circuit, Gate, GATE_ARITY

HEADER = "OPENQASM 3.0;"

_DECL_RE = re.compile(r"^qubit\[(\d+)\]\s+([A-Za-z_][A-Za-z_0-9]*)\s*;$", re.ASCII)
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\[(\d+)\]$", re.ASCII)


class QasmExportError(ValueError):
    pass


class QasmParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def export_text(circuit: Circuit) -> str:
    """Render a circuit as OpenQASM-subset text (UTF-8, LF line endings)."""
    regs = sorted(circuit.registers, key=lambda r: r.qubits[0] if r.qubits else 0)
    covered: list[int] = []
    for r in regs:
        if list(r.qubits) != list(range(r.qubits[0], r.qubits[0] + len(r.qubits))):
            raise QasmExportError(f"register {r.name!r} is not contiguous")
        covered.extend(r.qubits)
    if covered != list(range(circuit.qubit_count)):
        raise QasmExportError("registers must tile all qubits exactly once")

    # the registers tile the wires in order, so wire q's name is refs[q]
    refs = [f"{r.name}[{i}]" for r in regs for i in range(len(r.qubits))]
    lines = [HEADER]
    for r in regs:
        lines.append(f"qubit[{len(r.qubits)}] {r.name};")
    for g in circuit.gates:
        lines.append(f"{g.name} {', '.join([refs[q] for q in g.qubits])};")
    return "\n".join(lines) + "\n"


def import_text(text: str) -> Circuit:
    r"""Parse OpenQASM-subset text back into a circuit.

    Lines end at ``"\n"`` only; a ``"\r"`` before it is dropped with the
    other surrounding whitespace.  Each gate line takes the first path that
    applies:

    1. a raw line already parsed in this call appends the same ``Gate``
       again, so an imported circuit may share one immutable ``Gate``
       object between positions;
    2. a canonical line, spelled exactly as :func:`export_text` writes it,
       maps each ``reg[i]`` token to its wire through a dict that the
       declarations fill;
    3. any other line goes through the regex path below.  That
       path is the only one that raises, so every error message and line
       number comes from it.
    """
    circuit = Circuit()
    gates = circuit.gates
    bases: dict[str, int] = {}
    sizes: dict[str, int] = {}
    wires: dict[str, int] = {}  # "reg[i]" -> wire, for every declared wire
    seen: dict[str, Gate] = {}  # raw gate line -> its Gate
    set_name, set_qubits = Gate.name.__set__, Gate.qubits.__set__
    saw_header = False

    for line_no, raw in enumerate(text.split("\n"), start=1):
        gate = seen.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        name, _, rest = raw.partition(" ")
        if name in GATE_ARITY and rest[-1:] == ";":
            try:
                qubits = tuple([wires[tok] for tok in rest[:-1].split(", ")])
            except KeyError:
                qubits = ()
            # Every token in ``wires`` names an in-range wire, so distinct
            # wires of the right arity make a valid gate: fill the slots
            # directly, as Circuit.extend does.  The name is interned so
            # that imported gates share it, as built gates do.
            if len(qubits) == GATE_ARITY[name] and len(set(qubits)) == len(qubits):
                gate = object.__new__(Gate)
                set_name(gate, sys.intern(name))
                set_qubits(gate, qubits)
                gates.append(gate)
                seen[raw] = gate
                continue

        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM"):
            if line != HEADER:
                raise QasmParseError(line_no, f"unsupported version line {line!r}")
            saw_header = True
            continue

        m = _DECL_RE.match(line)
        if m:
            if gates:
                raise QasmParseError(line_no, "declaration after gate statement")
            size, name = int(m.group(1)), m.group(2)
            if name in bases:
                raise QasmParseError(line_no, f"register {name!r} redeclared")
            base = bases[name] = circuit.qubit_count
            sizes[name] = size
            circuit.new_register(name, size)
            for i in range(size):
                wires[f"{name}[{i}]"] = base + i
            continue

        if not line.endswith(";"):
            raise QasmParseError(line_no, f"missing ';' in {line!r}")
        body = line[:-1].strip()
        parts = body.split(None, 1)
        name = parts[0]
        if name not in GATE_ARITY:
            raise QasmParseError(line_no, f"unknown gate {name!r}")
        if not bases:
            raise QasmParseError(line_no, "gate before any register declaration")
        if len(parts) < 2:
            raise QasmParseError(line_no, f"gate {name!r} without operands")
        operands = []
        for tok in parts[1].split(","):
            om = _OPERAND_RE.match(tok.strip())
            if not om:
                raise QasmParseError(line_no, f"bad operand {tok.strip()!r}")
            reg, idx = om.group(1), int(om.group(2))
            if reg not in bases:
                raise QasmParseError(line_no, f"undeclared register {reg!r}")
            if idx >= sizes[reg]:
                raise QasmParseError(
                    line_no, f"index {idx} out of range for register {reg!r}"
                )
            operands.append(bases[reg] + idx)
        if len(operands) != GATE_ARITY[name]:
            raise QasmParseError(
                line_no,
                f"gate {name!r} takes {GATE_ARITY[name]} operands, got {len(operands)}",
            )
        try:
            gate = Gate(name, tuple(operands))
            circuit.append(gate)
        except ValueError as exc:
            raise QasmParseError(line_no, str(exc)) from exc
        seen[raw] = gate

    if not saw_header:
        raise QasmParseError(1, "missing OPENQASM header")
    if not bases:
        raise QasmParseError(1, "missing register declarations")
    return circuit
