"""Textual import/export of circuits as an OpenQASM-3 subset.

The subset: one ``qubit[k] name;`` declaration per register (declarations
must tile the wire range contiguously, in index order), then ``x``, ``cx``
and ``ccx`` statements in sequence order.  A gate's name follows from its
operand count, so import checks each statement's name against that count.
Export is deterministic and refuses registers that are not listed in wire
order, so ``import_text(export_text(c)) == c`` for every circuit it accepts.
"""
from __future__ import annotations

import re
from collections.abc import Iterator

from .circuit import Circuit, Gate, GATE_ARITY

HEADER = "OPENQASM 3.0;"

# The most wires the declarations of one import may add up to.  Each
# declared wire costs about 160 B, chiefly its "reg[i]" operand-table entry,
# so the cap bounds that at about 164 MB; an n=128 divider declares 641.
MAX_WIRES = 2**20

# import splits its text into lines a piece at a time, each piece this many
# characters and then on to the next "\n", so that the whole text's line
# strings never exist at once
_PIECE = 1 << 16

# a register name; export writes only names that import reads back
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
# sizes and indices have at most 18 digits: int() may refuse a longer one
_DECL_RE = re.compile(rf"^qubit\[(\d{{1,18}})\]\s+({_IDENT})\s*;$", re.ASCII)
_OPERAND_RE = re.compile(rf"^({_IDENT})\[(\d{{1,18}})\]$", re.ASCII)


class QasmExportError(ValueError):
    pass


class QasmParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def export_text(circuit: Circuit) -> str:
    """Render a circuit as OpenQASM-subset text (UTF-8, LF line endings).

    Equal gates, whether one shared ``Gate`` or not, render to one line
    that is made once: each gate looks its operands up in the dict of its
    operand count, and a miss spells the line by that count.  The text is
    made by one join, after the dicts are emptied, so it exists once.  One
    dict keyed by operands alone measured worse: it raised the
    ``tracemalloc`` peak of exporting the n=128 restoring VBE divider, a
    6.1 MB text, from 15.7 to 16.4 MB.
    """
    regs = circuit.registers.items()
    covered: list[int] = []
    for name, wires in regs:
        if not re.fullmatch(_IDENT, name, re.ASCII):
            raise QasmExportError(f"register name {name!r} is not an ASCII identifier")
        if wires and list(wires) != list(range(wires[0], wires[0] + len(wires))):
            raise QasmExportError(f"register {name!r} is not contiguous")
        covered.extend(wires)
    if not regs or covered != list(range(circuit.qubit_count)):
        raise QasmExportError(
            "one or more registers must tile all qubits exactly once, listed in wire order"
        )

    # the registers tile the wires in order, so wire q's name is refs[q]
    refs = [f"{name}[{i}]" for name, wires in regs for i in range(len(wires))]
    lines = [HEADER]
    for name, wires in regs:
        lines.append(f"qubit[{len(wires)}] {name};")
    made: dict[int, dict[tuple[int, ...], str]] = {k: {} for k in GATE_ARITY.values()}
    append = lines.append
    for g in circuit.gates:
        q = g.qubits
        n = len(q)
        by_qubits = made[n]
        line = by_qubits.get(q)
        if line is None:
            if n == 3:
                line = f"ccx {refs[q[0]]}, {refs[q[1]]}, {refs[q[2]]};"
            elif n == 2:
                line = f"cx {refs[q[0]]}, {refs[q[1]]};"
            else:
                line = f"x {refs[q[0]]};"
            by_qubits[q] = line
        append(line)
    # the join is the peak: empty the caches before it, and end the text
    # with its last "\n" in the one join, not by copying the joined text
    for by_qubits in made.values():
        by_qubits.clear()
    append("")
    return "\n".join(lines)


def import_text(text: str) -> Circuit:
    r"""Parse OpenQASM-subset text back into a circuit.

    Lines end at ``"\n"`` only; a ``"\r"`` before it is dropped with the
    other surrounding whitespace.  The text is split into lines in bounded
    pieces as the parse goes, so its lines never all exist at once.  A raw
    line already parsed in this call appends the same ``Gate`` again, so
    gates may be shared between positions.  A line spelled as
    :func:`export_text` writes it splits at ``", "``; any other line is
    split once its comment and whitespace are dropped.  Operands resolve
    through the ``"reg[i]"`` table that the declarations fill;
    ``_OPERAND_RE`` reads only a token the table lacks.
    """
    circuit = Circuit()
    gates, registers = circuit.gates, circuit.registers
    wires: dict[str, int] = {}  # "reg[i]" -> wire, for every declared wire
    seen: dict[str, Gate] = {}  # raw gate line -> its Gate
    set_qubits = Gate.qubits.__set__
    saw_header = False

    for line_no, raw in enumerate(_lines(text), start=1):
        gate = seen.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        qubits = None
        name, _, rest = raw.partition(" ")
        if name in GATE_ARITY and rest[-1:] == ";":
            try:
                qubits = tuple([wires[tok] for tok in rest[:-1].split(", ")])
            except KeyError:
                pass
        if qubits is None:
            line = raw.split("//", 1)[0].strip()
            if not line:
                continue
            if line.startswith("OPENQASM"):
                if line != HEADER:
                    raise QasmParseError(line_no, f"unsupported version line {_quote(line)}")
                if saw_header:
                    raise QasmParseError(line_no, "repeated OPENQASM header")
                if registers:
                    raise QasmParseError(line_no, "OPENQASM header after a declaration")
                saw_header = True
                continue
            # a line led by the qubit keyword is a declaration or an error
            if line.split(None, 1)[0].partition("[")[0] == "qubit":
                m = _DECL_RE.match(line)
                if not m:
                    raise QasmParseError(line_no, f"bad declaration {_quote(line)}")
                if gates:
                    raise QasmParseError(line_no, "declaration after gate statement")
                size, name = int(m.group(1)), m.group(2)
                if circuit.qubit_count + size > MAX_WIRES:
                    raise QasmParseError(
                        line_no, f"declarations exceed {MAX_WIRES} wires in total"
                    )
                if name in registers:
                    raise QasmParseError(line_no, f"register {_quote(name)} redeclared")
                reg = circuit.new_register(name, size)
                wires.update({f"{name}[{i}]": q for i, q in enumerate(reg)})
                continue
            if not line.endswith(";"):
                raise QasmParseError(line_no, f"missing ';' in {_quote(line)}")
            parts = line[:-1].split(None, 1)
            if not parts:
                raise QasmParseError(line_no, "empty statement")
            name = parts[0]
            if name not in GATE_ARITY:
                raise QasmParseError(line_no, f"unknown gate {_quote(name)}")
            if not registers:
                raise QasmParseError(line_no, "gate before any register declaration")
            if len(parts) < 2:
                raise QasmParseError(line_no, f"gate {_quote(name)} without operands")
            qubits = tuple([
                wires[tok] if tok in wires else _wire(line_no, tok, registers)
                for tok in map(str.strip, parts[1].split(","))
            ])

        # the count names the gate, so a mismatch would make another gate
        if len(qubits) != (k := GATE_ARITY[name]):
            raise QasmParseError(
                line_no,
                f"gate {_quote(name)} takes {k} operand{'s' * (k > 1)}, got {len(qubits)}",
            )
        if len(set(qubits)) < len(qubits):
            raise QasmParseError(line_no, f"duplicate operands in {name}{qubits}")
        # Resolved operands are in-range wires, and now distinct and of the
        # right count, so the slot is filled directly, as Circuit.extend does.
        gate = object.__new__(Gate)
        set_qubits(gate, qubits)
        gates.append(gate)
        seen[raw] = gate

    if not saw_header:
        raise QasmParseError(1, "missing OPENQASM header")
    if not registers:
        raise QasmParseError(1, "missing register declarations")
    return circuit


def _lines(text: str) -> Iterator[str]:
    r"""The items of ``text.split("\n")``, made one piece at a time."""
    start = 0
    while (cut := text.find("\n", start + _PIECE)) >= 0:
        yield from text[start:cut].split("\n")
        start = cut + 1
    yield from text[start:].split("\n")


def _quote(text: str) -> str:
    """An error message's quote of input text: its first 80 characters."""
    return repr(text[:80]) + ("..." if len(text) > 80 else "")


def _wire(line_no: int, token: str, registers: dict[str, tuple[int, ...]]) -> int:
    """The wire an operand token names, or the error that says why not."""
    m = _OPERAND_RE.match(token)
    if not m:
        raise QasmParseError(line_no, f"bad operand {_quote(token)}")
    name, idx = m.group(1), int(m.group(2))
    reg = registers.get(name)
    if reg is None:
        raise QasmParseError(line_no, f"undeclared register {_quote(name)}")
    if idx >= len(reg):
        raise QasmParseError(line_no, f"index {idx} out of range for register {_quote(name)}")
    return reg[idx]
