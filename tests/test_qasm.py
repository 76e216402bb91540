import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revdiv.circuit import Circuit
from revdiv.divider import KINDS, RESTORING, build_divider, make_params
from revdiv import qasm
from revdiv.qasm import (
    HEADER,
    MAX_WIRES,
    QasmExportError,
    QasmParseError,
    export_text,
    import_text,
)

from strategies import circuits


def _sample():
    c = Circuit()
    c.new_register("a", 2)
    c.new_register("b", 1)
    c.x(0)
    c.cx(0, 2)
    c.ccx(0, 1, 2)
    return c


def test_export_format():
    text = export_text(_sample())
    assert text == (
        "OPENQASM 3.0;\n"
        "qubit[2] a;\n"
        "qubit[1] b;\n"
        "x a[0];\n"
        "cx a[0], b[0];\n"
        "ccx a[0], a[1], b[0];\n"
    )


def test_round_trip_identity():
    c = _sample()
    assert import_text(export_text(c)) == c


def test_import_ignores_comments_and_blanks():
    text = (
        f"{HEADER}\n\n// a comment\nqubit[1] a; // trailing\n\nx a[0];\n"
    )
    c = import_text(text)
    assert c.qubit_count == 1
    assert c.ops == [-1, -1, 0]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("qubit[1] a;\nx a[0];\n", "missing OPENQASM header"),
        (f"{HEADER}\n", "missing register declarations"),
        ("OPENQASM 2.0;\nqubit[1] a;\n", "unsupported version"),
        (f"{HEADER}\nqubit[1] a;\nqubit[1] a;\n", "redeclared"),
        (f"{HEADER}\nqubit[1] a;\nx a[0];\nqubit[1] b;\n", "declaration after gate"),
        (f"{HEADER}\nqubit[1] a;\nx a[0]\n", "missing ';'"),
        (f"{HEADER}\nqubit[1] a;\nh a[0];\n", "unknown gate"),
        (f"{HEADER}\nx a[0];\n", "before any register"),
        (f"{HEADER}\nqubit[1] a;\nx b[0];\n", "undeclared register"),
        (f"{HEADER}\nqubit[1] a;\nx a[1];\n", "out of range"),
        (f"{HEADER}\nqubit[2] a;\ncx a[0];\n", "takes 2 operands"),
        (f"{HEADER}\nqubit[1] a;\nx foo;\n", "bad operand"),
        (f"{HEADER}\nqubit[2] a;\ncx a[0], a[0];\n", "line 3: duplicate operands"),
        # only "\n" ends a line, so a form feed inside a comment stays there
        (f"{HEADER}\n// a\x0cb\nqubit[2] a;\ncx a[0], a[0];\n", "line 4: duplicate operands"),
        # digits are ASCII only: ARABIC-INDIC THREE and ONE are not indices
        (f"{HEADER}\nqubit[\u0663] a;\n", "line 2: bad declaration 'qubit[\u0663] a;'"),
        (f"{HEADER}\nqubit[3] a;\nx a[\u0661];\n", "line 3: bad operand 'a[\u0661]'"),
        # a line led by the qubit keyword is a declaration or an error
        (f"{HEADER}\nqubit[x] a;\n", "line 2: bad declaration 'qubit[x] a;'"),
        (f"{HEADER}\nqubit a;\n", "line 2: bad declaration 'qubit a;'"),
        (f"{HEADER}\nqubit[1] a;\n;\n", "line 3: empty statement"),
        (f"{HEADER}\nqubit[1] a;\n  ;  // c\n", "line 3: empty statement"),
        # the header comes first, once
        (f"qubit[2] a;\n{HEADER}\ncx a[0], a[1];\n{HEADER}\n", "line 2: OPENQASM header after a declaration"),
        (f"// c\nqubit[0] a;\n{HEADER}\n", "line 3: OPENQASM header after a declaration"),
        (f"{HEADER}\n{HEADER}\nqubit[1] a;\n", "line 2: repeated OPENQASM header"),
        (f"{HEADER}\nqubit[1] a;\n{HEADER} // again\n", "line 3: repeated OPENQASM header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_separators_inside_comments_are_comment_text(sep):
    text = f"{HEADER}\n// a{sep}x a[0];\nqubit[2] a; // b{sep}x a[1];\ncx a[0], a[1];\n"
    c = import_text(text)
    assert c.qubit_count == 2
    assert c.ops == [-1, 0, 1]


_SPELLINGS = {
    "extra spaces": lambda line: line.replace(" ", "   ").replace(";", "  ;"),
    "tabs": lambda line: line.replace(" ", "\t"),
    "no space after comma": lambda line: line.replace(", ", ","),
    "indented": lambda line: "    " + line,
    "trailing comment": lambda line: line + " // note",
    "crlf": lambda line: line + "\r",
    "blank and comment lines": lambda line: line + "\n\n// between\n",
}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
def test_non_canonical_spellings_import_alike(spelling):
    # respell every other line after the header, so that canonical and
    # respelled forms of the same gate line meet in one file
    c = _sample()
    c.x(0)
    c.cx(0, 2)
    c.ccx(0, 1, 2)
    header, *body = export_text(c).split("\n")
    respell = _SPELLINGS[spelling]
    lines = [respell(line) if k % 2 and line else line for k, line in enumerate(body)]
    text = "\n".join([header, *lines])
    assert text != export_text(c)
    assert import_text(text) == c


@pytest.mark.parametrize(
    "bad, message",
    [
        ("cx a[0], a[0];", "line 5: duplicate operands in cx(0, 0)"),
        ("x a[9];", "line 5: index 9 out of range for register 'a'"),
        ("x zz[0];", "line 5: undeclared register 'zz'"),
        ("ccx a[0], a[1];", "line 5: gate 'ccx' takes 3 operands, got 2"),
        # without the check of name against count, each would import as
        # the gate its count names
        ("cx a[0], a[1], b[0];", "line 5: gate 'cx' takes 2 operands, got 3"),
        ("x a[0], a[1];", "line 5: gate 'x' takes 1 operand, got 2"),
    ],
)
def test_canonical_looking_bad_lines_keep_their_messages(bad, message):
    text = f"{HEADER}\nqubit[2] a;\nqubit[1] b;\ncx a[0], a[1];\n{bad}\n"
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    assert str(exc.value) == message
    assert exc.value.line_no == 5


_LONG = "b" * 100_000


@pytest.mark.parametrize(
    "body, line_no, quoted",
    [
        (f"cx a[0], {_LONG};", 3, "bad operand 'bbb"),
        (f"cx a[0], {_LONG}[0];", 3, "undeclared register 'bbb"),
        (f"cx a[0], a[{'1' * 100_000}];", 3, "bad operand 'a[111"),
        (f"{_LONG} a[0];", 3, "unknown gate 'bbb"),
        (f"cx a[0], a[1] {_LONG}", 3, "missing ';' in 'cx a[0], a[1] bbb"),
        (f"qubit[1] {_LONG}", 3, "bad declaration 'qubit[1] bbb"),
        (f"qubit[{'1' * 100_000}] c;", 3, "bad declaration 'qubit[111"),
    ],
    ids=["operand", "register", "index", "gate", "no_semicolon", "declaration", "size"],
)
def test_long_input_is_clipped_in_errors(body, line_no, quoted):
    with pytest.raises(QasmParseError) as exc:
        import_text(f"{HEADER}\nqubit[2] a;\n{body}\n")
    message = str(exc.value)
    assert exc.value.line_no == line_no
    assert message.startswith(f"line {line_no}: {quoted}")
    assert message.endswith("'...") and len(message) < 200


def test_cr_only_export_error_is_clipped():
    # "\r" ends no line, so a CR-only copy of an export is one long line
    circuit, _ = build_divider(make_params(16, "vbe", RESTORING))
    text = export_text(circuit).replace("\n", "\r")
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    message = str(exc.value)
    assert message.startswith("line 1: unsupported version line 'OPENQASM 3.0;\\r")
    assert message.endswith("'...") and len(message) < 200


def test_quotes_up_to_80_characters_are_whole():
    for size, tail in ((80, "'"), (81, "'...")):
        with pytest.raises(QasmParseError) as exc:
            import_text(f"{HEADER}\nqubit[1] a;\n{'h' * size} a[0];\n")
        assert str(exc.value) == f"line 3: unknown gate '{'h' * 80}{tail}"


def test_parse_error_carries_line_number():
    text = f"{HEADER}\nqubit[1] a;\nh a[0];\n"
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


def test_declarations_past_the_wire_cap_fail_on_their_line():
    assert MAX_WIRES == 2**20
    with pytest.raises(QasmParseError) as exc:
        import_text(f"{HEADER}\nqubit[1048577] a;\n")
    assert str(exc.value) == "line 2: declarations exceed 1048576 wires in total"
    # the cap counts every declaration, and is checked before any wire is made
    with pytest.raises(QasmParseError, match="^line 3: "):
        import_text(f"{HEADER}\nqubit[2] a;\nqubit[{MAX_WIRES - 1}] b;\n")
    with pytest.raises(QasmParseError, match="^line 2: "):
        import_text(f"{HEADER}\nqubit[{'9' * 18}] a;\n")


def test_declarations_up_to_the_wire_cap_are_accepted(monkeypatch):
    # a full-size table at the real cap takes about 164 MB, so the boundary
    # is checked at a small cap; the comparison is the same
    monkeypatch.setattr(qasm, "MAX_WIRES", 5)
    c = import_text(f"{HEADER}\nqubit[2] a;\nqubit[3] b;\nccx a[0], a[1], b[2];\n")
    assert c.qubit_count == 5
    assert c.ops == [0, 1, 4]
    with pytest.raises(QasmParseError, match="^line 4: declarations exceed 5 wires"):
        import_text(f"{HEADER}\nqubit[2] a;\nqubit[3] b;\nqubit[1] c;\n")


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_empty_register_round_trips(empty):
    c = Circuit()
    for i, size in enumerate([2, 1][:empty] + [0] + [2, 1][empty:]):
        c.new_register(f"r{i}", size)
    c.x(0)
    c.ccx(0, 1, 2)
    text = export_text(c)
    assert text.split("\n")[1 + empty] == f"qubit[0] r{empty};"
    assert import_text(text) == c


def test_imported_empty_register_exports_in_place():
    text = f"{HEADER}\nqubit[1] a;\nqubit[0] e;\nqubit[1] b;\ncx a[0], b[0];\n"
    assert export_text(import_text(text)) == text


def test_export_refuses_a_circuit_without_registers():
    # import refuses text that declares no register, so export writes none
    with pytest.raises(QasmExportError, match="^one or more registers must tile all qubits"):
        export_text(Circuit())
    with pytest.raises(QasmParseError, match="^line 1: missing register declarations$"):
        import_text(f"{HEADER}\n")
    # one empty register is a declaration, and it round-trips
    c = Circuit()
    c.new_register("a", 0)
    assert export_text(c) == f"{HEADER}\nqubit[0] a;\n"
    assert import_text(export_text(c)) == c


def test_registers_round_trip_in_wire_order():
    # import reads registers back in wire order, so export refuses any other
    ops = [-1, 0, 1, -1, -1, 1]  # cx(0, 1), then x(1)
    c = Circuit(2, {"b": (1,), "a": (0,)}, ops)
    with pytest.raises(QasmExportError, match="listed in wire order$"):
        export_text(c)
    c = Circuit(2, {"a": (0,), "b": (1,)}, ops)
    assert import_text(export_text(c)) == c
    # circuits compare registers as dicts, ignoring their order, so the
    # declaration order is checked on its own
    back = import_text(f"{HEADER}\nqubit[1] b;\nqubit[2] a;\n")
    assert list(back.registers) == ["b", "a"]
    assert back == Circuit(3, {"a": (1, 2), "b": (0,)})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ["cuccaro", "vbe"])
def test_export_ignores_gate_sharing(kind, adder):
    c, _ = build_divider(make_params(8, adder, kind))
    # the checked constructor copies the store, so the copy shares no list with c
    unshared = Circuit(c.qubit_count, c.registers, c.ops)
    assert unshared.ops is not c.ops
    assert export_text(unshared) == export_text(c)


def _named(name: str) -> Circuit:
    c = Circuit()
    c.new_register(name, 2)
    return c


@pytest.mark.parametrize(
    "circuit, name",
    [
        pytest.param(Circuit(qubit_count=3, registers={"a": (0, 2)}), "a", id="gapped"),
        # import reads none of these names back, or reads them onto other wires
        pytest.param(_named("my reg"), "my reg", id="space"),
        pytest.param(_named("r\u00e9g"), "r\u00e9g", id="non-ascii"),
        pytest.param(_named("0a"), "0a", id="leading-digit"),
        pytest.param(_named("a\n"), "a\n", id="trailing-newline"),
        pytest.param(_named(""), "", id="empty"),
    ],
)
def test_export_rejects_gapped_registers(circuit, name):
    with pytest.raises(QasmExportError, match=re.escape(repr(name))):
        export_text(circuit)


@settings(max_examples=200, deadline=None)
@given(circuits(1, 12, 30, tiled=True))
def test_round_trip_property(c):
    assert import_text(export_text(c)) == c


def _reference_export(c: Circuit) -> str:
    """Export spelled the plain way: each gate's operands joined by ", "."""
    ref = {q: f"{name}[{i}]" for name, wires in c.registers.items() for i, q in enumerate(wires)}
    lines = [HEADER, *(f"qubit[{len(wires)}] {name};" for name, wires in c.registers.items())]
    lines += [f"{g.name} {', '.join(ref[q] for q in g.qubits)};" for g in c.gates]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(circuits(1, 12, 30, tiled=True))
def test_export_matches_reference_renderer(c):
    # the round trip alone would accept any spelling import reads back
    assert export_text(c) == _reference_export(c)


@settings(max_examples=200, deadline=None)
@given(circuits(1, 12, 30, tiled=True), st.integers(1, 4))
def test_small_line_batches_export_and_import_alike(c, batch):
    # export's batches and import's cache bound are shrunk so that short
    # circuits cross many batches and restart the cache often
    with mock.patch.object(qasm, "_LINE_BATCH", batch):
        text = export_text(c)
        assert text == _reference_export(c)
        assert import_text(text) == c


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab/ \r\n", max_size=60), st.integers(1, 8))
@example("", 1)
@example("\n", 1)
@example("a\n", 1)
@example("a\r\nb\r\n", 2)
@example("x a[0]; // c\r\n\n", 3)
@example("a\nb", 1)
@example("ab\nc", 2)
def test_line_splitter_matches_split(text, piece):
    # the pieces are shrunk so that short texts cross many boundaries
    with mock.patch.object(qasm, "_PIECE", piece):
        assert list(qasm._lines(text)) == text.split("\n")
    assert list(qasm._lines(text)) == text.split("\n")


def test_line_splitter_at_the_real_piece_size():
    boundary = "a" * qasm._PIECE + "\nb"  # a "\n" exactly where the first piece ends
    for text in ["", "\n", boundary, boundary + "\n", boundary[:-1], "\r" * 200_000]:
        assert list(qasm._lines(text)) == text.split("\n")


def test_parse_error_past_the_first_piece_keeps_its_line_number():
    # the middle of this 0.36 MB text lies past import's first two pieces
    text = export_text(build_divider(make_params(32, "vbe", RESTORING))[0])
    start = text.index("\n", len(text) // 2) + 1
    line_no = text.count("\n", 0, start) + 1
    bad = text[:start] + "h a[0];\n" + text[start:]
    with pytest.raises(QasmParseError) as exc:
        import_text(bad)
    assert str(exc.value) == f"line {line_no}: unknown gate 'h'"
    assert bad.split("\n")[line_no - 1] == "h a[0];"


def _traced(f, *args):
    """``f(*args)``, the traced bytes still held after it, and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


@pytest.fixture(scope="module")
def restoring_vbe_64():
    return build_divider(make_params(64, "vbe", RESTORING))[0]


# Each bound sits about 10 % above the highest ratio measured on Python
# 3.10-3.13, with and without dev mode, for the n=64 restoring VBE divider
# when a circuit held a Gate per gate: export 2.56-2.70 times its text and
# import 1.90-2.11 times what it keeps.  Holding a second copy of the text
# read 3.31-4.31 and 2.98-3.34.  With the flat store and export's line
# batches they read 2.02 and 1.24-1.29.
def test_export_peak_is_bounded_by_its_text(restoring_vbe_64):
    text, _, peak = _traced(export_text, restoring_vbe_64)
    assert peak < 3.0 * len(text)


def test_import_peak_is_bounded_by_the_circuit_it_keeps(restoring_vbe_64):
    text = export_text(restoring_vbe_64)
    circuit, held, peak = _traced(import_text, text)
    assert circuit == restoring_vbe_64
    assert peak < 2.35 * held
