import pytest
from hypothesis import given, settings, strategies as st

from revdiv.circuit import Circuit, Gate, Register, ccx, cx, x
from revdiv.qasm import (
    HEADER,
    QasmExportError,
    QasmParseError,
    export_text,
    import_text,
)


def _sample():
    c = Circuit()
    c.new_register("a", 2)
    c.new_register("b", 1)
    c.append(x(0))
    c.append(cx(0, 2))
    c.append(ccx(0, 1, 2))
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
    assert c.gates == [x(0)]


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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    text = f"{HEADER}\nqubit[1] a;\nh a[0];\n"
    with pytest.raises(QasmParseError) as exc:
        import_text(text)
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


def test_export_rejects_gapped_registers():
    c = Circuit(qubit_count=3, registers=[Register("a", (0, 2))])
    with pytest.raises(QasmExportError):
        export_text(c)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    c = Circuit()
    left = n
    idx = 0
    while left:
        size = draw(st.integers(min_value=1, max_value=left))
        c.new_register(f"r{idx}", size)
        idx += 1
        left -= size
    n_gates = draw(st.integers(min_value=0, max_value=30))
    for _ in range(n_gates):
        arity = draw(st.integers(min_value=1, max_value=min(3, n)))
        wires = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        c.append(Gate({1: "x", 2: "cx", 3: "ccx"}[arity], tuple(wires)))
    return c


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_round_trip_property(c):
    assert import_text(export_text(c)) == c
