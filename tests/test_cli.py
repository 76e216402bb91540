import hashlib
import json
import random
import re

import pytest

from revdiv import divider
from revdiv.cli import main
from revdiv.divider import (
    EXHAUSTIVE_LIMIT,
    KINDS,
    NON_RESTORING,
    build_divider,
    make_params,
)
from revdiv.qasm import export_text


def test_build_writes_qasm_and_reports(tmp_path, capsys):
    out = tmp_path / "d3.qasm"
    rc = main(
        ["build", "--n", "3", "--adder", "cuccaro", "--kind", "nonrestoring",
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "toffoli_count" in report
    assert report["qubit_count"] == 14
    text = out.read_text()
    assert text.startswith("OPENQASM 3.0;\n")


def test_build_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
    for path in (a, b):
        assert main(
            ["build", "--n", "4", "--adder", "vbe", "--kind", "restoring",
             "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_bad_n(capsys):
    rc = main(["build", "--n", "0", "--adder", "cuccaro", "--out", "x.qasm"])
    assert rc == 1
    assert "n must be >= 1" in capsys.readouterr().err


def test_estimate_published_values(capsys):
    rc = main(
        ["estimate", "--n", "32", "--row", "takahashi_combination",
         "--kind", "nonrestoring"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "toffoli_depth": 3003,
        "toffoli_count": 7489,
        "qubit_count": 152,
    }
    assert main(["estimate", "--n", "32", "--row", "ling"]) == 0
    assert json.loads(capsys.readouterr().out)["toffoli_depth"] == 802


def test_estimate_radix_bounds(capsys):
    rc = main(["estimate", "--n", "32", "--row", "higher_radix", "--radix", "2"])
    assert rc == 1
    assert "2 < r <= n" in capsys.readouterr().err
    # a row without a radix rejects one instead of ignoring it
    rc = main(["estimate", "--n", "32", "--row", "ling", "--radix", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_estimate_strict_floor_mode(capsys):
    rc = main(
        ["estimate", "--n", "32", "--row", "ling", "--rounding", "strict-floor"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["toffoli_depth"] == 769


def test_verify_pass(capsys):
    rc = main(["verify", "--n", "4", "--adder", "vbe", "--kind", "restoring"])
    assert rc == 0
    assert "240/240 pass" in capsys.readouterr().out


def test_verify_default_limit_reaches_n8(capsys):
    rc = main(["verify", "--n", "8", "--adder", "vbe", "--kind", "restoring"])
    assert rc == 0
    assert capsys.readouterr().out == "65280/65280 pass\n"


def test_verify_limit(capsys):
    n = EXHAUSTIVE_LIMIT + 1
    rc = main(["verify", "--n", str(n), "--adder", "cuccaro", "--kind", "nonrestoring"])
    assert rc == 1
    assert "exceeds exhaustive limit" in capsys.readouterr().err


def test_verify_has_no_limit_option(capsys):
    # EXHAUSTIVE_LIMIT is the one cap, with no option to raise it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--adder", "vbe", "--limit", "3"])
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_verify_failure_names_the_first_wrong_division(monkeypatch, capsys):
    def faulty_build(params):
        c, layout = build_divider(params)
        del c.gates[next(i for i, g in enumerate(c.gates) if g.name == "ccx")]
        return c, layout

    monkeypatch.setattr(divider, "build_divider", faulty_build)
    c, layout = faulty_build(make_params(3, "cuccaro", NON_RESTORING))
    passed, errors = 0, []
    for b in range(1, 8):
        for a in range(8):
            try:
                divider.run_division(c, layout, a, b)
                passed += 1
            except ValueError as exc:
                errors.append(str(exc))
    assert errors
    rc = main(["verify", "--n", "3", "--adder", "cuccaro", "--kind", "nonrestoring"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == f"{passed}/56 pass\n"
    assert captured.err == f"first failure: {errors[0]}\n"


def test_simulate(tmp_path, capsys):
    out = tmp_path / "d3.qasm"
    main(["build", "--n", "3", "--adder", "cuccaro", "--kind", "nonrestoring",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["simulate", "--circuit", str(out), "--dividend", "7",
               "--divisor", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "q=2 r=1"


def test_simulate_divisor_zero(tmp_path, capsys):
    out = tmp_path / "d2.qasm"
    main(["build", "--n", "2", "--adder", "cuccaro", "--kind", "restoring",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["simulate", "--circuit", str(out), "--dividend", "1",
               "--divisor", "0"])
    assert rc == 1
    assert "divisor" in capsys.readouterr().err


def test_simulate_missing_file(capsys):
    rc = main(["simulate", "--circuit", "/nonexistent.qasm", "--dividend", "1",
               "--divisor", "1"])
    assert rc == 1


def test_simulate_parse_error_has_location(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 3.0;\nqubit[1] a;\nh a[0];\n")
    rc = main(["simulate", "--circuit", str(bad), "--dividend", "0",
               "--divisor", "1"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_simulate_numbers_lines_as_the_library_does(tmp_path, capsys):
    # only "\n" ends a line, so the lone "\r" stays inside the comment
    bad = tmp_path / "bad.qasm"
    bad.write_bytes(b"OPENQASM 3.0;\n// a\rb\nqubit[2] a;\ncx a[0], a[0];\n")
    rc = main(["simulate", "--circuit", str(bad), "--dividend", "0",
               "--divisor", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 4: duplicate operands in cx(0, 0)\n"


def test_simulate_crlf_copy(tmp_path, capsys):
    out = tmp_path / "d3.qasm"
    main(["build", "--n", "3", "--adder", "vbe", "--kind", "restoring",
          "--out", str(out)])
    capsys.readouterr()
    crlf = tmp_path / "d3-crlf.qasm"
    crlf.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
    rc = main(["simulate", "--circuit", str(crlf), "--dividend", "7",
               "--divisor", "3"])
    assert rc == 0
    assert capsys.readouterr().out == "q=2 r=1\n"


def test_simulate_rejects_a_wrong_division(tmp_path, capsys):
    # without the Toffoli on line 98 this divider gives 0 / 2 = 6 rest 2
    out = tmp_path / "d4.qasm"
    main(["build", "--n", "4", "--adder", "cuccaro", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().split("\n")
    assert lines[97] == "ccx d[0], rq[2], d[1];"
    mutant = tmp_path / "mutant.qasm"
    mutant.write_text("\n".join(lines[:97] + lines[98:]))
    rc = main(["simulate", "--circuit", str(mutant), "--dividend", "0",
               "--divisor", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: a=0 b=2: got q=6 r=2, want q=0 r=0\n"


def _mutate(rng, lines, first_gate):
    """One gate line dropped, duplicated, swapped with the next, or re-indexed."""
    lines = list(lines)
    i = rng.randrange(first_gate, len(lines) - 1)
    op = rng.choice(("drop", "duplicate", "swap", "reindex"))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        operands = list(re.finditer(r"\[(\d+)\]", lines[i]))
        m = rng.choice(operands)
        index = rng.randrange(9)  # the largest n=4 register has 8 wires
        lines[i] = lines[i][: m.start(1)] + str(index) + lines[i][m.end(1) :]
    return lines


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ["cuccaro", "vbe"])
def test_simulate_on_mutants_is_right_or_an_error(tmp_path, capsys, kind, adder):
    rng = random.Random(f"{kind}-{adder}")
    c, _ = build_divider(make_params(4, adder, kind))
    lines = export_text(c).split("\n")
    first_gate = 1 + len(c.registers)
    path = tmp_path / "mutant.qasm"
    outcomes = {"right": 0, "error": 0}
    for _ in range(100):
        path.write_text("\n".join(_mutate(rng, lines, first_gate)))
        a, b = rng.randrange(16), rng.randrange(1, 16)
        rc = main(["simulate", "--circuit", str(path), "--dividend", str(a),
                   "--divisor", str(b)])
        captured = capsys.readouterr()
        q, r = divmod(a, b)
        if rc == 0:
            assert (captured.out, captured.err) == (f"q={q} r={r}\n", "")
            outcomes["right"] += 1
        else:
            assert rc == 1 and captured.out == ""
            assert re.fullmatch(r"error: [^\n]+\n", captured.err)
            outcomes["error"] += 1
    assert min(outcomes.values()) > 0


@pytest.mark.parametrize(
    "registers, register",
    [
        ("qubit[4] rq;\nqubit[3] d;\nqubit[1] s;\n", "q"),  # no quotient register
        ("qubit[4] rq;\nqubit[3] d;\nqubit[2] q;\nqubit[0] s;\n", "s"),  # empty sign
        ("qubit[4] rq;\nqubit[3] d;\nqubit[1] z;\nqubit[5] q;\n", "q"),  # restoring needs q[1]
        ("qubit[4] rq;\nqubit[2] d;\nqubit[2] q;\nqubit[1] s;\n", "d"),  # n=2 needs d[3]
        ("qubit[5] rq;\nqubit[3] d;\nqubit[2] q;\nqubit[1] s;\n", "rq"),  # odd rq
    ],
    ids=["missing_q", "empty_s", "oversized_q", "short_d", "odd_rq"],
)
def test_simulate_rejects_malformed_divider(tmp_path, capsys, registers, register):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 3.0;\n" + registers)
    rc = main(["simulate", "--circuit", str(bad), "--dividend", "3",
               "--divisor", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: not a divider circuit:")
    assert f" in register {register!r}, found " in captured.err


def test_table_csv(capsys):
    rc = main(["table", "--n", "32", "--format", "csv"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "divider,TD,TC,QC,TD_impr,TC_impr,QC_impr"
    assert "non_restoring_ling,802,12217,416,94.06,86.92,98.27" in lines
    assert "restoring_takahashi_combination,6010,10496,151" in "\n".join(lines)
    # strict-floor disagreements are audited on the error stream
    assert "audit" in captured.err


@pytest.mark.parametrize("rounding", ["ceil-real-log", "strict-floor"])
def test_table_audit_names_both_conventions(capsys, rounding):
    assert main(["table", "--n", "32", "--rounding", rounding]) == 0
    err = capsys.readouterr().err.splitlines()
    line = "audit: non_restoring_ling: ceil-real-log and strict-floor readings disagree"
    assert line in err
    assert all(e.endswith(": ceil-real-log and strict-floor readings disagree") for e in err)


def test_table_json(capsys):
    rc = main(["table", "--n", "32", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    by_name = {r["divider"]: r for r in rows}
    assert by_name["non_restoring_takahashi_combination"]["TC_impr"] == "91.98"
    assert by_name["newton_raphson"]["TD"] == 13506


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--row", "ling"], ["estimate", "--row", "draper_cla"], ["table"]],
)
def test_float_overflow_is_an_error_line(capsys, argv):
    n = 10**200
    assert main([*argv, "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    row = argv[-1] if argv[0] == "estimate" else "ling"
    assert captured.err == f"error: {row} at n={n} overflows a float under ceil-real-log\n"


def test_strict_floor_table_past_float_range(capsys):
    # the ceil-real-log reading overflows at this n, so each proposed line
    # is audited as disagreeing, and the strict-floor values are printed
    n = str(10**200)
    assert main(["table", "--n", n, "--format", "json", "--rounding", "strict-floor"]) == 0
    out, err = capsys.readouterr()
    rows = {r["divider"]: r for r in json.loads(out)}
    assert all(r["strict_floor_disagrees"] for r in rows.values())
    assert len(err.splitlines()) == len(rows) == 4
    for flag, kind in (("nonrestoring", "non_restoring"), ("restoring", "restoring")):
        for rid in ("takahashi_combination", "ling"):
            argv = ["estimate", "--n", n, "--row", rid, "--kind", flag]
            assert main([*argv, "--rounding", "strict-floor"]) == 0
            est = json.loads(capsys.readouterr().out)
            row = rows[f"{kind}_{rid}"]
            assert (row["TD"], row["TC"], row["QC"]) == (
                est["toffoli_depth"], est["toffoli_count"], est["qubit_count"]
            )


# SHA-256 of every `table` exit code, stdout and stderr below, in loop order
TABLE_SHA256 = "5575c4a3e188624e1183bd0dfddb379a5eac637c16f6f5113802871ad71663a2"


def test_table_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4, 8, 16, 31, 32, 33, 64, 128):
        for rounding in ("ceil-real-log", "strict-floor"):
            for fmt in ("csv", "json"):
                rc = main(["table", "--n", str(n), "--format", fmt, "--rounding", rounding])
                out, err = capsys.readouterr()
                digest.update(f"{rc}|{out}|{err}".encode())
    assert digest.hexdigest() == TABLE_SHA256
