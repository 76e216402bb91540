"""In-process ``revdiv`` CLI tests: the cases that patch the library, loop
over many inputs or compare runs. Every other command is a row of
``cli_pins``, whose tests tier-1 collects here.
"""
import hashlib
import json
import random
import re

import pytest

from cli_pins import *  # noqa: F403 (the pin tests and their fixture)
from revdiv import divider
from revdiv.cli import main
from revdiv.divider import KINDS, NON_RESTORING, build_divider, make_params
from revdiv.qasm import export_text


def test_build_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
    for path in (a, b):
        assert main(
            ["build", "--n", "4", "--adder", "vbe", "--kind", "restoring",
             "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


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
