"""End-to-end pins of the ``revdiv`` command, one table row per test.

Each row runs ``python -m revdiv.cli`` in a child process and checks its
exit status, stdout, stderr and ``--out`` file. This module imports
nothing from ``revdiv``, so the rows test whichever package the child
resolves: ``src/`` under tier-1's ``PYTHONPATH=src``, which collects them
through ``tests/test_cli.py``, and the installed copy when this file is
run from outside the repository with no ``PYTHONPATH``.

A child runs in the invoking directory, so a relative ``PYTHONPATH`` means
the same to it; its files are absolute paths in one temporary directory
per module. A row makes each file it reads if it is missing, by the build
row that writes it or by ``FILES``, so every row also passes alone.
"""
import hashlib
import re
import subprocess
import sys
from typing import NamedTuple

import pytest


class Sha256(str):
    """The leading hex digits of the SHA-256 of a row's stdout."""


class Pin(NamedTuple):
    id: str  # the test id without "test_"; a bracketed suffix is a parameter id
    args: str  # the command line after `revdiv`, split on spaces
    stdout: str = ""  # the exact text, or a Sha256 prefix of it
    stderr: str = ""  # a regular expression that all of stderr must match
    status: int = 0
    out_sha256: str = ""  # leading hex digits of the SHA-256 of the --out file


def _error(test_id, args, message):
    """A row that exits 1 with one ``error:`` line matching ``message``."""
    return Pin(test_id, args, "", f"error: {message}\n", 1)


def _usage(test_id, args, message):
    """A row that argparse rejects with status 2."""
    return Pin(test_id, args, "", rf"usage: revdiv [^\n]*\n(?s:.*)error: {message}\n", 2)


def _costs(td, tc, qc, gates=None):
    costs = f'{{"toffoli_depth": {td}, "toffoli_count": {tc}, "qubit_count": {qc}'
    return costs + (f', "gate_total": {gates}}}\n' if gates else "}\n")


BIG = 10**200
OVERFLOW = "{} at n=%d overflows a float under ceil-real-log" % BIG
AUDIT = re.escape("".join(
    f"audit: {kind}_{row}: ceil-real-log and strict-floor readings disagree\n"
    for kind in ("non_restoring", "restoring")
    for row in ("takahashi_combination", "ling")
))
# the paper's headline: 94.06 % TD, 91.98 % TC and 99.37 % QC
TABLE_32 = """\
divider,TD,TC,QC,TD_impr,TC_impr,QC_impr
goldschmidt,17850,117187,30008,,,
newton_raphson,13506,93376,23996,,,
non_restoring_takahashi_combination,3003,7489,152,77.77,91.98,99.37
non_restoring_ling,802,12217,416,94.06,86.92,98.27
restoring_takahashi_combination,6010,10496,151,55.50,88.76,99.37
restoring_ling,3809,15224,415,71.80,83.70,98.27
"""
NOT_A_DIVIDER = r"not a divider circuit: n=2 needs {} wire\(s\) in register '{}', found {}"

PINS = [
    # the CLI examples of README.md, in its order
    Pin("build_writes_qasm_and_reports", "build --n 3 --adder cuccaro --kind nonrestoring "
        "--out d3.qasm", _costs(31, 31, 14, 120), out_sha256="d83aab2f45d69224"),
    Pin("simulate", "simulate --circuit d3.qasm --dividend 7 --divisor 3", "q=2 r=1\n"),
    Pin("verify_default_limit_reaches_n8", "verify --n 8 --adder vbe --kind restoring",
        "65280/65280 pass\n"),
    Pin("estimate_published_values", "estimate --n 32 --row takahashi_combination "
        "--kind nonrestoring", _costs(3003, 7489, 152)),
    Pin("table_csv", "table --n 32 --format csv", TABLE_32, AUDIT),
    # builds and divisions; each export digest is perfbench's seed digest.
    # A restoring build never places the add-subtractor, so a non-restoring
    # build pins it, and the n=128 build and import are the widest measured
    Pin("build_d4_vbe", "build --n 4 --adder vbe --out d4.qasm", _costs(69, 85, 22, 223),
        out_sha256="3f056e87975320ef"),
    Pin("simulate_d4_vbe", "simulate --circuit d4.qasm --dividend 13 --divisor 3", "q=4 r=1\n"),
    Pin("build_d64_vbe_restoring", "build --n 64 --adder vbe --kind restoring --out d64.qasm",
        _costs(24768, 28864, 321, 70336), out_sha256="2abcadbdfd7f4016"),
    Pin("build_c64_cuccaro_nonrestoring", "build --n 64 --adder cuccaro --kind nonrestoring "
        "--out c64.qasm", _costs(8449, 8449, 258, 33731), out_sha256="44087c338c3db619"),
    Pin("build_d128_vbe_restoring", "build --n 128 --adder vbe --kind restoring --out d128.qasm",
        _costs(98688, 115072, 641, 279936), out_sha256="a4eda0d4a0230472"),
    Pin("simulate_d128_vbe_restoring", "simulate --circuit d128.qasm "
        "--dividend 170141183460469231731687303715884118073 --divisor 1000003",
        "q=170140673038450116381338159701405 r=13858\n"),
    Pin("build_c4_cuccaro", "build --n 4 --adder cuccaro --out c4.qasm", _costs(49, 49, 18, 191),
        out_sha256="a5846d15d0a59e2f"),
    _error("build_rejects_bad_n", "build --n 0 --adder cuccaro --out x.qasm", "n must be >= 1"),
    # every division of a restoring divider, and of non-restoring ones; 12
    # is the one exhaustive cap, with no option to raise it
    Pin("verify_pass", "verify --n 4 --adder vbe --kind restoring", "240/240 pass\n"),
    Pin("verify_n6_cuccaro_nonrestoring", "verify --n 6 --adder cuccaro --kind nonrestoring",
        "4032/4032 pass\n"),
    Pin("verify_n11_cuccaro_nonrestoring", "verify --n 11 --adder cuccaro --kind nonrestoring",
        "4192256/4192256 pass\n"),
    _error("verify_limit", "verify --n 13 --adder cuccaro --kind nonrestoring",
           "n=13 exceeds exhaustive limit 12"),
    _usage("verify_has_no_limit_option", "verify --n 3 --adder vbe --limit 3",
           "unrecognized arguments: --limit 3"),
    _usage("build_rejects_unknown_adder", "build --n 4 --adder ripple --out x.qasm",
           r"argument --adder: invalid choice: 'ripple' [^\n]*"),
    _usage("verify_rejects_unknown_kind", "verify --n 3 --adder vbe --kind newton",
           r"argument --kind: invalid choice: 'newton' [^\n]*"),
    _usage("estimate_rejects_unknown_row", "estimate --n 32 --row goldschmidt",
           r"argument --row: invalid choice: 'goldschmidt' [^\n]*"),
    # files edited after export: CRLF line endings and a comment line take
    # the general parse path, a BOM is skipped, and a lone "\r" inside a
    # comment ends no line, so the error is on line 4, as the library says
    Pin("simulate_crlf_copy", "simulate --circuit d4-edited.qasm --dividend 13 --divisor 3",
        "q=4 r=1\n"),
    Pin("simulate_bom_copy", "simulate --circuit d3-bom.qasm --dividend 7 --divisor 3",
        "q=2 r=1\n"),
    _error("simulate_numbers_lines_as_the_library_does",
           "simulate --circuit lone-cr.qasm --dividend 0 --divisor 1",
           r"line 4: duplicate operands in cx\(0, 0\)"),
    _error("simulate_parse_error_has_location",
           "simulate --circuit bad-gate.qasm --dividend 0 --divisor 1", "line 3: unknown gate 'h'"),
    # without the Toffoli on line 98 this divider computes 0 / 2 as q=6
    # r=2; simulate checks its division and reports an error line
    _error("simulate_rejects_a_wrong_division",
           "simulate --circuit c4-mutant.qasm --dividend 0 --divisor 2",
           "a=0 b=2: got q=6 r=2, want q=0 r=0"),
    _error("simulate_divisor_zero", "simulate --circuit d3.qasm --dividend 1 --divisor 0",
           "divisor must be non-zero"),
    _error("simulate_missing_file", "simulate --circuit missing.qasm --dividend 1 --divisor 1",
           r"cannot read [^\n]*missing\.qasm: [^\n]*"),
    *(
        _error(f"simulate_rejects_malformed_divider[{name}]",
               f"simulate --circuit {name}.qasm --dividend 3 --divisor 1",
               NOT_A_DIVIDER.format(*wires))
        for name, wires in (("missing_q", (2, "q", 0)), ("empty_s", (1, "s", 0)),
                            ("oversized_q", (1, "q", 5)), ("short_d", (3, "d", 2)),
                            ("odd_rq", (4, "rq", 5)))
    ),
    # closed forms; the JSON table holds the values of TABLE_32
    Pin("table_json", "table --n 32 --format json", Sha256("e30f35eea6d93e44"), AUDIT),
    Pin("table_audit_names_both_conventions[ceil-real-log]",
        "table --n 32 --rounding ceil-real-log", TABLE_32, AUDIT),
    Pin("table_audit_names_both_conventions[strict-floor]",
        "table --n 32 --rounding strict-floor", Sha256("b23087c4b75c4ddf"), AUDIT),
    Pin("estimate_ling_n32", "estimate --n 32 --row ling", _costs(802, 12217, 416)),
    Pin("estimate_strict_floor_mode", "estimate --n 32 --row ling --rounding strict-floor",
        _costs(769, 12225, 416)),
    _error("estimate_radix_bounds", "estimate --n 32 --row higher_radix --radix 2",
           "higher_radix needs an integer radix r with 2 < r <= n"),
    # a row without a radix rejects one instead of ignoring it
    _error("estimate_rejects_unused_radix", "estimate --n 32 --row ling --radix 5",
           "only higher_radix takes a radix, not 'ling'"),
    # a restoring row is its non-restoring row, rounded once, plus an
    # integer; rounded again from a float, this TD came out one low
    Pin("estimate_restoring_n41630", "estimate --n 41630 --row takahashi_combination "
        "--kind restoring", _costs(5210711231, 17330902040, 174662)),
    # past float range under real logs is an error line, not a traceback
    _error("float_overflow_is_an_error_line[argv0]", f"estimate --n {BIG} --row ling",
           OVERFLOW.format("ling")),
    _error("float_overflow_is_an_error_line[argv1]", f"estimate --n {BIG} --row draper_cla",
           OVERFLOW.format("draper_cla")),
    _error("float_overflow_is_an_error_line[argv2]", f"table --n {BIG}", OVERFLOW.format("ling")),
]


def _with_comment_in_crlf(data):
    header, rest = data.split(b"\n", 1)
    return (header + b"\n// edited by hand\n" + rest).replace(b"\n", b"\r\n")


def _without_line_98(data):
    lines = data.split(b"\n")
    return b"\n".join(lines[:97] + lines[98:])


# each input no build row writes: its bytes, or (source file, edit)
FILES = {
    "d4-edited.qasm": ("d4.qasm", _with_comment_in_crlf),
    "d3-bom.qasm": ("d3.qasm", lambda data: b"\xef\xbb\xbf" + data),
    "c4-mutant.qasm": ("c4.qasm", _without_line_98),
    "lone-cr.qasm": b"OPENQASM 3.0;\n// a\rb\nqubit[2] a;\ncx a[0], a[0];\n",
    "bad-gate.qasm": b"OPENQASM 3.0;\nqubit[1] a;\nh a[0];\n",
    # no quotient register, an empty sign, a restoring q[1] given 5 wires,
    # n=2 with d[2] for d[3], and an odd rq
    **{
        f"{name}.qasm": b"OPENQASM 3.0;\n" + registers
        for name, registers in (
            ("missing_q", b"qubit[4] rq;\nqubit[3] d;\nqubit[1] s;\n"),
            ("empty_s", b"qubit[4] rq;\nqubit[3] d;\nqubit[2] q;\nqubit[0] s;\n"),
            ("oversized_q", b"qubit[4] rq;\nqubit[3] d;\nqubit[1] z;\nqubit[5] q;\n"),
            ("short_d", b"qubit[4] rq;\nqubit[2] d;\nqubit[2] q;\nqubit[1] s;\n"),
            ("odd_rq", b"qubit[5] rq;\nqubit[3] d;\nqubit[2] q;\nqubit[1] s;\n"),
        )
    },
}


def _out(pin):
    args = pin.args.split()
    return args[args.index("--out") + 1] if "--out" in args else None


BUILDS = {_out(pin): pin for pin in PINS if _out(pin) and pin.status == 0}


def _input(name, root):
    """The path of ``name`` in ``root``, made first if a row or FILES can."""
    path = root / name
    if not path.exists():
        if name in BUILDS:
            _check(BUILDS[name], root)
        elif name in FILES:
            recipe = FILES[name]
            if not isinstance(recipe, bytes):
                source, edit = recipe
                recipe = edit(_input(source, root).read_bytes())
            path.write_bytes(recipe)
    return path


def _sha256(data, prefix):
    return hashlib.sha256(data).hexdigest()[: len(prefix)]


def _check(pin, root):
    args = pin.args.split()
    for i, flag in enumerate(args[:-1]):
        if flag == "--out":
            args[i + 1] = str(root / args[i + 1])
        elif flag == "--circuit":
            args[i + 1] = str(_input(args[i + 1], root))
    done = subprocess.run([sys.executable, "-m", "revdiv.cli", *args], capture_output=True)
    out, err = done.stdout.decode(), done.stderr.decode()
    assert done.returncode == pin.status, err
    if isinstance(pin.stdout, Sha256):
        assert _sha256(done.stdout, pin.stdout) == pin.stdout, out
    else:
        assert out == pin.stdout
    assert re.fullmatch(pin.stderr, err), err
    if pin.out_sha256:
        written = (root / _out(pin)).read_bytes()
        assert _sha256(written, pin.out_sha256) == pin.out_sha256


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pins")


def _test(pins):
    """One test of ``pins``: plain for one unbracketed id, else parametrized."""
    if len(pins) == 1 and "[" not in pins[0].id:
        return lambda pin_dir: _check(pins[0], pin_dir)

    @pytest.mark.parametrize("pin", pins, ids=[p.id.partition("[")[2][:-1] for p in pins])
    def test(pin_dir, pin):
        _check(pin, pin_dir)

    return test


_GROUPS = {}
for _pin in PINS:
    _GROUPS.setdefault(_pin.id.partition("[")[0], []).append(_pin)
for _name, _pins in _GROUPS.items():
    globals()[f"test_{_name}"] = _test(_pins)
__all__ = ["pin_dir", *(f"test_{name}" for name in _GROUPS)]
