"""Command-line front end: build, estimate, verify, simulate, table."""
from __future__ import annotations

import argparse
import json
import sys

from . import costs, divider, qasm
from .adders import ADDERS
from .circuit import measure

KIND_FLAGS = {"nonrestoring": divider.NON_RESTORING, "restoring": divider.RESTORING}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def cmd_build(args) -> int:
    params = divider.make_params(args.n, args.adder, KIND_FLAGS[args.kind])
    circuit, _ = divider.build_divider(params)
    text = qasm.export_text(circuit)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    print(json.dumps(measure(circuit).as_dict()))
    return 0


def cmd_estimate(args) -> int:
    td, tc, qc = costs.evaluate_row(
        args.row,
        args.n,
        radix=args.radix,
        kind=KIND_FLAGS[args.kind],
        rounding=args.rounding,
    )
    print(
        json.dumps(
            {"toffoli_depth": td, "toffoli_count": tc, "qubit_count": qc}
        )
    )
    return 0


def cmd_verify(args) -> int:
    params = divider.make_params(args.n, args.adder, KIND_FLAGS[args.kind])
    report = divider.verify_exhaustive(params)
    print(f"{report.passed}/{report.total} pass")
    if not report.ok:
        print(f"first failure: {report.first_failure}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    try:
        # newline="" keeps the text as written, less a UTF-8 BOM, so import_text
        # alone decides where lines end and the line numbers match the library's
        with open(args.circuit, encoding="utf-8-sig", newline="") as f:
            text = f.read()
    except OSError as exc:
        return _fail(f"cannot read {args.circuit}: {exc}")
    circuit = qasm.import_text(text)
    layout = divider.layout_from_circuit(circuit)
    q, r = divider.run_division(circuit, layout, args.dividend, args.divisor)
    print(f"q={q} r={r}")
    return 0


def cmd_table(args) -> int:
    rows = costs.comparison_table(args.n, rounding=args.rounding)
    for row in rows:
        if row["strict_floor_disagrees"]:
            print(
                f"audit: {row['divider']}: {costs.CEIL_REAL_LOG} and "
                f"{costs.STRICT_FLOOR} readings disagree",
                file=sys.stderr,
            )
    if args.format == "csv":
        sys.stdout.write(costs.table_to_csv(rows))
    else:
        print(json.dumps(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revdiv",
        description="Synthesize, verify and cost reversible integer dividers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_n(sp):
        sp.add_argument("--n", type=int, required=True, help="operand width in bits")

    def add_adder(sp):
        sp.add_argument("--adder", choices=sorted(ADDERS), required=True)

    def add_kind(sp):
        sp.add_argument(
            "--kind", choices=sorted(KIND_FLAGS), default="nonrestoring"
        )

    def add_rounding(sp):
        sp.add_argument(
            "--rounding",
            choices=list(costs.ROUNDINGS),
            default=costs.CEIL_REAL_LOG,
        )

    sp = sub.add_parser("build", help="synthesize a divider and write it as QASM")
    add_n(sp)
    add_adder(sp)
    add_kind(sp)
    sp.add_argument("--out", required=True, help="output QASM path")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("estimate", help="closed-form resource estimate")
    add_n(sp)
    sp.add_argument("--row", choices=list(costs.ROW_IDS), required=True)
    sp.add_argument("--radix", type=int, default=None)
    add_kind(sp)
    add_rounding(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("verify", help="exhaustively simulate all divisions")
    add_n(sp)
    add_adder(sp)
    add_kind(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="run one division on a QASM circuit")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--dividend", type=int, required=True)
    sp.add_argument("--divisor", type=int, required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("table", help="comparison table with baselines")
    add_n(sp)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    add_rounding(sp)
    sp.set_defaults(func=cmd_table)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
