"""Closed-form divider resource estimates over eleven adder cost rows.

Each row gives the non-restoring divider's Toffoli depth, Toffoli count
and qubit count as functions of the operand width n (plus a radix r for
the higher-radix row).  A restoring row is the rounded non-restoring row
with the integer 3n^2 - 2n - 1 added to its Toffoli depth and count and one
wire taken off, so it is exact wherever that row is.

Two log conventions are supported.  The default evaluates base-2 logs as
reals and rounds each final value up; the alternative floors every log
term first.  The two disagree for some rows, so reports can carry both.
"""
from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .divider import NON_RESTORING, RESTORING, check_width_and_kind

CEIL_REAL_LOG = "ceil-real-log"
STRICT_FLOOR = "strict-floor"
ROUNDINGS = (CEIL_REAL_LOG, STRICT_FLOOR)

# (name, TD, TC, QC) at n = 32 for existing 32-qubit divider designs.
BASELINES = {
    "goldschmidt": (17850, 117187, 30008),
    "newton_raphson": (13506, 93376, 23996),
}
BASELINE_N = 32
REFERENCE_BASELINE = "newton_raphson"


def omega(n: int) -> int:
    """Number of ones in binary n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("omega is defined for integers n >= 0")
    return n.bit_count()


def floor_log2(v: int | Fraction) -> int:
    """The largest k with 2**k <= v, exactly, for a positive rational v."""
    v = Fraction(v)
    p, q = v.numerator, v.denominator
    k = p.bit_length() - q.bit_length()
    if p << max(-k, 0) < q << max(k, 0):
        k -= 1
    return k


def _row_values(row_id: str, n: int, r: int | None, strict: bool):
    """Real-valued (TD, TC, QC) for the non-restoring divider of one row.

    Quotients are Fractions: over strict-floor's integer logs a value stays
    exact, and over real logs it becomes a float that `_ceil` guards.
    """

    def L(v):
        return floor_log2(v) if strict else math.log2(v)

    def W(v):
        return omega(math.ceil(v))

    if row_id == "vbe":
        k = 4 * n * n + 5 * n + 1
        return (k, k, 5 * n + 6)
    if row_id == "cuccaro":
        k = 2 * n * n + 4 * n + 1
        return (k, k, 4 * n + 6)
    if row_id == "takahashi_rca":
        k = 2 * n * n + 4 * n + 1
        return (k, k, 4 * n + 5)
    if row_id == "wang_rca" or row_id == "gayathri_rca":
        k = n * n + 4 * n + 1
        return (k, k, 5 * n + 6)
    if row_id == "gidney_rca":
        return (n * n + 4 * n + 1, 2 * n * n + 3 * n + 1, 5 * n + 4)
    if row_id == "draper_cla":
        td = (
            11 * n
            + n * L(n)
            + n * L(n + 1)
            + n * L(Fraction(n, 3))
            + n * L(Fraction(n + 1, 3))
            + 1
        )
        tc = (
            10 * n * n
            - 3 * n * W(n)
            - 3 * n * W(n + 1)
            - 3 * n * L(n)
            - 3 * n * L(n + 1)
            + 6 * n
            + 1
        )
        qc = 6 * n - W(n + 1) - L(n + 1) + 6
        return (td, tc, qc)
    if row_id == "takahashi_low_ancilla":
        td = 30 * n * L(n + 1) + 3 * n + 1
        tc = 28 * n * n + 31 * n + 1
        qc = 4 * n + Fraction(3 * n + 3) / L(n + 1) + 4
        return (td, tc, qc)
    if row_id == "takahashi_combination":
        td = 18 * n * L(n + 1) + 3 * n + 1
        tc = 7 * n * n + 10 * n + 1
        qc = 4 * n + Fraction(3 * n + 3) / L(n + 1) + 4
        return (td, tc, qc)
    if row_id == "higher_radix":
        if not isinstance(r, int) or not 2 < r <= n:
            raise ValueError("higher_radix needs an integer radix r with 2 < r <= n")
        td = (
            4 * n * L(n + 1)
            + 3 * r * n
            - 2 * n * L(r)
            - 2 * n * L(3 * r)
            + 2 * n * L(r - 2)
            + 5 * n
            + 1
        )
        tc = (
            8 * n * n
            - Fraction(n * (n + 1), r)
            - (n * n) % r
            - 3 * n * W(Fraction(n + 1, r))
            - 3 * n * L(n + 1)
            + 3 * n * L(r)
            + 8 * n
            + 1
        )
        qc = 6 * n - L(n + 1) + Fraction(n + 1, r) - W(Fraction(n + 1, r)) + L(r) + 5
        return (td, tc, qc)
    if row_id == "ling":
        td = 12 * n + 2 * n * L(Fraction(n + 1, 2)) + 2 * n * L(Fraction(n + 1, 6)) + 1
        tc = (
            13 * n * n
            - 6 * n * W(Fraction(n + 1, 2))
            - 6 * n * L(Fraction(n + 1, 2))
            + 2 * n
            + 1
        )
        qc = 14 * n - 6 * W(Fraction(n + 1, 2)) - 6 * L(Fraction(n + 1, 2)) + 4
        return (td, tc, qc)
    raise ValueError(f"unknown row id {row_id!r}")


ROW_IDS = (
    "vbe",
    "cuccaro",
    "draper_cla",
    "takahashi_low_ancilla",
    "takahashi_rca",
    "takahashi_combination",
    "wang_rca",
    "gidney_rca",
    "gayathri_rca",
    "higher_radix",
    "ling",
)


def _ceil(v) -> int:
    # a float may carry dust just below an integer; a Fraction is exact
    return math.ceil(round(v, 9) if isinstance(v, float) else v)


def evaluate_row(
    row_id: str,
    n: int,
    radix: int | None = None,
    kind: str = NON_RESTORING,
    rounding: str = CEIL_REAL_LOG,
) -> tuple[int, int, int]:
    """Integer (TD, TC, QC) of one row's divider at width n."""
    check_width_and_kind(n, kind)
    if rounding not in ROUNDINGS:
        raise ValueError(f"rounding must be one of {ROUNDINGS}")
    if radix is not None and row_id != "higher_radix":
        raise ValueError(f"only higher_radix takes a radix, not {row_id!r}")
    try:
        td, tc, qc = map(_ceil, _row_values(row_id, n, radix, rounding == STRICT_FLOOR))
    except OverflowError:
        raise ValueError(f"{row_id} at n={n} overflows a float under {rounding}") from None
    if kind == NON_RESTORING:
        return (td, tc, qc)
    # a restoring divider has a conditional adder per iteration (3n^2+n
    # Toffolis), not one (3n+1), and 4n+1 fixed wires, not 4n+2
    k = 3 * n * n - 2 * n - 1
    return (td + k, tc + k, qc - 1)


def improvement_percent(baseline: int, value: int) -> Decimal:
    """100*(baseline - value)/baseline to two decimals, half up."""
    frac = Decimal(100) * (Decimal(baseline) - Decimal(value)) / Decimal(baseline)
    return frac.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


# the columns of a comparison-table line, in printed order
COLUMNS = (
    "divider", "TD", "TC", "QC", "TD_impr", "TC_impr", "QC_impr", "strict_floor_disagrees"
)


# the proposed-divider lines of the comparison table
PROPOSED = (
    (NON_RESTORING, "takahashi_combination"),
    (NON_RESTORING, "ling"),
    (RESTORING, "takahashi_combination"),
    (RESTORING, "ling"),
)


def comparison_table(n: int, rounding: str = CEIL_REAL_LOG) -> list[dict]:
    """Baselines plus the four proposed divider lines, each a dict over
    COLUMNS as ``revdiv table`` prints it.  Improvement columns are relative
    to the Newton-Raphson record and exist only for proposed lines at n = 32."""
    ref = BASELINES[REFERENCE_BASELINE] if n == BASELINE_N else None
    lines = []
    if ref:
        for name, values in BASELINES.items():
            lines.append((name, *values, None, None, None, False))
    other = STRICT_FLOOR if rounding == CEIL_REAL_LOG else CEIL_REAL_LOG
    for kind, rid in PROPOSED:
        values = evaluate_row(rid, n, kind=kind, rounding=rounding)
        try:
            disagrees = values != evaluate_row(rid, n, kind=kind, rounding=other)
        except ValueError:  # the other reading overflows a float
            disagrees = True
        impr = [None] * 3
        if ref:
            impr = [str(improvement_percent(b, v)) for b, v in zip(ref, values)]
        lines.append((f"{kind}_{rid}", *values, *impr, disagrees))
    return [dict(zip(COLUMNS, line)) for line in lines]


def table_to_csv(rows: list[dict]) -> str:
    """The rows as CSV: every column but the audit flag, which the ``table``
    command reports on stderr."""
    columns = COLUMNS[:-1]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
