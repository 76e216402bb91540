"""Exact (TD, TC, QC, gate total) of every built divider, as polynomials in n,
and each one's difference from its closed-form row in ``revdiv.costs``.

``tests/test_divider.py`` checks builds against these polynomials and
``tests/test_costs.py`` checks the rows against them, so together they pin
every measured-vs-row difference to the named offsets below.
"""
from revdiv.divider import NON_RESTORING, RESTORING

# every width the polynomials are checked at
WIDTHS = [*range(1, 17), 32, 64, 128]

# (TD, TC, QC, gate total) of each kind x adder, for n >= 1 (restoring n >= 2)
POLYNOMIALS = {
    (NON_RESTORING, "cuccaro"): lambda n: (
        2 * n * n + 4 * n + 1, 2 * n * n + 4 * n + 1, 4 * n + 2, 8 * n * n + 15 * n + 3
    ),
    (NON_RESTORING, "vbe"): lambda n: (
        3 * n * n + 5 * n + 1, 4 * n * n + 5 * n + 1, 5 * n + 2, 10 * n * n + 15 * n + 3
    ),
    (RESTORING, "cuccaro"): lambda n: (
        5 * n * n + 2 * n, 5 * n * n + 2 * n, 4 * n + 1, 15 * n * n + 11 * n
    ),
    (RESTORING, "vbe"): lambda n: (
        6 * n * n + 3 * n, 7 * n * n + 3 * n, 5 * n + 1, 17 * n * n + 11 * n
    ),
}

# a restoring divider at n=1 takes the width-1 path, which folds its one
# subtraction into the known-zero window top
WIDTH1_RESTORING = {"cuccaro": (5, 5, 5, 14), "vbe": (5, 5, 6, 14)}

# Measured minus row.  Every difference not named here is 0.
ROW_QC_OFFSET = -4  # each built layout has four wires fewer than its row
WIDTH1_ROW_TOFFOLI_OFFSET = {"cuccaro": -2, "vbe": -5}  # TD and TC, restoring n=1


def vbe_row_td_offset(n: int) -> int:
    """TD of a built VBE divider, either kind, minus its row's: the row
    counts n^2 more Toffoli levels than the scheduled circuit has.

    The row takes the width-m adder's TD equal to its TC, 4m-2, where the
    built adder schedules into 3m-1 levels.  With m = n+1 that is m-1 = n
    extra levels in each of the n iterations, n^2 in all."""
    return -n * n


def built_costs(kind: str, adder: str, n: int) -> tuple[int, int, int, int]:
    """(TD, TC, QC, gate total) that ``measure`` gives for the built divider."""
    if kind == RESTORING and n == 1:
        return WIDTH1_RESTORING[adder]
    return POLYNOMIALS[kind, adder](n)


def row_offsets(kind: str, adder: str, n: int) -> tuple[int, int, int]:
    """Measured minus row (TD, TC, QC) of the built divider."""
    if kind == RESTORING and n == 1:
        t = WIDTH1_ROW_TOFFOLI_OFFSET[adder]
        return (t, t, ROW_QC_OFFSET)
    return (vbe_row_td_offset(n) if adder == "vbe" else 0, 0, ROW_QC_OFFSET)
