import math
import random
from fractions import Fraction

import pytest

from revdiv.costs import (
    BASELINES,
    CEIL_REAL_LOG,
    ROUNDINGS,
    ROW_IDS,
    STRICT_FLOOR,
    comparison_table,
    evaluate_row,
    floor_log2,
    improvement_percent,
    omega,
    table_to_csv,
)
from revdiv.divider import KINDS, NON_RESTORING, RESTORING

from divider_costs import WIDTHS, built_costs, row_offsets


def test_omega_values():
    assert omega(0) == 0
    assert omega(7) == 3
    assert omega(32) == 1
    assert omega(2**20 - 1) == 20
    with pytest.raises(ValueError):
        omega(-1)
    with pytest.raises(ValueError, match="^omega is defined for integers n >= 0$"):
        omega(2.5)


def test_omega_matches_popcount_sample():
    for n in range(4096):
        assert omega(n) == bin(n).count("1")


def test_polynomial_rows():
    assert evaluate_row("cuccaro", 32) == (2177, 2177, 134)
    n = 32
    assert evaluate_row("vbe", n) == (
        4 * n * n + 5 * n + 1,
        4 * n * n + 5 * n + 1,
        5 * n + 6,
    )
    assert evaluate_row("takahashi_rca", n)[2] == 4 * n + 5
    assert evaluate_row("gidney_rca", n) == (
        n * n + 4 * n + 1,
        2 * n * n + 3 * n + 1,
        5 * n + 4,
    )
    assert evaluate_row("wang_rca", n) == evaluate_row("gayathri_rca", n)


def test_takahashi_rca_row_shares_the_built_cuccaro_toffolis():
    # the row's TD and TC are the built non-restoring Cuccaro divider's,
    # pinned as the cuccaro row is; only its QC differs
    for n in WIDTHS:
        assert evaluate_row("takahashi_rca", n)[:2] == built_costs(NON_RESTORING, "cuccaro", n)[:2]


# (TD, TC, QC) of the wang_rca and gayathri_rca rows, which share one formula
# and have no built circuit to be checked against
SHARED_RCA_ROW = {
    8: (97, 97, 46),
    16: (321, 321, 86),
    32: (1153, 1153, 166),
    64: (4353, 4353, 326),
    128: (16897, 16897, 646),
}


@pytest.mark.parametrize("rounding", ROUNDINGS)
@pytest.mark.parametrize("row", ["wang_rca", "gayathri_rca"])
def test_shared_rca_row_values(row, rounding):
    for n, want in SHARED_RCA_ROW.items():
        assert evaluate_row(row, n, rounding=rounding) == want


def test_published_32bit_values():
    assert evaluate_row("takahashi_combination", 32) == (3003, 7489, 152)
    assert evaluate_row("ling", 32) == (802, 12217, 416)
    assert evaluate_row("ling", 32, kind=RESTORING) == (3809, 15224, 415)
    assert evaluate_row("takahashi_combination", 32, kind=RESTORING) == (
        6010,
        10496,
        151,
    )


def test_strict_floor_mode_diverges_for_ling():
    assert evaluate_row("ling", 32, rounding=STRICT_FLOOR)[0] == 769
    assert evaluate_row("ling", 32) != evaluate_row("ling", 32, rounding=STRICT_FLOOR)
    # pure polynomial, no logs
    assert evaluate_row("cuccaro", 32) == evaluate_row("cuccaro", 32, rounding=STRICT_FLOOR)


def test_strict_floor_is_exact_past_float_precision():
    # n = 3 * 2^47 - 1: n/3 sits just below 2^47, which a float rounds up to
    n = 422212465065983
    td = evaluate_row("draper_cla", n, rounding=STRICT_FLOOR)[0]
    # L(n) = L(n+1) = 48, L(n/3) = 46, L((n+1)/3) = 47
    assert td == 11 * n + 48 * n + 48 * n + 46 * n + 47 * n + 1


def _exact_strict_floor(row, n, r=None):
    """Reference: one row's strict-floor (TC, QC) from integer logs and
    Fraction quotients, rounded up once."""
    lg = lambda v: v.bit_length() - 1  # floor log2 of a positive integer
    ones = lambda v: bin(v).count("1")
    if row == "higher_radix":
        w = ones(-(-(n + 1) // r))
        tc = (8 * n * n - Fraction(n * (n + 1), r) - (n * n) % r - 3 * n * w
              - 3 * n * lg(n + 1) + 3 * n * lg(r) + 8 * n + 1)
        qc = 6 * n - lg(n + 1) + Fraction(n + 1, r) - w + lg(r) + 5
    else:
        tc = 7 * n * n + 10 * n + 1
        qc = 4 * n + Fraction(3 * n + 3, lg(n + 1)) + 4
    return (math.ceil(tc), math.ceil(qc))


@pytest.mark.parametrize(
    "row, n, r",
    [("higher_radix", 200_000_001, 3), ("takahashi_combination", 2**60 + 5, None)],
)
def test_strict_floor_quotients_are_exact(row, n, r):
    # a float quotient of these sizes loses the low digits
    got = evaluate_row(row, n, radix=r, rounding=STRICT_FLOOR)
    assert got[1:] == _exact_strict_floor(row, n, r)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("row, r", [("ling", None), ("draper_cla", None), ("higher_radix", 3)])
def test_float_overflow_is_a_value_error(row, r, kind):
    n = 10**200
    message = f"{row} at n={n} overflows a float under {CEIL_REAL_LOG}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_row(row, n, radix=r, kind=kind)
    # strict-floor logs are integers, so the same width still answers
    got = evaluate_row(row, n, radix=r, kind=kind, rounding=STRICT_FLOOR)
    assert all(type(v) is int and v > 0 for v in got)
    if row == "higher_radix" and kind == NON_RESTORING:
        assert got[1:] == _exact_strict_floor(row, n, r)


def test_polynomial_rows_are_exact_past_float_range():
    n = 10**200
    k = 2 * n * n + 4 * n + 1
    for rounding in ROUNDINGS:
        assert evaluate_row("cuccaro", n, rounding=rounding) == (k, k, 4 * n + 6)


def _largest_k(v: Fraction) -> int:
    """Reference: the largest k with 2**k <= v, stepping k one at a time."""
    k = 0
    while 2 ** (k + 1) <= v:
        k += 1
    while Fraction(2) ** k > v:
        k -= 1
    return k


def test_floor_log2_matches_brute_force():
    values = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 3]
    for e in range(47, 64):
        for d in (-2, -1, 0, 1, 2):
            values += [2**e + d] + [Fraction(c * 2**e + d, c) for c in (2, 3, 6)]
    for v in values:
        assert floor_log2(v) == _largest_k(Fraction(v)), v


def test_row_errors():
    with pytest.raises(ValueError):
        evaluate_row("nope", 8)
    with pytest.raises(ValueError):
        evaluate_row("cuccaro", 0)
    with pytest.raises(ValueError):
        evaluate_row("cuccaro", 8, rounding="banker")
    with pytest.raises(ValueError):
        evaluate_row("higher_radix", 8)
    with pytest.raises(ValueError):
        evaluate_row("higher_radix", 8, radix=2)
    with pytest.raises(ValueError):
        evaluate_row("higher_radix", 8, radix=9)
    with pytest.raises(ValueError, match="only higher_radix takes a radix"):
        evaluate_row("ling", 32, radix=5)
    # a non-integer width or radix, not a wrong value or a TypeError; True
    # is an int, and would give the n = 1 row
    for row in ("vbe", "ling"):
        for n in (2.5, True):
            with pytest.raises(ValueError, match=f"^n must be an integer, not {n}$"):
                evaluate_row(row, n)
    with pytest.raises(ValueError, match="^higher_radix needs an integer radix"):
        evaluate_row("higher_radix", 8, radix=3.5)
    assert evaluate_row("higher_radix", 8, radix=3)


@pytest.mark.parametrize("adder", ["cuccaro", "vbe"])
@pytest.mark.parametrize("n", WIDTHS)
def test_row_matches_measured_composition(adder, n):
    # a row is the built divider's measured cost minus a named offset;
    # test_divider pins the built cost to the same polynomials
    for kind in KINDS:
        td_tc_qc = built_costs(kind, adder, n)[:3]
        want = tuple(b - o for b, o in zip(td_tc_qc, row_offsets(kind, adder, n)))
        assert evaluate_row(adder, n, kind=kind) == want


# The first widths (ceil-real-log, r = 3) where a restoring value rounded up
# from a float of its own came out one below its exact ceiling, taken from
# 70-digit Decimal logs: (row, n, r, index into (TD, TC, QC), exact value).
FIRST_RESTORING_MISSES = [
    ("takahashi_combination", 41_630, None, 0, 5_210_711_231),
    ("ling", 110_829, None, 0, 36_856_944_463),
    ("draper_cla", 134_628, None, 0, 54_384_055_548),
    ("higher_radix", 178_431, 3, 1, 339_589_537_775),
    ("takahashi_low_ancilla", 227_707, None, 0, 155_673_235_107),
]


def _check_restoring_delta(n, r):
    """Each restoring row is its non-restoring row plus (k, k, -1)."""
    k = 3 * n * n - 2 * n - 1
    for rid in ROW_IDS:
        radix = r if rid == "higher_radix" else None
        for rounding in ROUNDINGS:
            try:
                non = evaluate_row(rid, n, radix=radix, rounding=rounding)
            except ValueError as e:
                assert "overflows a float" in str(e)
                continue
            res = evaluate_row(rid, n, radix=radix, kind=RESTORING, rounding=rounding)
            assert res == (non[0] + k, non[1] + k, non[2] - 1), (rid, n, r, rounding)


@pytest.mark.parametrize(
    "n", [4, 8, 16, 32, *(n for _, n, _, _, _ in FIRST_RESTORING_MISSES), 1_960_610]
)
def test_restoring_deltas_all_rows(n):
    _check_restoring_delta(n, 3)


def test_restoring_deltas_on_sampled_widths():
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(3, 10**12)
        _check_restoring_delta(n, rng.choice([3, 4, rng.randrange(3, n + 1), n]))


@pytest.mark.parametrize("row, n, r, i, exact", FIRST_RESTORING_MISSES)
def test_restoring_row_is_exact_at_first_float_miss(row, n, r, i, exact):
    assert evaluate_row(row, n, radix=r, kind=RESTORING)[i] == exact
    # the non-restoring value it is derived from was already exact
    assert evaluate_row(row, n, radix=r)[i] == exact - (3 * n * n - 2 * n - 1)


def test_rows_positive_and_monotonic():
    for rid in ROW_IDS:
        prev = None
        for n in range(1, 65):
            if rid == "higher_radix":
                if n < 3:
                    continue
                v = evaluate_row(rid, n, radix=3)
            else:
                v = evaluate_row(rid, n)
            assert all(x > 0 for x in v), (rid, n)
            if prev is not None:
                assert all(a > b for a, b in zip(v, prev)), (rid, n)
            prev = v


def test_baseline_records():
    assert BASELINES == {
        "goldschmidt": (17850, 117187, 30008),
        "newton_raphson": (13506, 93376, 23996),
    }


def test_comparison_table_at_32():
    rows = {r["divider"]: r for r in comparison_table(32)}
    assert str(rows["non_restoring_ling"]["TD_impr"]) == "94.06"
    assert str(rows["non_restoring_takahashi_combination"]["TC_impr"]) == "91.98"
    assert str(rows["non_restoring_takahashi_combination"]["QC_impr"]) == "99.37"
    assert rows["restoring_takahashi_combination"]["TD"] == 6010
    assert rows["goldschmidt"]["TD_impr"] is None


def test_comparison_table_suppresses_percentages_off_baseline():
    rows = comparison_table(16)
    assert all(r["TD_impr"] is None for r in rows)
    assert all("goldschmidt" != r["divider"] for r in rows)


def test_csv_shape():
    text = table_to_csv(comparison_table(32))
    lines = text.strip().split("\n")
    assert lines[0] == "divider,TD,TC,QC,TD_impr,TC_impr,QC_impr"
    assert len(lines) == 7
    assert any(line.startswith("non_restoring_ling,802,12217,416,94.06") for line in lines)


def test_improvement_percent_rounds_half_up():
    assert str(improvement_percent(10000, 805)) == "91.95"
    assert str(improvement_percent(93376, 7489)) == "91.98"
    assert str(improvement_percent(23996, 152)) == "99.37"
