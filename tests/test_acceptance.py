"""End-to-end acceptance checks, one printed pass/fail line per criterion."""
import random
import time

from revdiv.adders import (
    build_cond_add,
    get_adder,
    wrap_add_sub,
    wrap_subtractor,
)
from revdiv.circuit import Circuit, measure
from revdiv.costs import (
    ROW_IDS,
    STRICT_FLOOR,
    comparison_table,
    evaluate_row,
    omega,
)
from revdiv.divider import (
    KINDS,
    NON_RESTORING,
    RESTORING,
    build_divider,
    make_params,
    verify_exhaustive,
)
from revdiv.qasm import export_text, import_text
from revdiv.sim import apply

ADDER_NAMES = ("cuccaro", "vbe")


def _report(num: int, label: str, ok: bool) -> bool:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_exhaustive_division():
    t0 = time.time()
    ok = True
    for kind in KINDS:
        for adder in ADDER_NAMES:
            for n in range(1, 6):
                rep = verify_exhaustive(make_params(n, adder, kind))
                ok = ok and rep.ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert _report(1, "exhaustive division n=1..5", ok)


def test_criterion_2_qubit_budget():
    ok = True
    for kind, base in ((NON_RESTORING, 2), (RESTORING, 1)):
        for adder in ADDER_NAMES:
            for n in range(1, 9):
                c, _ = build_divider(make_params(n, adder, kind))
                anc = len(c.registers.get("anc", ()))
                ok = ok and c.qubit_count == 4 * n + base + anc
                ok = ok and anc == (n if adder == "vbe" else 0)
    assert _report(2, "qubit budget 4n+2+anc / 4n+1+anc", ok)


def test_criterion_3_toffoli_composition():
    ok = True
    for adder in ADDER_NAMES:
        for n in range(1, 9):
            measured = measure(build_divider(make_params(n, adder, NON_RESTORING))[0])
            adder_tc = measure(get_adder(adder).build(n + 1).circuit).toffoli_count
            want_add_tc = (
                2 * (n + 1) - 1 if adder == "cuccaro" else 4 * (n + 1) - 2
            )
            ok = ok and adder_tc == want_add_tc
            # n adders plus a conditional adder of exactly 3n+1 Toffolis
            ok = ok and measured.toffoli_count == n * adder_tc + 3 * n + 1
            ok = ok and measured.toffoli_depth <= evaluate_row(adder, n)[0]
    assert _report(3, "Toffoli count composition and depth bound", ok)


def test_criterion_4_published_table():
    ok = evaluate_row("ling", 32) == (802, 12217, 416)
    ok = ok and evaluate_row("takahashi_combination", 32) == (3003, 7489, 152)
    ok = ok and evaluate_row("ling", 32, kind=RESTORING) == (3809, 15224, 415)
    ok = ok and evaluate_row("takahashi_combination", 32, kind=RESTORING) == (
        6010,
        10496,
        151,
    )
    rows = {r["divider"]: r for r in comparison_table(32)}
    ok = ok and str(rows["non_restoring_ling"]["TD_impr"]) == "94.06"
    ok = ok and str(rows["non_restoring_takahashi_combination"]["TC_impr"]) == "91.98"
    ok = ok and str(rows["non_restoring_takahashi_combination"]["QC_impr"]) == "99.37"
    # strict-floor disagreement is surfaced for the audited rows
    ok = ok and rows["non_restoring_ling"]["strict_floor_disagrees"]
    ok = ok and evaluate_row("ling", 32, rounding=STRICT_FLOOR)[0] == 769
    assert _report(4, "32-bit comparison table reproduction", ok)


def test_criterion_5_cross_model_consistency():
    ok = True
    for adder in ADDER_NAMES:
        for n in range(1, 17):
            c, _ = build_divider(make_params(n, adder, NON_RESTORING))
            ok = ok and evaluate_row(adder, n)[1] == measure(c).toffoli_count
    for n in (4, 8, 16, 32):
        for rid in ROW_IDS:
            r = 3 if rid == "higher_radix" else None
            non = evaluate_row(rid, n, radix=r)
            res = evaluate_row(rid, n, radix=r, kind=RESTORING)
            ok = ok and res[1] - non[1] == 3 * n * n + n - (3 * n + 1)
            ok = ok and res[2] - non[2] == -1
    assert _report(5, "closed forms vs measured composition", ok)


def test_criterion_6_omega_properties():
    t0 = time.time()
    ok = all(omega(n) == bin(n).count("1") for n in range(10**6 + 1))
    ok = ok and all(omega(2 * n) == omega(n) for n in range(10**5 + 1))
    ok = ok and all(omega(2 * n + 1) == omega(n) + 1 for n in range(10**5 + 1))
    ok = ok and time.time() - t0 < 5
    assert _report(6, "omega popcount and recurrences", ok)


def _random_fragment(rng: random.Random) -> Circuit:
    pick = rng.randrange(6)
    m = rng.randint(1, 6)
    adder = get_adder(rng.choice(ADDER_NAMES))
    if pick == 0:
        return adder.build(m).circuit
    if pick == 1:
        return wrap_subtractor(adder.build(m)).circuit
    if pick == 2:
        return wrap_add_sub(adder.build(m)).circuit
    if pick == 3:
        return build_cond_add(m).circuit
    n = rng.randint(1, 4)
    kind = NON_RESTORING if pick == 4 else RESTORING
    return build_divider(make_params(n, adder.name, kind))[0]


def test_criterion_7_simulator_soundness():
    rng = random.Random(20240821)
    ok = True
    for _ in range(1000):
        c = _random_fragment(rng)
        state = [rng.randrange(2) for _ in range(c.qubit_count)]
        mid = apply(c, state)
        it = iter(c.ops)
        backwards = [q for op in [*zip(it, it, it)][::-1] for q in op]
        inverse = Circuit(c.qubit_count, dict(c.registers), backwards)
        ok = ok and apply(inverse, mid) == state

    d = Circuit()
    d.new_register("w", 6)
    d.ccx(0, 1, 2)
    d.ccx(3, 4, 5)
    ok = ok and measure(d).toffoli_depth == 1
    d2 = Circuit()
    d2.new_register("w", 5)
    d2.ccx(0, 1, 2)
    d2.ccx(2, 3, 4)
    ok = ok and measure(d2).toffoli_depth == 2
    d3 = Circuit()
    d3.new_register("w", 2)
    d3.x(0)
    d3.cx(0, 1)
    ok = ok and measure(d3).toffoli_depth == 0
    assert _report(7, "reversal property and depth truths", ok)


def _random_circuit(rng: random.Random) -> Circuit:
    c = Circuit()
    width = rng.randint(1, 10)
    left, idx = width, 0
    while left:
        size = rng.randint(1, left)
        c.new_register(f"r{idx}", size)
        idx += 1
        left -= size
    for _ in range(rng.randint(0, 25)):
        arity = rng.randint(1, min(3, width))
        wires = rng.sample(range(width), arity)
        (c.x, c.cx, c.ccx)[arity - 1](*wires)
    return c


def test_criterion_8_round_trip():
    rng = random.Random(20240822)
    ok = True
    for _ in range(500):
        c = _random_circuit(rng)
        ok = ok and import_text(export_text(c)) == c
    for kind in KINDS:
        for adder in ADDER_NAMES:
            for n in range(1, 6):
                c, _ = build_divider(make_params(n, adder, kind))
                ok = ok and import_text(export_text(c)) == c
    assert _report(8, "QASM round-trip identity", ok)
