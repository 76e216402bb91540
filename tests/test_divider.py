import dataclasses
import hashlib

import pytest

from revdiv import divider
from revdiv.adders import AdderBuilder, AdderFragment, get_adder
from revdiv.circuit import Circuit, Template, measure
from revdiv.divider import (
    KINDS,
    NON_RESTORING,
    RESTORING,
    DividerParams,
    build_divider,
    expected_final_state,
    layout_from_circuit,
    make_params,
    run_division,
    verify_exhaustive,
)
from revdiv.qasm import export_text, import_text
from revdiv.sim import apply, decode_register, encode_register

from divider_costs import WIDTHS, built_costs

ADDER_NAMES = ("cuccaro", "vbe")


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(0, "cuccaro", NON_RESTORING)
    with pytest.raises(ValueError):
        make_params(3, "cuccaro", "fancy")
    with pytest.raises(ValueError):
        make_params(3, "nope", NON_RESTORING)
    # checked before the build, which would fail inside on a float
    with pytest.raises(ValueError, match="^n must be an integer, not 2.5$"):
        make_params(2.5, "vbe", RESTORING)
    # a bool is an int, and True would build the n = 1 divider
    with pytest.raises(ValueError, match="^n must be an integer, not True$"):
        make_params(True, "cuccaro", NON_RESTORING)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_division_exhaustive(kind, adder, n):
    report = verify_exhaustive(make_params(n, adder, kind))
    assert report.ok, report.first_failure
    assert report.total == (1 << n) * ((1 << n) - 1)


@pytest.mark.parametrize("kind", KINDS)
def test_run_division_input_validation(kind):
    c, layout = build_divider(make_params(3, "cuccaro", kind))
    with pytest.raises(ZeroDivisionError):
        run_division(c, layout, 3, 0)
    with pytest.raises(ValueError):
        run_division(c, layout, 8, 1)
    with pytest.raises(ValueError):
        run_division(c, layout, 3, 8)


def _on_reversed_wires(builder: AdderBuilder) -> AdderBuilder:
    """``builder`` re-laid so fragment wire k moves to wire count-1-k, each
    role following its wires."""
    def build(m: int) -> AdderFragment:
        frag = builder.build(m)
        rev = list(range(frag.circuit.qubit_count))[::-1]
        c = Circuit()
        c.new_register("w", len(rev))
        c.extend(Template.of(frag.circuit), rev)
        cout = None if frag.carry_out is None else rev[frag.carry_out]
        return AdderFragment(
            c, tuple(rev[q] for q in frag.a), tuple(rev[q] for q in frag.b),
            rev[frag.carry_in], cout, tuple(rev[q] for q in frag.ancillas),
        )

    return AdderBuilder(f"reversed-{builder.name}", build)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_adder_on_reversed_wires(kind, adder, n):
    """The divider places its sub-circuits by role, so an adder whose roles
    are not in wire order builds the same divider."""
    plain = DividerParams(n, get_adder(adder), kind)
    reversed_ = DividerParams(n, _on_reversed_wires(get_adder(adder)), kind)
    assert export_text(build_divider(reversed_)[0]) == export_text(build_divider(plain)[0])
    report = verify_exhaustive(reversed_)
    assert report.ok, report.first_failure


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_divider_builds_its_adder_once(kind, adder, n):
    """Both wrappers of a divider wrap the one adder fragment it builds."""
    plain = get_adder(adder)
    widths = []
    counting = AdderBuilder(adder, lambda m: widths.append(m) or plain.build(m))
    circuit, _ = build_divider(DividerParams(n, counting, kind))
    assert widths == [n + 1]
    assert export_text(circuit) == export_text(build_divider(DividerParams(n, plain, kind))[0])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_qubit_budget(kind, adder, n):
    c, _ = build_divider(make_params(n, adder, kind))
    base = 2 if kind == NON_RESTORING else 1
    anc = len(c.registers.get("anc", ()))
    assert c.qubit_count == 4 * n + base + anc


def _measured(kind, adder, n):
    r = measure(build_divider(make_params(n, adder, kind))[0])
    return (r.toffoli_depth, r.toffoli_count, r.qubit_count, r.gate_total)


# Each divider is n adders plus conditional adders, and its measured cost is
# the exact polynomial of tests/divider_costs.py; test_costs checks each
# closed-form row against the same polynomials.
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", WIDTHS)
def test_nonrestoring_toffoli_composition(adder, n):
    assert _measured(NON_RESTORING, adder, n) == built_costs(NON_RESTORING, adder, n)


@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", WIDTHS)
def test_restoring_toffoli_composition(adder, n):
    assert _measured(RESTORING, adder, n) == built_costs(RESTORING, adder, n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kinds_and_adders_agree(kind, n):
    results = []
    for adder in ADDER_NAMES:
        c, layout = build_divider(make_params(n, adder, kind))
        results.append(
            [
                run_division(c, layout, a, b)
                for b in range(1, 1 << n)
                for a in range(1 << n)
            ]
        )
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_terminal_state_fully_predicted(kind, adder, n):
    c, layout = build_divider(make_params(n, adder, kind))
    for b in range(1, 1 << n):
        for a in range(1 << n):
            state = [0] * c.qubit_count
            encode_register(layout.dividend_qubits, a, state)
            encode_register(layout.divisor_qubits, b, state)
            assert apply(c, state) == expected_final_state(c, layout, a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [*range(1, 17), 32])
def test_layout_survives_qasm_round_trip(kind, n):
    for adder in ADDER_NAMES:
        c, layout = build_divider(make_params(n, adder, kind))
        c2 = import_text(export_text(c))
        assert c2 == c
        # import stores unchecked; the constructor checks every triple it stored
        assert Circuit(c2.qubit_count, c2.registers, c2.ops) == c2
        layout2 = layout_from_circuit(c2)
        assert layout2 == layout
        q, r = run_division(c2, layout2, (1 << n) - 1, (1 << n) - 1)
        assert (q, r) == (1, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_remainder_positions_alias_the_dividend_wires(kind):
    c, layout = build_divider(make_params(3, "cuccaro", kind))
    rq = c.registers["rq"]
    assert layout.remainder_positions is layout.dividend_qubits
    assert layout.remainder_positions == list(rq[:3])
    assert "remainder_positions" not in {f.name for f in dataclasses.fields(layout)}
    with pytest.raises(AttributeError):
        layout.remainder_positions = []


def test_build_is_deterministic():
    a = export_text(build_divider(make_params(4, "cuccaro", NON_RESTORING))[0])
    b = export_text(build_divider(make_params(4, "cuccaro", NON_RESTORING))[0])
    assert a == b


# First 16 hex digits of the SHA-256 of each build's exported QASM.  Any
# change to a builder's gates, their order or the register layout moves one.
# Those at n = 4, 7, 32, 64 and 128 are perfbench's SEED_BUILDS digests.
QASM_SHA256 = {
    (NON_RESTORING, "cuccaro", 1): "f85bba4c661f17e9",
    (NON_RESTORING, "cuccaro", 2): "aca6a2b2aa87199a",
    (NON_RESTORING, "cuccaro", 3): "d83aab2f45d69224",
    (NON_RESTORING, "cuccaro", 4): "a5846d15d0a59e2f",
    (NON_RESTORING, "cuccaro", 5): "60e145e1b8425180",
    (NON_RESTORING, "cuccaro", 6): "821df7c180d96600",
    (NON_RESTORING, "cuccaro", 7): "d5948879bd5f1305",
    (NON_RESTORING, "cuccaro", 8): "238e5c93f57cf49d",
    (NON_RESTORING, "cuccaro", 32): "9dffb97a81175829",
    (NON_RESTORING, "cuccaro", 64): "44087c338c3db619",
    (NON_RESTORING, "cuccaro", 128): "2a899ed7432c36d2",
    (NON_RESTORING, "vbe", 1): "35ae10e9fb8ea84f",
    (NON_RESTORING, "vbe", 2): "75fb106ce54b0a17",
    (NON_RESTORING, "vbe", 3): "20b76c0e14bdf6e8",
    (NON_RESTORING, "vbe", 4): "3f056e87975320ef",
    (NON_RESTORING, "vbe", 5): "c7570147469704e1",
    (NON_RESTORING, "vbe", 6): "50024ff1d83e30f1",
    (NON_RESTORING, "vbe", 7): "84c53109e53af410",
    (NON_RESTORING, "vbe", 8): "fb41eb0e0d98b851",
    (NON_RESTORING, "vbe", 32): "e493a7e579df4ae7",
    (NON_RESTORING, "vbe", 64): "e952fdbd97d0971e",
    (NON_RESTORING, "vbe", 128): "3b9b2a9469e4203f",
    (RESTORING, "cuccaro", 1): "bfca12c9dc461f79",
    (RESTORING, "cuccaro", 2): "eeb0d5c46223bbf9",
    (RESTORING, "cuccaro", 3): "77ebeb6257f7dbaf",
    (RESTORING, "cuccaro", 4): "3ef584884c8944b3",
    (RESTORING, "cuccaro", 5): "7518bbd39f77043c",
    (RESTORING, "cuccaro", 6): "723611609e48a6fa",
    (RESTORING, "cuccaro", 7): "1d4864fb6aa9f132",
    (RESTORING, "cuccaro", 8): "cc020276834a4d56",
    (RESTORING, "cuccaro", 32): "24e80890b1d1e235",
    (RESTORING, "cuccaro", 64): "9ebe0fb4db0665f7",
    (RESTORING, "cuccaro", 128): "7137773c15588be2",
    (RESTORING, "vbe", 1): "b3198f618686377f",
    (RESTORING, "vbe", 2): "6d9e3bffae1fe671",
    (RESTORING, "vbe", 3): "7300ce9446ec623a",
    (RESTORING, "vbe", 4): "7b39a5e31437e164",
    (RESTORING, "vbe", 5): "3f7b2f5f5f2d231a",
    (RESTORING, "vbe", 6): "b1a1a28b6b52ef57",
    (RESTORING, "vbe", 7): "6882abd2fa3415f4",
    (RESTORING, "vbe", 8): "0951ddb1bd2b8cf5",
    (RESTORING, "vbe", 32): "d73bf2998640b968",
    (RESTORING, "vbe", 64): "2abcadbdfd7f4016",
    (RESTORING, "vbe", 128): "a4eda0d4a0230472",
}


@pytest.mark.parametrize("kind, adder, n", sorted(QASM_SHA256))
def test_export_is_pinned(kind, adder, n):
    circuit = build_divider(make_params(n, adder, kind))[0]
    text = export_text(circuit)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest[:16] == QASM_SHA256[kind, adder, n]
    # the texts from n=32 up span several of import's pieces
    assert import_text(text) == circuit


@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_circuit_is_caught(kind):
    # the exhaustive check must notice a single dropped gate
    params = make_params(2, "cuccaro", kind)
    c, layout = build_divider(params)
    del c.gates[len(c.gates) // 2]
    bad = 0
    for b in range(1, 4):
        for a in range(4):
            state = [0] * c.qubit_count
            encode_register(layout.dividend_qubits, a, state)
            encode_register(layout.divisor_qubits, b, state)
            out = apply(c, state)
            if out != expected_final_state(c, layout, a, b):
                bad += 1
    assert bad > 0


def _drop_first_toffoli(gates):
    del gates[next(i for i, g in enumerate(gates) if g.name == "ccx")]


def _drop_middle_gate(gates):
    del gates[len(gates) // 2]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
def test_a_toffoli_deleted_through_the_view_is_seen(kind, adder):
    # the benchmark's fault injector: the first gate named "ccx" in c.gates,
    # deleted from the view, must reach the store that every reader walks
    n = 4
    c, layout = build_divider(make_params(n, adder, kind))
    report, text = measure(c), export_text(c)
    index = [divider._index_plane(j, 2 * n) >> (1 << n) for j in range(2 * n)]
    ones = (1 << (((1 << n) - 1) << n)) - 1
    check = lambda: divider._check_divisions(c, layout, index[:n], index[n:], ones)[1]
    assert check().ok
    _drop_first_toffoli(c.gates)
    assert len(c.ops) == 3 * (report.gate_total - 1)
    assert measure(c).toffoli_count == report.toffoli_count - 1
    assert export_text(c) != text
    assert not check().ok


def _verify_lane_by_lane(c, layout):
    """Reference sweep: one simulation per division, in lane order.

    Returns each lane's (a, b, failure message or None)."""
    n = layout.n
    lanes = []
    for b in range(1, 1 << n):
        for a in range(1 << n):
            state = [0] * c.qubit_count
            encode_register(layout.dividend_qubits, a, state)
            encode_register(layout.divisor_qubits, b, state)
            out = apply(c, state)
            q = decode_register(out, layout.quotient_positions)
            r = decode_register(out, layout.remainder_positions)
            msg = None
            if (q, r) != divmod(a, b):
                msg = f"a={a} b={b}: got q={q} r={r}, want q={a // b} r={a % b}"
            elif out != expected_final_state(c, layout, a, b):
                msg = f"a={a} b={b}: terminal state mismatch"
            lanes.append((a, b, msg))
    return lanes


@pytest.mark.parametrize("fault", [_drop_first_toffoli, _drop_middle_gate])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("adder", ADDER_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sliced_verification_matches_lane_by_lane(monkeypatch, fault, kind, adder, n):
    def faulty_build(params):
        c, layout = build_divider(params)
        fault(c.gates)
        return c, layout

    monkeypatch.setattr(divider, "build_divider", faulty_build)
    report = verify_exhaustive(make_params(n, adder, kind))
    c, layout = faulty_build(make_params(n, adder, kind))
    lanes = _verify_lane_by_lane(c, layout)
    failures = [msg for _, _, msg in lanes if msg]
    assert failures
    assert (report.total, report.passed, report.first_failure) == (
        len(lanes), len(lanes) - len(failures), failures[0]
    )
    # run_division is the one-lane case of the same check
    for a, b, msg in lanes:
        if msg is None:
            assert run_division(c, layout, a, b) == divmod(a, b)
            continue
        with pytest.raises(ValueError) as exc:
            run_division(c, layout, a, b)
        assert str(exc.value) == msg


def _line98_mutant():
    """The n=4 non-restoring Cuccaro export without its line 98 Toffoli."""
    c, _ = build_divider(make_params(4, "cuccaro", NON_RESTORING))
    lines = export_text(c).split("\n")
    assert lines[97] == "ccx d[0], rq[2], d[1];"
    mutant = import_text("\n".join(lines[:97] + lines[98:]))
    return mutant, layout_from_circuit(mutant)


def test_run_division_raises_where_the_state_is_wrong():
    c, layout = _line98_mutant()
    wrong = 0
    for a in range(16):
        for b in range(1, 16):
            state = [0] * c.qubit_count
            encode_register(layout.dividend_qubits, a, state)
            encode_register(layout.divisor_qubits, b, state)
            if apply(c, state) == expected_final_state(c, layout, a, b):
                assert run_division(c, layout, a, b) == divmod(a, b)
                continue
            wrong += 1
            with pytest.raises(ValueError, match=f"^a={a} b={b}: "):
                run_division(c, layout, a, b)
    assert wrong == 66
    with pytest.raises(ValueError) as exc:
        run_division(c, layout, 0, 2)
    assert str(exc.value) == "a=0 b=2: got q=6 r=2, want q=0 r=0"


def test_run_division_names_a_wrong_terminal_state():
    # a stray NOT on an ancilla leaves q and r right but the state wrong
    c, layout = build_divider(make_params(3, "vbe", RESTORING))
    c.x(c.registers["anc"][0])
    with pytest.raises(ValueError) as exc:
        run_division(c, layout, 7, 3)
    assert str(exc.value) == "a=7 b=3: terminal state mismatch"
