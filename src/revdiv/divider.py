"""Synthesis of non-restoring and restoring integer dividers.

The divider works on a combined remainder/dividend array of 2n wires.  The
left shift of the pair is never executed: iteration i simply addresses the
(n+1)-wire window ``rq[n-i .. 2n-i]``, so each arithmetic sub-circuit is
offset one position from the previous one.  The first iteration is a plain
subtractor (the partial remainder starts at zero), the next n-1 are
controlled adder-subtractors whose control-and-carry-in is the previous
quotient bit, and the non-restoring variant ends with one conditional
adder that fixes a negative remainder.

Each iteration's carry-out lands on a fresh wire and is itself the
iteration's quotient bit (the complement of the new sign), which then
drives the next iteration.  Two wires are recycled to meet the closed-form
qubit budgets: the first subtractor's carry-in wire (back to 0 afterwards)
hosts a later carry-out, and in the restoring variant the top of window 1
(guaranteed 0 once the remainder is restored) hosts iteration 2's
carry-out.

One table, :func:`register_sizes`, gives every register's size, and one
check tests each lane of dividend and divisor planes: q*b + r = a with
r < b, and every wire against the classical trace.  It runs on every lane
at once in :func:`verify_exhaustive` and on one in :func:`run_division`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .adders import AdderBuilder, build_cond_add, get_adder, wrap_add_sub, wrap_subtractor
from .circuit import Circuit
from .circuit import measure  # noqa: F401  (traced benchmark runs patch divider.measure)
# KINDS is unused here, but benchmark workloads read divider.KINDS
from .costs import KINDS, NON_RESTORING, RESTORING, check_width_and_kind  # noqa: F401
from .sim import apply  # noqa: F401  (traced benchmark runs patch divider.apply)
from .sim import apply_planes, decode_register, encode_register

# The widest unchunked sweep measured: at n = 12 (2^24 lanes) it takes 2.4-4.4 s and
# 0.30-0.34 GB peak RSS per divider (Python 3.11, 2 vCPUs); memory grows ~4x per bit.
EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class DividerParams:
    n: int
    adder: AdderBuilder
    kind: str = NON_RESTORING

    def __post_init__(self):
        check_width_and_kind(self.n, self.kind)


@dataclass
class DividerLayout:
    """Wire roles of a built divider circuit, derived from its registers."""

    n: int
    kind: str
    dividend_qubits: list[int]
    divisor_qubits: list[int]
    iteration_windows: list[list[int]]  # window of iteration i at index i-1
    quotient_positions: list[int]  # LSB first
    restore_control: int | None  # conditional-adder control (non-restoring)
    remainder_positions = property(lambda self: self.dividend_qubits)  # the remainder ends there


def register_sizes(kind: str, n: int) -> tuple[tuple[str, int], ...]:
    """Each divider register's (name, size) in wire order, ancillas aside.

    The non-restoring control s follows the quotient register, the
    restoring carry-in z precedes it, and a restoring quotient register
    holds n-1 wires because iteration 2's carry-out recycles the top of
    window 1.
    """
    if kind == NON_RESTORING:
        return (("rq", 2 * n), ("d", n + 1), ("q", n), ("s", 1))
    return (("rq", 2 * n), ("d", n + 1), ("z", 1), ("q", n - 1))


def layout_from_circuit(circuit: Circuit) -> DividerLayout:
    """Wire roles of a divider circuit, from its register names and sizes.

    This is the one source of every layout: :func:`build_divider` calls it
    on its registers before placing a gate and takes every window and
    carry-out wire from it, and it reads an imported circuit the same way."""
    regs = circuit.registers
    if "s" in regs:
        kind = NON_RESTORING
    elif "z" in regs:
        kind = RESTORING
    else:
        raise ValueError("not a divider circuit: missing s/z register")
    rq = regs.get("rq", ())
    n = max(len(rq) // 2, 1)
    for name, size in register_sizes(kind, n):
        found = len(regs.get(name, ()))
        if found != size:
            raise ValueError(
                f"not a divider circuit: n={n} needs {size} wire(s) in "
                f"register {name!r}, found {found}"
            )

    q = regs.get("q", ())
    if kind == NON_RESTORING:
        quotient = list(q)
    elif n == 1:
        quotient = [regs["z"][0]]
    else:
        # iteration 2's carry-out recycles the top of window 1
        quotient = [*q[:-1], rq[-1], q[-1]]

    return DividerLayout(
        n=n,
        kind=kind,
        dividend_qubits=list(rq[:n]),
        divisor_qubits=list(regs["d"][:n]),
        iteration_windows=[list(rq[n - i : 2 * n - i + 1]) for i in range(1, n + 1)],
        quotient_positions=quotient,
        restore_control=regs["s"][0] if kind == NON_RESTORING else None,
    )


def build_divider(params: DividerParams) -> tuple[Circuit, DividerLayout]:
    """The divider circuit and its layout; iteration i works on window i and
    writes its carry-out, the quotient bit, to wire ``quotient_positions[n-i]``."""
    n, adder, kind = params.n, params.adder, params.kind
    m = n + 1
    frag = adder.build(m)  # the one adder build; both wrappers copy it
    sub = wrap_subtractor(frag)
    c = Circuit()
    for name, size in (*register_sizes(kind, n), ("anc", len(frag.ancillas))):
        if size:
            c.new_register(name, size)
    d = c.registers["d"]
    anc = c.registers.get("anc", ())
    layout = layout_from_circuit(c)
    windows = layout.iteration_windows
    couts = layout.quotient_positions[::-1]  # carry-out of iteration i at i-1
    cond = build_cond_add(m)

    if kind == NON_RESTORING:
        # Step 1: plain subtractor.  Its carry-in wire comes back to 0 and is
        # recycled: for n >= 2 it is iteration 2's carry-out slot, for n = 1
        # the conditional-adder control.
        s = layout.restore_control
        sub.place(c, d, windows[0], couts[1] if n >= 2 else s, couts[0], anc)
        # Step 2: controlled adder-subtractors; the previous quotient bit is
        # both control and carry-in.
        addsub = wrap_add_sub(frag)
        for i in range(1, n):
            addsub.place(c, d, windows[i], couts[i - 1], couts[i], anc)
        # Step 3: copy the final sign onto the control wire and conditionally
        # add the divisor back.
        c.cx(couts[-1], s)
        c.x(s)
        cond.place(c, d, windows[-1], s)
    else:
        z = c.registers["z"][0]
        for w, cw in zip(windows, couts):
            if n == 1:
                _restoring_sign_width1(c, d, w, cw)
            else:
                sub.place(c, d, w, z, cw, anc)
                c.x(cw)  # carry-out -> sign
            cond.place(c, d, w, cw)
            c.x(cw)  # sign -> quotient bit
    return c, layout


def _restoring_sign_width1(c: Circuit, d, w: list[int], z: int) -> None:
    """The sign of w - d at n=1, on ``z``, inside the 4n+1 wire budget.

    The only subtraction starts from a window whose top wire is a known 0,
    so b-a is computed as ~(~b + a) with the ripple carry folded into that
    top wire; the single carry wire then serves as the conditional-adder
    control and ends up holding the quotient bit.  The adder's ancillas at
    width 2 are still reserved so the qubit budget matches the closed form.
    """
    c.x(w[0])
    c.x(w[1])
    c.ccx(d[0], w[0], w[1])
    c.cx(d[0], w[0])
    c.x(w[0])
    c.x(w[1])
    c.cx(w[1], z)  # z <- sign


def _ripple_add(x: list[int], y: list[int], carry: int) -> tuple[list[int], int]:
    """Plane-wise ``x + y + carry`` over ``len(x)`` bits, LSB first.

    Returns the sum planes and the carry-out plane.
    """
    out = []
    for xj, yj in zip(x, y):
        t = xj ^ yj
        out.append(t ^ carry)
        carry = (xj & yj) | (carry & t)
    return out, carry


def _trace_planes(kind: str, n: int, a: list[int], b: list[int], ones: int):
    """Classical replay of the divider on planes, one division per lane.

    ``a`` and ``b`` are the dividend and divisor planes, ``ones`` has a bit
    set for every lane.  Returns the per-iteration quotient bits and window
    signs, and the final (n+1)-bit window.
    """
    b = b + [0]  # the divisor, zero-extended to the window width
    w = [0] * (n + 1)
    sub = ones  # the first iteration always subtracts
    qbits, signs = [], []
    for i in range(1, n + 1):
        w = [a[n - i]] + w[:n]
        # w - b = w + ~b + 1 where sub is set, w + b elsewhere; a
        # subtraction's carry-out is set exactly where w >= b
        diff, cout = _ripple_add(w, [bj ^ sub for bj in b], sub)
        if kind == RESTORING:
            # keep the old window where the subtraction went negative
            w = [wj ^ (cout & (dj ^ wj)) for wj, dj in zip(w, diff)]
        else:
            w, sub = diff, cout
        qbits.append(cout)
        signs.append(w[n])
    if kind == NON_RESTORING:
        w, _ = _ripple_add(w, [bj & signs[-1] for bj in b], 0)
    return qbits, signs, w


def _expected_planes(
    qubit_count: int, layout: DividerLayout, a: list[int], b: list[int], ones: int
) -> list[int]:
    """Predicted terminal planes of every wire for the given input planes."""
    n = layout.n
    qbits, signs, w = _trace_planes(layout.kind, n, a, b, ones)
    state = [0] * qubit_count
    for p, v in zip(layout.divisor_qubits, b):
        state[p] = v
    for p, v in zip(layout.remainder_positions, w[:n]):
        state[p] = v
    for p, v in zip(reversed(layout.quotient_positions), qbits):
        state[p] = v
    if layout.kind == NON_RESTORING:
        # window tops above later windows keep the iteration's sign
        tops = [win[-1] for win in layout.iteration_windows[:-1]]
        for p, v in zip(tops + [layout.restore_control], signs):
            state[p] = v
    return state


def expected_final_state(
    circuit: Circuit, layout: DividerLayout, dividend: int, divisor: int
) -> list[int]:
    """Predicted terminal basis state for a valid division input."""
    n = layout.n
    a = encode_register(range(n), dividend, [0] * n)
    b = encode_register(range(n), divisor, [0] * n)
    return _expected_planes(circuit.qubit_count, layout, a, b, 1)


def run_division(
    circuit: Circuit, layout: DividerLayout, dividend: int, divisor: int
) -> tuple[int, int]:
    """One division on the circuit, checked as :func:`verify_exhaustive`
    checks each of its lanes, or a ``ValueError`` naming what is wrong."""
    n = layout.n
    if divisor == 0:
        raise ZeroDivisionError("divisor must be non-zero")
    if not 0 <= dividend < (1 << n):
        raise ValueError(f"dividend {dividend} out of range for n={n}")
    if not 1 <= divisor < (1 << n):
        raise ValueError(f"divisor {divisor} out of range for n={n}")
    a = encode_register(range(n), dividend, [0] * n)
    b = encode_register(range(n), divisor, [0] * n)
    out, report = _check_divisions(circuit, layout, a, b, 1)
    if not report.ok:
        raise ValueError(report.first_failure)
    return (
        decode_register(out, layout.quotient_positions),
        decode_register(out, layout.remainder_positions),
    )


@dataclass
class VerificationReport:
    total: int = 0
    passed: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.passed == self.total


def _check_divisions(
    circuit: Circuit, layout: DividerLayout, a: list[int], b: list[int], ones: int
) -> tuple[list[int], VerificationReport]:
    """Run the division of each lane of the dividend planes ``a`` by the
    divisor planes ``b`` and check it: q*b + r = a with r < b, and every
    wire as the classical trace predicts.

    ``ones`` has a bit set for every lane.  Returns the terminal planes and
    a report whose first failure is the lowest failing lane's.
    """
    n = layout.n
    state = [0] * circuit.qubit_count
    for p, v in zip(layout.dividend_qubits + layout.divisor_qubits, a + b):
        state[p] = v
    out = apply_planes(circuit, state, ones)

    # q*b + r = a with r < b pins (q, r) to divmod(a, b), independently of
    # the circuit's algorithm; q*b + r < 2^(2n), so 2n planes hold it
    q = [out[p] for p in layout.quotient_positions]
    r = [out[p] for p in layout.remainder_positions]
    acc = r + [0] * n
    for j, qj in enumerate(q):
        if qj:  # a zero plane adds nothing
            acc[j:], _ = _ripple_add(acc[j:], [bi & qj for bi in b] + [0] * (n - j), 0)
    _, wrong = _ripple_add(r, [bi ^ ones for bi in b], ones)  # r >= b
    for got, want in zip(acc, a + [0] * n):
        wrong |= got ^ want
    bad = wrong
    for got, want in zip(out, _expected_planes(circuit.qubit_count, layout, a, b, ones)):
        bad |= got ^ want

    lanes = ones.bit_count()
    report = VerificationReport(total=lanes, passed=lanes - bad.bit_count())
    if bad:
        k = (bad & -bad).bit_length() - 1
        x, y, got_q, got_r = (
            sum(((p >> k) & 1) << i for i, p in enumerate(planes)) for planes in (a, b, q, r)
        )
        if (wrong >> k) & 1:
            report.first_failure = (
                f"a={x} b={y}: got q={got_q} r={got_r}, want q={x // y} r={x % y}"
            )
        else:
            report.first_failure = f"a={x} b={y}: terminal state mismatch"
    return out, report


def _index_plane(j: int, bits: int) -> int:
    """Bit j of the lane index, over all 2**bits lanes."""
    plane = ((1 << (1 << j)) - 1) << (1 << j)
    for s in range(j + 1, bits):
        plane |= plane << (1 << s)
    return plane


def verify_exhaustive(
    params: DividerParams, limit: int = EXHAUSTIVE_LIMIT
) -> VerificationReport:
    """Simulate every (dividend, divisor>=1) pair and check quotient,
    remainder, divisor restoration and all ancilla terminal values.

    All divisions run at once, one per lane.
    """
    n = params.n
    if n > limit:
        raise ValueError(f"n={n} exceeds exhaustive limit {limit}")
    circuit, layout = build_divider(params)
    # lane index b*2^n + a over every b, then the b=0 lanes are shifted out
    index = [_index_plane(j, 2 * n) >> (1 << n) for j in range(2 * n)]
    ones = (1 << (((1 << n) - 1) << n)) - 1
    return _check_divisions(circuit, layout, index[:n], index[n:], ones)[1]


def make_params(n: int, adder_name: str, kind: str) -> DividerParams:
    return DividerParams(n=n, adder=get_adder(adder_name), kind=kind)
