"""Gate-level in-place adders and the divider's three wrapper sub-circuits.

Fragments name their wires by role (``a``, ``b``, ``carry_in``, ``carry_out``
where present, ancillas), and :meth:`AdderFragment.place` copies them onto
host wires by role.  Every adder computes |a>|b> -> |a>|a+b+cin mod 2^m>
with the overflow bit XORed onto ``carry_out``; ``a``, ``carry_in`` and all
internal ancillas come back to their input values.  The two wrappers take a
built adder fragment and return a copy with flips placed around its gates,
so one build serves both and each keeps its wire layout and roles.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

from .circuit import Circuit, CircuitError, Gate, Template, ccx, cx, x


@dataclass(frozen=True)
class AdderFragment:
    """An adder-shaped circuit plus its wire roles.

    In the add-subtractor and the conditional adder, ``carry_in`` is the
    control wire; ``carry_out`` is None where there is no carry-out.
    """

    circuit: Circuit
    a: tuple[int, ...]
    b: tuple[int, ...]
    carry_in: int
    carry_out: int | None
    ancillas: tuple[int, ...]

    def place(self, host: Circuit, a, b, carry_in: int, carry_out=None, ancillas=()):
        """Append the fragment's gates to ``host``, each role on the given wires."""
        want = (len(self.a), len(self.b), self.carry_out is not None, len(self.ancillas))
        got = (len(a), len(b), carry_out is not None, len(ancillas))
        if got != want:
            raise CircuitError(
                f"fragment roles (a, b, carry-out, ancillas) take {want} wires, got {got}"
            )
        own = (*self.a, *self.b, self.carry_in, self.carry_out, *self.ancillas)
        host_of = dict(zip(own, (*a, *b, carry_in, carry_out, *ancillas)))
        host.extend(self.template, [host_of[k] for k in range(self.circuit.qubit_count)])

    @cached_property
    def template(self) -> Template:
        """The circuit's placement template, made at the first placement and
        reused by the rest; the circuit is complete by then."""
        return Template.of(self.circuit)


@dataclass(frozen=True)
class AdderBuilder:
    """A named in-place adder construction."""

    name: str
    build: Callable[[int], AdderFragment]


def _adder_shell(m: int, n_anc: int, carry_out: bool = True) -> AdderFragment:
    """An empty fragment: registers a, b, cin, then cout if ``carry_out``,
    then ``n_anc`` ancillas.  Every fragment's wires are allocated here."""
    if m < 1:
        raise ValueError("operand width must be >= 1")
    c = Circuit()
    a = c.new_register("a", m).qubits
    b = c.new_register("b", m).qubits
    cin = c.new_register("cin", 1)[0]
    cout = c.new_register("cout", 1)[0] if carry_out else None
    anc = c.new_register("anc", n_anc).qubits if n_anc else ()
    return AdderFragment(c, a, b, cin, cout, anc)


def build_cuccaro(m: int) -> AdderFragment:
    """Ripple-carry adder in MAJ/UMA style; 2m-1 Toffolis, depth 2m-1.

    Bits 0..m-2 ripple the carry into the a-wires; the top bit writes its
    sum and the overflow with a single Toffoli.
    """
    frag = _adder_shell(m, 0)
    c, a, b, cin, cout = frag.circuit, frag.a, frag.b, frag.carry_in, frag.carry_out

    carries = [cin] + list(a[:-1])  # wire holding carry into bit i
    for i in range(m - 1):
        ci = carries[i]
        c.append(cx(a[i], b[i]))
        c.append(cx(a[i], ci))
        c.append(ccx(ci, b[i], a[i]))
    # top bit: sum into b[m-1], majority into cout
    ct = carries[m - 1]
    c.append(cx(ct, b[m - 1]))
    c.append(cx(ct, a[m - 1]))
    c.append(ccx(a[m - 1], b[m - 1], cout))
    c.append(cx(ct, cout))
    c.append(cx(ct, a[m - 1]))
    c.append(cx(a[m - 1], b[m - 1]))
    for i in reversed(range(m - 1)):
        ci = carries[i]
        c.append(ccx(ci, b[i], a[i]))
        c.append(cx(a[i], ci))
        c.append(cx(ci, b[i]))
    return frag


def build_vbe(m: int) -> AdderFragment:
    """Carry-compute / sum / carry-uncompute ripple adder; 4m-2 Toffolis.

    Uses m-1 internal carry wires, all returned to 0.
    """
    frag = _adder_shell(m, m - 1)
    c, a, b, cin, cout = frag.circuit, frag.a, frag.b, frag.carry_in, frag.carry_out
    carry = [cin] + list(frag.ancillas) + [cout]  # carry[i] = carry into bit i

    def carry_fwd(i):
        c.append(ccx(a[i], b[i], carry[i + 1]))
        c.append(cx(a[i], b[i]))
        c.append(ccx(carry[i], b[i], carry[i + 1]))

    def carry_rev(i):
        c.append(ccx(carry[i], b[i], carry[i + 1]))
        c.append(cx(a[i], b[i]))
        c.append(ccx(a[i], b[i], carry[i + 1]))

    def sum_(i):
        c.append(cx(a[i], b[i]))
        c.append(cx(carry[i], b[i]))

    for i in range(m):
        carry_fwd(i)
    c.append(cx(a[m - 1], b[m - 1]))
    sum_(m - 1)
    for i in reversed(range(m - 1)):
        carry_rev(i)
        sum_(i)
    return frag


ADDERS = {
    b.name: b for b in (AdderBuilder("cuccaro", build_cuccaro), AdderBuilder("vbe", build_vbe))
}


def get_adder(name: str) -> AdderBuilder:
    try:
        return ADDERS[name]
    except KeyError:
        raise ValueError(f"unknown adder {name!r}; choose from {sorted(ADDERS)}")


def _around(frag: AdderFragment, before: list[Gate], after: list[Gate]) -> AdderFragment:
    """A copy of ``frag``, ``before`` ahead of its gates and ``after`` behind them."""
    c = frag.circuit
    gates = [*before, *c.gates, *after]
    return replace(frag, circuit=Circuit(c.qubit_count, list(c.registers), gates))


def wrap_subtractor(frag: AdderFragment) -> AdderFragment:
    """Turn a built adder into |a>|b> -> |a>|b-a mod 2^m>.

    The subtrahend wires are complemented around the adder and the carry-in
    is driven high (b - a = b + ~a + 1); the carry-in wire is returned to
    its input value, and the carry-out receives the no-borrow flag
    (1 iff b >= a).  No Toffoli gates beyond the wrapped adder.
    """
    flips = list(map(x, frag.a))
    return _around(frag, [x(frag.carry_in), *flips], [*flips, x(frag.carry_in)])


def wrap_add_sub(frag: AdderFragment) -> AdderFragment:
    """Controlled adder-subtractor: the control is the carry-in.

    Control 0: |a>|b> -> |a>|a+b mod 2^m>.  Control 1: the subtrahend wires
    are flipped and the carry-in rides high, giving |a>|b-a mod 2^m>.  The
    carry-out is the addition overflow, resp. the no-borrow flag; in both
    cases it reads 1 exactly when the signed result is non-negative.
    """
    flips = [cx(frag.carry_in, q) for q in frag.a]
    return _around(frag, flips, flips)


def build_cond_add(m: int) -> AdderFragment:
    """Conditional adder: |c>|a>|b> -> |c>|a>|b + c*a mod 2^m>.

    Carries are rippled into the a-wires unconditionally, only the sum
    writes are controlled, then the carries are uncomputed: 3(m-1)+1
    Toffolis, no ancilla, no carry wires.
    """
    frag = _adder_shell(m, 0, carry_out=False)
    c, a, b, ctrl = frag.circuit, frag.a, frag.b, frag.carry_in
    for i in range(1, m):
        c.append(cx(a[i], b[i]))
    for i in range(m - 2, 0, -1):
        c.append(cx(a[i], a[i + 1]))
    for i in range(m - 1):
        c.append(ccx(a[i], b[i], a[i + 1]))
    for i in range(m - 1, 0, -1):
        c.append(ccx(ctrl, a[i], b[i]))
        c.append(ccx(a[i - 1], b[i - 1], a[i]))
    c.append(ccx(ctrl, a[0], b[0]))
    for i in range(1, m - 1):
        c.append(cx(a[i], a[i + 1]))
    for i in range(1, m):
        c.append(cx(a[i], b[i]))
    return frag
