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

from .circuit import Circuit, CircuitError, Template


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

    def __post_init__(self):
        roles, n = self._roles(), self.circuit.qubit_count
        if len(roles) != n or {*roles} != {*range(n)}:
            raise CircuitError(f"fragment roles {roles} must name each of its {n} wires once")

    def _roles(self) -> tuple[int, ...]:
        """Every role's wires, in :meth:`place`'s order."""
        cout = () if self.carry_out is None else (self.carry_out,)
        return (*self.a, *self.b, self.carry_in, *cout, *self.ancillas)

    def place(self, host: Circuit, a, b, carry_in: int, carry_out=None, ancillas=()):
        """Append the fragment's gates to ``host``, each role on the given wires."""
        want = (len(self.a), len(self.b), self.carry_out is not None, len(self.ancillas))
        got = (len(a), len(b), carry_out is not None, len(ancillas))
        if got != want:
            raise CircuitError(
                f"fragment roles (a, b, carry-out, ancillas) take {want} wires, got {got}"
            )
        cout = () if carry_out is None else (carry_out,)
        host.extend(self.template, (*a, *b, carry_in, *cout, *ancillas))

    @cached_property
    def template(self) -> Template:
        """The circuit's placement template in :meth:`place`'s role order, made
        at the first placement and reused by the rest; the circuit is complete by then."""
        return Template.of(self.circuit, self._roles())


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
    a = c.new_register("a", m)
    b = c.new_register("b", m)
    cin = c.new_register("cin", 1)[0]
    cout = c.new_register("cout", 1)[0] if carry_out else None
    anc = c.new_register("anc", n_anc) if n_anc else ()
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
        c.cx(a[i], b[i])
        c.cx(a[i], ci)
        c.ccx(ci, b[i], a[i])
    # top bit: sum into b[m-1], majority into cout
    ct = carries[m - 1]
    c.cx(ct, b[m - 1])
    c.cx(ct, a[m - 1])
    c.ccx(a[m - 1], b[m - 1], cout)
    c.cx(ct, cout)
    c.cx(ct, a[m - 1])
    c.cx(a[m - 1], b[m - 1])
    for i in reversed(range(m - 1)):
        ci = carries[i]
        c.ccx(ci, b[i], a[i])
        c.cx(a[i], ci)
        c.cx(ci, b[i])
    return frag


def build_vbe(m: int) -> AdderFragment:
    """Carry-compute / sum / carry-uncompute ripple adder; 4m-2 Toffolis.

    Uses m-1 internal carry wires, all returned to 0.
    """
    frag = _adder_shell(m, m - 1)
    c, a, b, cin, cout = frag.circuit, frag.a, frag.b, frag.carry_in, frag.carry_out
    carry = [cin] + list(frag.ancillas) + [cout]  # carry[i] = carry into bit i

    def carry_fwd(i):
        c.ccx(a[i], b[i], carry[i + 1])
        c.cx(a[i], b[i])
        c.ccx(carry[i], b[i], carry[i + 1])

    def carry_rev(i):
        c.ccx(carry[i], b[i], carry[i + 1])
        c.cx(a[i], b[i])
        c.ccx(a[i], b[i], carry[i + 1])

    def sum_(i):
        c.cx(a[i], b[i])
        c.cx(carry[i], b[i])

    for i in range(m):
        carry_fwd(i)
    c.cx(a[m - 1], b[m - 1])
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


def _around(frag: AdderFragment, before: list[int], after: list[int]) -> AdderFragment:
    """A copy of ``frag``, the stored gates ``before`` ahead of its store and
    ``after`` behind it.  The wrappers' flips act on the fragment's roles,
    which name distinct wires of it, so they are stored unchecked."""
    c = frag.circuit
    wrapped = Circuit(c.qubit_count, dict(c.registers))
    wrapped.ops = before + c.ops + after
    return replace(frag, circuit=wrapped)


def wrap_subtractor(frag: AdderFragment) -> AdderFragment:
    """Turn a built adder into |a>|b> -> |a>|b-a mod 2^m>.

    The subtrahend wires are complemented around the adder and the carry-in
    is driven high (b - a = b + ~a + 1); the carry-in wire is returned to
    its input value, and the carry-out receives the no-borrow flag
    (1 iff b >= a).  No Toffoli gates beyond the wrapped adder.
    """
    flips = [q for w in frag.a for q in (-1, -1, w)]
    return _around(frag, [-1, -1, frag.carry_in, *flips], [*flips, -1, -1, frag.carry_in])


def wrap_add_sub(frag: AdderFragment) -> AdderFragment:
    """Controlled adder-subtractor: the control is the carry-in.

    Control 0: |a>|b> -> |a>|a+b mod 2^m>.  Control 1: the subtrahend wires
    are flipped and the carry-in rides high, giving |a>|b-a mod 2^m>.  The
    carry-out is the addition overflow, resp. the no-borrow flag; in both
    cases it reads 1 exactly when the signed result is non-negative.
    """
    flips = [q for w in frag.a for q in (-1, frag.carry_in, w)]
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
        c.cx(a[i], b[i])
    for i in range(m - 2, 0, -1):
        c.cx(a[i], a[i + 1])
    for i in range(m - 1):
        c.ccx(a[i], b[i], a[i + 1])
    for i in range(m - 1, 0, -1):
        c.ccx(ctrl, a[i], b[i])
        c.ccx(a[i - 1], b[i - 1], a[i])
    c.ccx(ctrl, a[0], b[0])
    for i in range(1, m - 1):
        c.cx(a[i], a[i + 1])
    for i in range(1, m):
        c.cx(a[i], b[i])
    return frag
