"""The one Hypothesis strategy that draws random circuits over {x, cx, ccx}.

``tests/test_circuit.py``, ``tests/test_qasm.py`` and ``tests/test_sim.py``
draw their circuits from it, each with its own width and gate bounds.
"""
from hypothesis import strategies as st

from revdiv.circuit import Circuit


@st.composite
def circuits(draw, min_width: int, max_width: int, max_gates: int, tiled: bool) -> Circuit:
    """A circuit on min_width..max_width wires with at most max_gates gates.

    Its wires form one register ``w`` or, when tiled, registers ``r0``,
    ``r1``, ... of drawn nonzero sizes that tile them in wire order.
    """
    width = draw(st.integers(min_width, max_width))
    c = Circuit()
    if tiled:
        left = width
        while left:
            size = draw(st.integers(1, left))
            c.new_register(f"r{len(c.registers)}", size)
            left -= size
    else:
        c.new_register("w", width)
    for _ in range(draw(st.integers(0, max_gates))):
        arity = draw(st.integers(1, min(3, width)))
        wires = draw(st.lists(st.integers(0, width - 1), min_size=arity, max_size=arity, unique=True))
        # through a writer, as builders store gates
        (c.x, c.cx, c.ccx)[arity - 1](*wires)
    return c
