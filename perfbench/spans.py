"""In-memory span tracing of revdiv's public functions, installed from outside.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``count`` is the work the call did,
such as gates simulated or bytes exported.  Spans stay in memory while a
pass runs; the worker writes them out when the run ends.  Nothing under
``src/`` is edited: each function is replaced where its caller looks it up.
"""
from __future__ import annotations

import dataclasses
import time


class Tracer:
    """Records spans around patched functions; :meth:`uninstall` undoes the patches."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(args, result)`` gives its work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def add_foreign(self, spans, parent):
        """Append spans recorded in another process; their roots hang under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, count in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, count])


def _fragment_gates(args, result):
    return len(result.circuit.gates)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced revdiv function where its caller binds it."""
    from revdiv import adders, circuit, cli, costs, divider, qasm, sim

    p = tracer.patch
    apply_gates = lambda args, result: len(args[0].gates)
    p(sim, "apply", "sim.apply", apply_gates)
    p(divider, "apply", "sim.apply", apply_gates)
    p(circuit.Circuit, "extend", "circuit.extend", lambda args, result: len(args[1].gates))
    # AdderBuilder is frozen and carries its build callable, so the registry
    # entries are swapped for traced copies; get_adder reads the registry.
    for key, builder in list(adders.ADDERS.items()):
        traced = tracer.wrap("adders.fragment", builder.build, _fragment_gates)
        tracer.patch_item(adders.ADDERS, key, dataclasses.replace(builder, build=traced))
    for attr in ("wrap_subtractor", "wrap_add_sub", "build_cond_add"):
        p(divider, attr, "adders.fragment", _fragment_gates)
    p(divider, "build_divider", "divider.build")
    p(divider, "verify_exhaustive", "divider.verify")
    p(divider, "expected_final_state", "divider.expected_state")
    p(divider, "run_division", "divider.run_division")
    for owner in (circuit, divider, cli):
        p(owner, "measure", "circuit.measure", lambda args, result: result.gate_total)
    # the exported text is ASCII, so its length is its size in bytes
    p(qasm, "export_text", "qasm.export", lambda args, result: len(result))
    p(qasm, "import_text", "qasm.import", lambda args, result: args[0].count("\n"))
    p(costs, "evaluate_row", "costs.eval")
    return tracer


def aggregate(spans):
    """Per span name: (calls, inclusive s, self s, summed count, count of outermost calls).

    Self time is a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
        row[3] += count
        if parent < 0 or spans[parent][0] != name:
            row[4] += count
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``*_s`` is self time, except ``divider.build_s``, ``divider.verify_s``
    and ``cli.child_s``, which include their callees.  ``cli.exit_s`` is the
    self time of ``cli.child``: what a child spends outside its start-up and
    ``main``, chiefly interpreter shutdown.
    """
    agg = aggregate(spans)

    def get(name, field):
        return agg[name][field] if name in agg else 0

    calls, incl, self_, count, outer = range(5)
    apply_s = get("sim.apply", self_)
    return {
        "sim.apply_s": apply_s,
        "sim.apply_calls": get("sim.apply", calls),
        "sim.gate_evals": get("sim.apply", count),
        "sim.gate_evals_per_s": get("sim.apply", count) / apply_s if apply_s else 0.0,
        "circuit.extend_s": get("circuit.extend", self_),
        "circuit.extend_calls": get("circuit.extend", calls),
        "circuit.gates_copied": get("circuit.extend", count),
        "adders.fragment_s": get("adders.fragment", self_),
        "adders.fragment_calls": get("adders.fragment", calls),
        "adders.fragment_gates": get("adders.fragment", outer),
        "divider.build_s": get("divider.build", incl),
        "divider.build_self_s": get("divider.build", self_),
        "circuit.measure_s": get("circuit.measure", self_),
        "circuit.measure_gates": get("circuit.measure", count),
        "qasm.export_s": get("qasm.export", self_),
        "qasm.export_bytes": get("qasm.export", count),
        "qasm.import_s": get("qasm.import", self_),
        "qasm.import_lines": get("qasm.import", count),
        "cli.startup_s": get("cli.startup", self_),
        "cli.main_s": get("cli.main", self_),
        "cli.child_s": get("cli.child", incl),
        "cli.exit_s": get("cli.child", self_),
        "divider.verify_s": get("divider.verify", incl),
        "divider.verify_self_s": get("divider.verify", self_),
        "divider.expected_state_s": get("divider.expected_state", self_),
        "divider.run_division_s": get("divider.run_division", self_),
        "costs.eval_s": get("costs.eval", self_),
        "costs.eval_calls": get("costs.eval", calls),
        "bench.self_s": get("bench.pass", self_),
    }
