"""The benchmark's three workloads: ``synth``, ``verify`` and ``cli``.

Each workload draws its inputs from the seed, warms up in :meth:`setup`,
runs one pass per :meth:`run_pass` and checks every output it produces.
A failed check or a raised exception counts one failed operation and the
pass goes on.  Import this module only once ``src`` is on ``sys.path``.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from probe import probe, scaled
from revdiv import circuit, costs, divider, qasm, sim

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120

ADDER_NAMES = ("cuccaro", "vbe")
PAIRS = [(kind, adder) for kind in divider.KINDS for adder in ADDER_NAMES]
KIND_FLAG = {divider.NON_RESTORING: "nonrestoring", divider.RESTORING: "restoring"}

# (Toffoli depth, Toffoli count, qubits, gates, first 16 hex digits of the
# SHA-256 of the exported QASM) of every divider the benchmark builds, as
# the seed commit produces them.  Any change here is a change of output.
SEED_BUILDS = {
    ("non_restoring", "cuccaro", 4): (49, 49, 18, 191, "a5846d15d0a59e2f"),
    ("non_restoring", "vbe", 4): (69, 85, 22, 223, "3f056e87975320ef"),
    ("restoring", "cuccaro", 4): (88, 88, 17, 284, "3ef584884c8944b3"),
    ("restoring", "vbe", 4): (108, 124, 21, 316, "7b39a5e31437e164"),
    ("non_restoring", "cuccaro", 7): (127, 127, 30, 500, "d5948879bd5f1305"),
    ("non_restoring", "vbe", 7): (183, 232, 37, 598, "84c53109e53af410"),
    ("restoring", "cuccaro", 7): (259, 259, 29, 812, "1d4864fb6aa9f132"),
    ("restoring", "vbe", 7): (315, 364, 36, 910, "6882abd2fa3415f4"),
    ("non_restoring", "cuccaro", 32): (2177, 2177, 130, 8675, "9dffb97a81175829"),
    ("non_restoring", "vbe", 32): (3233, 4257, 162, 10723, "e493a7e579df4ae7"),
    ("restoring", "cuccaro", 32): (5184, 5184, 129, 15712, "24e80890b1d1e235"),
    ("restoring", "vbe", 32): (6240, 7264, 161, 17760, "d73bf2998640b968"),
    ("non_restoring", "cuccaro", 64): (8449, 8449, 258, 33731, "44087c338c3db619"),
    ("non_restoring", "vbe", 64): (12609, 16705, 322, 41923, "e952fdbd97d0971e"),
    ("restoring", "cuccaro", 64): (20608, 20608, 257, 62144, "9ebe0fb4db0665f7"),
    ("restoring", "vbe", 64): (24768, 28864, 321, 70336, "2abcadbdfd7f4016"),
    ("non_restoring", "cuccaro", 128): (33281, 33281, 514, 132995, "2a899ed7432c36d2"),
    ("non_restoring", "vbe", 128): (49793, 66177, 642, 165763, "3b9b2a9469e4203f"),
    ("restoring", "cuccaro", 128): (82176, 82176, 513, 247168, "7137773c15588be2"),
    ("restoring", "vbe", 128): (98688, 115072, 641, 279936, "a4eda0d4a0230472"),
}
COUNT_NAMES = ("toffoli_depth", "toffoli_count", "qubit_count", "gate_total")


@dataclass(frozen=True)
class Scale:
    """Operand widths of every workload."""

    synth_widths: tuple[int, ...]
    verify_n: int
    cli_build_n: int
    cli_verify_n: int
    cli_table_n: int
    ir_n: int  # width of the (non_restoring, cuccaro) build whose bytes per gate are measured


SCALES = {
    # the paper's table width up to the ROADMAP's wide end
    "full": Scale((32, 64, 128), 7, 64, 5, 32, 64),
    # the self-test's size
    "small": Scale((4,), 4, 4, 4, 4, 4),
}


class Tally:
    """Operations attempted, failed and timed, with the first few failures described.

    ``times`` holds the time of each operation of the current pass, in
    order, scaled by the speed probes run around it (see ``probe.py``).
    Every pass of a workload runs the same operations in the same order.
    """

    MAX_NOTES = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.times: list[float] = []
        self.last_probe = 0.0

    def start_pass(self):
        self.times = []
        self.last_probe = probe()

    def fail(self, message: str, count: int = 1):
        self.failed += count
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(message)

    def run(self, label, fn, *args, weight=1):
        """Attempt one operation made of ``weight`` checks and return its value.

        ``fn`` returns ``(passed, value)``: how many of the checks passed (a
        bool for a single check) and the value.
        """
        self.attempted += weight
        start = time.perf_counter()
        try:
            passed, value = fn(*args)
        except Exception:  # any fault is a failed operation, never an aborted pass
            passed, value = 0, None
            self.fail(f"{label}: {traceback.format_exc(limit=3)}", weight)
        else:
            if passed != weight:
                self.fail(f"{label}: {weight - passed} of {weight} checks failed", weight - passed)
        took = time.perf_counter() - start
        after = probe()
        self.times.append(scaled(took, self.last_probe, after))
        self.last_probe = after
        return value


def exhaustive_total(n: int) -> int:
    """Divisions in an exhaustive sweep: every dividend, every non-zero divisor."""
    return ((1 << n) - 1) << n


def _division(rng: random.Random, n: int) -> tuple[int, int]:
    return rng.randrange(1 << n), rng.randrange(1, 1 << n)


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _seed_counts(key, report) -> bool:
    return SEED_BUILDS[key][:4] == tuple(report.as_dict()[k] for k in COUNT_NAMES)


def _sum_counts(reports) -> dict[str, int]:
    return {k: sum(r.as_dict()[k] for r in reports) for k in COUNT_NAMES}


def _build(key):
    kind, adder, n = key
    return divider.build_divider(divider.make_params(n, adder, kind))


def _measured(key):
    report = circuit.measure(_build(key)[0])
    return _seed_counts(key, report), report


def _measure_all(tally, keys):
    """Build and measure each divider, one operation each, checked against the seed counts."""
    reports = {key: tally.run(f"counts {key}", _measured, key) for key in keys}
    return {key: r for key, r in reports.items() if r is not None}


class Workload:
    """One pass of ``run_pass`` does ``commands`` operations and ``divisions`` checked divisions."""

    commands = 0
    divisions = 0

    def __init__(self, seed: int, scale: Scale, root: Path):
        self.root = root

    def setup(self):
        pass

    def run_pass(self, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> dict[str, int]:
        """Untimed checks after the passes; returns the summed exact counts."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class Synth(Workload):
    """Build, measure and export 12 dividers; simulate two divisions on each."""

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        rng = random.Random(seed)
        self.builds = [(k, a, n) for n in scale.synth_widths for k, a in PAIRS]
        self.inputs = {key: [_division(rng, key[2]) for _ in range(2)] for key in self.builds}
        self.commands = len(self.builds)
        self.divisions = 2 * len(self.builds)
        self.reports = {}

    def setup(self):
        for kind, adder in PAIRS:
            c, layout = _build((kind, adder, 3))
            circuit.measure(c)
            qasm.export_text(c)
            self._divide((c, layout), 5, 3)

    def run_pass(self, tally, tracer):
        for key in self.builds:
            built = tally.run(f"build {key}", lambda: (True, _build(key)))
            tally.run(f"measure {key}", self._measure, key, built)
            tally.run(f"export {key}", self._export, key, built)
            for a, b in self.inputs[key]:
                tally.run(f"divide {a} by {b} on {key}", self._divide, built, a, b)

    def _measure(self, key, built):
        report = self.reports[key] = circuit.measure(built[0])
        return _seed_counts(key, report), None

    @staticmethod
    def _export(key, built):
        return _sha16(qasm.export_text(built[0])) == SEED_BUILDS[key][4], None

    @staticmethod
    def _divide(built, a, b):
        c, layout = built
        state = [0] * c.qubit_count
        sim.encode_register(layout.dividend_qubits, a, state)
        sim.encode_register(layout.divisor_qubits, b, state)
        out = sim.apply(c, state)
        got = (
            sim.decode_register(out, layout.quotient_positions),
            sim.decode_register(out, layout.remainder_positions),
        )
        ok = got == divmod(a, b) and out == divider.expected_final_state(c, layout, a, b)
        return ok, None

    def finish(self, tally):
        return _sum_counts(self.reports.values())


class Verify(Workload):
    """Exhaustively verify the four kind x adder dividers at one width."""

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        n = scale.verify_n
        self.builds = [(k, a, n) for k, a in PAIRS]
        random.Random(seed).shuffle(self.builds)
        self.commands = len(self.builds)
        self.divisions = len(self.builds) * exhaustive_total(n)

    def setup(self):
        for kind, adder in PAIRS:
            divider.verify_exhaustive(divider.make_params(3, adder, kind), limit=3)

    def run_pass(self, tally, tracer):
        for kind, adder, n in self.builds:
            tally.run(f"verify {kind} {adder} {n}", self._verify, kind, adder, n,
                      weight=exhaustive_total(n))

    @staticmethod
    def _verify(kind, adder, n):
        report = divider.verify_exhaustive(divider.make_params(n, adder, kind), limit=n)
        if report.total != exhaustive_total(n):
            return 0, None
        return report.passed, None

    def finish(self, tally):
        return _sum_counts(_measure_all(tally, self.builds).values())


class Cli(Workload):
    """A shell session of ``revdiv`` commands, one child process at a time."""

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        rng = random.Random(seed)
        self.tmp = root / ".perfbench" / f"tmp-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.build_outputs: list[tuple[tuple, str]] = []
        n, vn, tn = scale.cli_build_n, scale.cli_verify_n, scale.cli_table_n
        self.builds = [(k, a, n) for k, a in PAIRS]
        # (argv, check of stdout)
        self.steps: list[tuple[list[str], object]] = []
        for key in self.builds:
            kind, adder, _ = key
            path = str(self.tmp / f"{kind}-{adder}.qasm")
            flags = ["--adder", adder, "--kind", KIND_FLAG[kind]]
            self.steps.append(
                (["build", "--n", str(n), *flags, "--out", path],
                 functools.partial(self._record_build, key))
            )
            for _ in range(4):
                a, b = _division(rng, n)
                q, r = divmod(a, b)
                self.steps.append(
                    (["simulate", "--circuit", path, "--dividend", str(a), "--divisor", str(b)],
                     f"q={q} r={r}\n".__eq__)
                )
            total = exhaustive_total(vn)
            self.steps.append(
                (["verify", "--n", str(vn), *flags], f"{total}/{total} pass\n".__eq__)
            )
        self.steps.append(
            (["table", "--n", str(tn)], costs.table_to_csv(costs.comparison_table(tn)).__eq__)
        )
        for row in costs.ROW_IDS:
            radix = 4 if row == "higher_radix" else None
            want = list(costs.evaluate_row(row, tn, radix=radix))
            argv = ["estimate", "--n", str(tn), "--row", row]
            if radix:
                argv += ["--radix", str(radix)]
            self.steps.append(
                (argv, lambda out, want=want: list(json.loads(out).values()) == want)
            )
        self.commands = len(self.steps)
        self.divisions = 4 * len(self.builds) + len(self.builds) * exhaustive_total(vn)

    def setup(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        ok, _ = self._command(["estimate", "--n", "8", "--row", "cuccaro"], bool, None)
        if not ok:
            raise RuntimeError("warm-up command failed")

    def run_pass(self, tally, tracer):
        for argv, check in self.steps:
            tally.run(" ".join(argv), self._command, argv, check, tracer)

    def _command(self, argv, check, tracer):
        if tracer is None:
            proc = self._spawn([sys.executable, "-m", "revdiv.cli", *argv])
        else:
            spans_path = self.tmp / "spans.json"
            spans_path.unlink(missing_ok=True)
            index = len(tracer.spans)
            proc = tracer.span(
                "cli.child", self._spawn, [sys.executable, str(CHILD), str(spans_path), *argv]
            )
            with open(spans_path, encoding="utf-8") as f:
                child_spans = json.load(f)
            spawned = tracer.spans[index][1]
            tracer.add_foreign(child_spans, index)
            # interpreter start and imports: from spawn to the child's cli.main
            tracer.spans.append(["cli.startup", spawned, child_spans[0][1], index, 0])
        return proc.returncode == 0 and check(proc.stdout), None

    def _spawn(self, cmd):
        return subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def _record_build(self, key, out):
        self.build_outputs.append((key, out))
        return True

    def finish(self, tally):
        # `build` prints TD/TC/QC; compare them with an in-process build
        reports = _measure_all(tally, self.builds)
        for key, out in self.build_outputs:
            try:
                ok = json.loads(out) == reports[key].as_dict()
            except (ValueError, KeyError):
                ok = False
            if not ok:
                tally.fail(f"build {key} printed {out.strip()}")
        return _sum_counts(reports.values())

    def peak_rss_kb(self) -> int:
        # the largest child, not this process
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"synth": Synth, "verify": Verify, "cli": Cli}
