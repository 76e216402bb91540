"""Self-test of the benchmark at width 4.

Usage: ``python3 perfbench/selftest.py``.  Checks three things:

1. every workload's output, traced and untraced, names exactly the metrics
   in ``BENCHMARK.json``, with their units;
2. at the seed commit every output is correct (error rate 0);
3. a divider with one Toffoli removed makes the ``synth`` and ``verify``
   checks fail, so the error rate rises above 0.

Exits 0 when all hold.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(spec: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            out = run(workload, trace)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != want:
                errors.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                              f"or their units differ from BENCHMARK.json")
            if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                errors.append(f"{workload} trace {trace}: error rate "
                              f"{out['failed']}/{out['attempted']} at the seed commit")
    return errors


def drop_first_toffoli(build):
    def faulty(params):
        c, layout = build(params)
        first = next(i for i, g in enumerate(c.gates) if g.name == "ccx")
        del c.gates[first]
        return c, layout

    return faulty


def check_fault_is_caught() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from revdiv import divider

    errors = []
    original = divider.build_divider
    divider.build_divider = drop_first_toffoli(original)
    try:
        for name in ("synth", "verify"):
            workload = workloads.WORKLOADS[name](7, workloads.SCALES["small"], ROOT)
            tally = workloads.Tally()
            workload.run_pass(tally, None)
            if tally.failed == 0:
                errors.append(f"{name}: a missing Toffoli went unnoticed")
    finally:
        divider.build_divider = original
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_outputs(spec) + check_fault_is_caught()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
