"""revdiv benchmark: one workload per run, in its own worker process.

Usage::

    python3 perfbench/run.py --workload {synth,verify,cli} --seed N --seconds T --trace {0,1}

The run sets the workload up SETUP_REPEATS times, each in a fresh worker,
and reports the median set-up time.  One more worker then runs whole passes
of the workload, two and then more while another still fits in ``T``
seconds, and checks every output.  Times are scaled by a CPU speed probe
(``probe.py``).  With ``--trace 0`` the last line printed is a JSON object
with the end-to-end metrics; with ``--trace 1`` the worker alternates
untraced and traced passes and the JSON holds the per-layer metrics of the
traced ones.  ``--scale small`` shrinks every width to 4 for the self-test.
``BASELINE.md`` describes the workloads, the metrics and the seed baseline.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("synth", "verify", "cli")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "gates_per_s": "gates/s",
    "divisions_per_s": "divisions/s",
    "commands_per_s": "commands/s",
    "toffoli_depth": "levels",
    "toffoli_count": "toffolis",
    "qubit_count": "qubits",
    "gate_total": "gates",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_per_gate"):
        return "B"
    return "count"


def end_to_end(raw: dict, setups: list[float]) -> dict[str, float]:
    wall = raw["wall_s"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "gates_per_s": raw["counts"]["gate_total"] / wall,
        "divisions_per_s": raw["divisions"] / wall,
        "commands_per_s": raw["commands"] / wall,
        **raw["counts"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    return {
        **raw["layers"],
        "circuit.bytes_per_gate": statistics.mean(raw["bytes_per_gate"]),
        # raw, so that it equals the sum of the spans' self times
        "trace.wall_s": statistics.median(raw["traced_pass_walls"]),
        # probe-scaled, as wall_s is
        "trace.overhead_s": raw["traced_wall_s"] - raw["wall_s"],
    }


def run_worker(args, deadline: float, *extra) -> tuple[float, str]:
    """Run one worker to its end; returns the seconds until it was set up, and its output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--scale", args.scale, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        took = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return took, out


def run_workers(args, deadline: float) -> tuple[list[float], dict]:
    """Time SETUP_REPEATS set-ups, each in a fresh worker, then run the passes in one more."""
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        took, _ = run_worker(args, deadline, "--setup-only")
        setups.append(scaled(took, before, probe()))
    _, out = run_worker(args, deadline)
    return setups, json.loads(out.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "revdiv" / "__init__.py").is_file():
        print(f"error: no revdiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so the speed
    # probe runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups, raw = run_workers(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}")
    print("set-up times (s): " + " ".join(f"{s:.4f}" for s in setups))
    print("pass walls (s): " + " ".join(f"{w:.4f}" for w in raw["pass_walls"]))
    print(f"operations: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.6g} share")
    for note in raw["notes"]:
        print(f"failure: {note}")
    if args.trace:
        print("bytes per gate, two tracemalloc runs: "
              + " ".join(f"{b:.2f}" for b in raw["bytes_per_gate"]))
        print(f"spans written to {raw['spans_file']}")
        values = per_layer(raw)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(raw, setups)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
