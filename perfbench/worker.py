"""One benchmark worker: set up a workload, time its passes, check the outputs.

Usage: ``worker.py --workload W --seed S --seconds T --trace 0|1 --scale full|small
[--setup-only]``.  Prints ``ready`` once set up, then (unless ``--setup-only``)
one JSON line of raw results for ``run.py``.  The revdiv package is imported
from the ``src`` directory next to this one and nowhere else.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
# a median over one pass would leave an operation's time to one CPU phase
MIN_PASSES = 2


def bytes_per_gate(n: int) -> float:
    """Heap bytes per gate of one built divider circuit, outside any timed pass."""
    from revdiv import divider

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = divider.build_divider(divider.make_params(n, "cuccaro", divider.NON_RESTORING))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / len(built[0].gates)


def timed_pass(workload, tally, tracer) -> list[float]:
    """Run one pass; returns the probe-scaled time of each of its operations."""
    gc.collect()
    tally.start_pass()
    if tracer is None:
        workload.run_pass(tally, None)
    else:
        tracer.span("bench.pass", workload.run_pass, tally, tracer)
    return tally.times


def pass_time(passes: list[list[float]]) -> float:
    """Time of one pass: the sum over operations of each one's median across passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def write_spans(path: Path, passes):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("pass\tname\tstart\tend\tparent\tcount\n")
        for i, spans in enumerate(passes):
            for name, start, end, parent, count in spans:
                f.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{count}\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import revdiv

    if Path(revdiv.__file__).resolve().parent != SRC / "revdiv":
        print(f"error: revdiv imported from {revdiv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, install, layer_metrics

    scale = workloads.SCALES[args.scale]
    workload = workloads.WORKLOADS[args.workload](args.seed, scale, ROOT)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        tally = workloads.Tally()
        untraced, traced, layers, traced_spans = [], [], [], []
        pass_walls, traced_walls = [], []
        start = time.perf_counter()
        longest = 0.0
        # whole passes only: at least MIN_PASSES, then more while one still fits
        while True:
            begun = time.perf_counter()
            untraced.append(timed_pass(workload, tally, None))
            pass_walls.append(time.perf_counter() - begun)
            if args.trace:
                tracer = install(Tracer())
                traced_begun = time.perf_counter()
                try:
                    traced.append(timed_pass(workload, tally, tracer))
                finally:
                    tracer.uninstall()
                traced_walls.append(time.perf_counter() - traced_begun)
                layers.append(layer_metrics(tracer.spans))
                traced_spans.append(tracer.spans)
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if len(untraced) >= MIN_PASSES and now - start + longest > args.seconds:
                break
        peak_rss_kb = workload.peak_rss_kb()
        counts = workload.finish(tally)
        result = {
            "wall_s": pass_time(untraced),
            "pass_walls": pass_walls,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "notes": tally.notes,
            "counts": counts,
            "commands": workload.commands,
            "divisions": workload.divisions,
            "peak_rss_kb": peak_rss_kb,
        }
        if args.trace:
            result["traced_wall_s"] = pass_time(traced)
            result["traced_pass_walls"] = traced_walls
            result["layers"] = {
                k: statistics.median(p[k] for p in layers) for k in layers[0]
            }
            result["bytes_per_gate"] = [bytes_per_gate(scale.ir_n) for _ in range(2)]
            spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
            write_spans(spans_path, traced_spans)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
