#!/usr/bin/env python3
"""Run one workload of the OASSIS benchmark and print its metrics.

    python3 perfbench/run.py --workload mine-travel --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats passes over the seed's inputs until ``--seconds``
have elapsed and prints the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced and one traced pass over the first input
and prints the per-layer metrics; the spans go to ``.perfbench_out/``.
Outputs are checked after the timed passes.  The last line of standard
output is the result object; the line before it carries run metadata.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mine-travel", "serve-http", "serve-shards")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text(encoding="ascii").strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text(encoding="ascii").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    started = time.perf_counter()
    total = 0
    for index in range(1_000_000):
        total += index * index
    return time.perf_counter() - started


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(start: List[int], end: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor took away between two readings."""
    if len(start) < 8 or len(end) < 8:
        return None
    deltas = [after - before for before, after in zip(start, end)]
    return deltas[7] / sum(deltas) if sum(deltas) else 0.0


def metadata(seed: int) -> Dict[str, Any]:
    """Where and when the run happened, so a noisy run can be explained."""
    return {
        "commit": git_commit(ROOT),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "cpu_probe_s_start": cpu_probe(),
        "seed": seed,
    }


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    Shard fleets share closures through ``multiprocessing.shared_memory``,
    which starts a tracker process as a side effect; it would otherwise
    outlive the run until it noticed the exit.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()


def pin_to_one_cpu() -> Optional[Set[int]]:
    """Run this process (and the threads it starts) on one allowed CPU.

    A single-threaded campaign then never migrates, and serve-http's two
    threads hand requests to each other on one CPU instead of waking an
    idle virtual CPU for every request, a wake-up whose cost is the host
    scheduler's, not the program's.  Returns the CPUs allowed before.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        return None
    return allowed


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "demo"), default="full",
                        help="demo: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def measure(workload: Any, seconds: float) -> Dict[str, Any]:
    """Timed passes until ``seconds`` elapsed, then the output checks."""
    from perfbench.metrics import end_to_end

    items = workload.inputs()
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(items))
        if time.perf_counter() - started >= seconds:
            break
    workload.check(items, passes)
    return {"passes": passes, "metrics": end_to_end(passes)}


def measure_traced(workload: Any, spans_path: Path) -> Dict[str, Any]:
    """One untraced and one traced pass over the workload's first input."""
    from repro.observability import tracing

    from perfbench.layertrace import LayerTracer
    from perfbench.metrics import per_layer
    from perfbench.stats import tail_percentile
    from perfbench.workloads import layer_targets

    items = workload.inputs(limit=1)
    base = workload.run_pass(items)
    layers = LayerTracer()
    with tracing() as counters:
        layers.install(layer_targets(workload.layers))
        try:
            traced = workload.run_pass(items, layers)
        finally:
            layers.restore()
    passes = [base, traced]
    workload.check(items, passes)
    spans = layers.write_spans(str(spans_path))
    return {
        "passes": passes,
        "metrics": per_layer(base, traced, layers, counters),
        "spans": spans,
        "latency_samples": {
            name: {"count": len(samples), "tail_percentile": tail_percentile(len(samples))}
            for name, samples in (("answer", base.extras.get("answer_ms", [])),
                                  ("next", base.extras.get("next_ms", [])))
            if samples
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    meta = metadata(args.seed)
    ticks = cpu_ticks()
    meta.update(workload=args.workload, trace=args.trace, scale=args.scale,
                seconds=args.seconds)
    factory, full, demo = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    allowed = None
    try:
        workload = factory(args.seed, full if args.scale == "full" else demo, workdir)
        if workload.one_cpu:
            allowed = pin_to_one_cpu()
        meta["cpus"] = sorted(os.sched_getaffinity(0))
        if args.trace:
            outcome = measure_traced(workload, OUT / f"spans-{tag}.jsonl")
            units = PER_LAYER
        else:
            outcome = measure(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
        if allowed is not None:
            os.sched_setaffinity(0, allowed)
    passes = outcome["passes"]
    failures = [message for result in passes for message in result.failures]
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    meta["loadavg_end"] = list(os.getloadavg())
    meta["cpu_probe_s_end"] = cpu_probe()
    meta["steal_share"] = steal_share(ticks, cpu_ticks())
    meta["passes"] = len(passes)
    meta["campaign_s_per_pass"] = [result.campaign_s for result in passes]
    meta["campaign_wall_s_per_pass"] = [
        result.extras["campaign_wall_s"] for result in passes
    ]
    meta["setup_samples"] = sum(len(result.setups) for result in passes)
    meta["failures"] = failures
    for key in ("spans", "latency_samples"):
        if key in outcome:
            meta[key] = outcome[key]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=2)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the run failed: report it and print no result
        traceback.print_exc()
        sys.exit(1)
