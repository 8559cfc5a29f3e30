"""End-to-end wire-path benchmark: one command, every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload cistar-twitter-read --seed 1 \
        --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the same workload untraced in a fresh child
process (for ``trace_overhead``), then runs it again with every layer
wrapped and reports the per-layer metrics.  ``--scale`` shrinks every
size for quick checks; the benchmark itself always runs at 1.

Each run prints one ``name value unit`` line per metric, a ``# meta``
line (host calibration timings, sizes, errors), and as its last line a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
non-zero when any answer is wrong or any operation raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics: name -> unit.  See README.md for definitions.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p95_ms": "ms",
    "restart_s": "s",
    "gas_per_object": "gas",
    "vo_bytes_per_query": "bytes",
    "peak_rss_mb": "MB",
}


def calibration_ms() -> float:
    """Fixed work — 1024-bit modexp plus SHA3 — to log host speed drift."""
    rng = random.Random(1)
    modulus = rng.getrandbits(1024) | 1 | (1 << 1023)
    value = rng.getrandbits(1020)
    start = time.perf_counter()
    for i in range(20):
        value = pow(value, 65537 + 2 * i, modulus)
        digest = hashlib.sha3_256(value.to_bytes(128, "big")).digest()
        value ^= int.from_bytes(digest, "big")
        pow(value, modulus >> 2, modulus)
    return (time.perf_counter() - start) * 1e3


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


def ops_per_s(res, seconds) -> float:
    """Measured operations over the time spent inside them."""
    return len(res.measured) / sum(seconds(*iv) for iv in res.measured)


def end_to_end_metrics(res, seconds) -> dict:
    """Every end-to-end metric; ``seconds(t0, t1)`` times an interval."""
    query_ms = [seconds(*iv) * 1e3 for iv in res.queries]
    ingest_ms = [seconds(*iv) * 1e3 for iv in res.ingests]
    values = {
        "setup_s": seconds(*res.setup),
        "ops_per_s": ops_per_s(res, seconds),
        "query_p50_ms": percentile(query_ms, 0.50),
        "query_p95_ms": percentile(query_ms, 0.95),
        "ingest_p50_ms": percentile(ingest_ms, 0.50),
        "ingest_p95_ms": percentile(ingest_ms, 0.95),
        "restart_s": seconds(*res.restart),
        "gas_per_object": res.gas_per_object,
        "vo_bytes_per_query": statistics.fmean(res.vo_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def run_child(args, workload: str, trace: int) -> subprocess.CompletedProcess:
    """Run one workload in a fresh process; returns its captured output."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace),
         "--scale", str(args.scale)],
        capture_output=True, text=True, timeout=170,
    )


def untraced_ops_per_s(args) -> float:
    """``ops_per_s`` of the same workload, untraced, in a fresh process."""
    child = run_child(args, args.workload, 0)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"untraced child run failed ({child.returncode})")
    return json.loads(lines[-1])["metrics"]["ops_per_s"]["value"]


def run_one(args) -> int:
    from clock import ReferenceClock
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Runner, make_plan

    spec = WORKLOADS[args.workload]
    baseline = untraced_ops_per_s(args) if args.trace else None
    plan = make_plan(spec, args.seed, args.seconds, args.scale)
    workdir = OUT_DIR / f"run-{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = ReferenceClock()
    tracer = Tracer() if args.trace else NullTracer()
    calibration = [calibration_ms()]
    if args.trace:
        tracer.install()
    try:
        res = Runner(plan, clock, tracer, workdir).run()
    finally:
        if args.trace:
            tracer.uninstall()
    calibration.append(calibration_ms())
    if clock.max_threads > 1:
        # A thread beside the probe slows it as much as the program, so
        # scaled times would hide the thread's cost.
        res.failed += 1
        res.errors.append(f"{clock.max_threads} threads alive during the run")
    correct = res.failed == 0
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = tracer.layer_metrics(
            clock.scaled, ops_per_s(res, clock.scaled), baseline
        )
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(res, clock.scaled)
    workdir.rmdir()
    raw = end_to_end_metrics(res, lambda t0, t1: t1 - t0) if correct else {}

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {res.failed / res.attempted:.6g} ratio")
    print("# meta " + json.dumps({
        "workload": spec.name,
        "seed": args.seed,
        "why": spec.why,
        "calibration_ms": [round(ms, 3) for ms in calibration],
        "probe_median_us": round(clock.probe_median_s() * 1e6, 3),
        "raw_wall": {name: round(m["value"], 6) for name, m in raw.items()
                     if m["unit"] in ("s", "ms", "1/s")},
        "preload": len(plan.preload),
        "measured_ops": len(res.measured),
        "queries": len(res.queries),
        "ingests": len(res.ingests),
        "errors": res.errors,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and echo its output."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = run_child(args, name, args.trace)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program source at {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
