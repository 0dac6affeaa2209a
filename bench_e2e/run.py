#!/usr/bin/env python3
"""End-to-end benchmark of the mmtp simulator.

Run from the repository root:

    python3 bench_e2e/run.py --workload soak-1m --seed 1 --seconds 30 --trace 0
    python3 bench_e2e/run.py --self-test

It builds bench_e2e/ together with the simulator libraries in src/ into
.bench_build/bench_e2e (Release), then starts fresh single-threaded
bench_e2e processes, each one run of the workload, until --seconds have
passed. Every process checks its own executions (wholeness, duplicates,
give-ups, per-link reconciliation, same-seed CSV comparison on
campaign-mix); this script checks that all processes of the seed agree
byte for byte and count for count, traced and untraced alike.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0: the end-to-end metrics, medians over the processes. Workload
           processes alternate with runs of the host-speed probe
           (`bench_e2e --probe`, fixed work in the benchmark itself), and
           each process's timings are scaled by PROBE_NOMINAL_S over the
           mean of the probes either side of it: the VMs this runs on
           drift in speed by up to 2x over minutes, which the scaling
           cancels. The report lines show the unscaled figures too.
--trace 1: the per-layer metrics. Traced processes (engine::step() drain,
           time charged per task class) alternate with untraced ones;
           timed rows are unscaled medians over the traced processes and
           trace.overhead_frac compares the two medians.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bench_e2e"
BINARY = BUILD / "bench_e2e"
SPANS = BUILD / "spans"

WORKLOADS = ("soak-1m", "pilot-lossy", "campaign-mix")
CLASSES = ("generic", "timer", "link_tx", "link_arrival", "pipeline", "protocol", "control")
BUILD_JOBS = max(1, min(3, os.cpu_count() or 1))
# A run must end within 180 s: stop starting processes well before.
LAST_START_S = 120.0
PROCESS_TIMEOUT_S = 170.0

# The probe's median on the 4-vCPU Xeon VM the bounds were set on; it
# only fixes the scale (a host this fast reports unscaled seconds).
PROBE_NOMINAL_S = 0.75

END_TO_END = {
    "wall_s": "s",
    "msgs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date (a no-op when
    nothing changed). Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("bench_e2e: simulator sources not found at", ROOT / "src")
        sys.exit(1)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "bench_e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                      "-j", str(BUILD_JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("bench_e2e: build failed:", " ".join(cmd))
                sys.exit(1)


def run_process(workload, seed, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        SPANS.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS / f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        log(f"bench_e2e: {workload} process exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_probe():
    proc = subprocess.run([str(BINARY), "--probe"], capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        log("bench_e2e: host-speed probe failed")
        sys.exit(1)
    return json.loads(proc.stdout)["probe_s"]


def identity(r):
    """Everything a same-seed process must reproduce exactly."""
    return (r["attempted"], r["failed"], r["delivered"], r["report_crc"],
            r["metrics_crc"], tuple(r["violations"]), tuple(sorted(r["counts"].items())))


def check(results):
    problems = []
    for r in results:
        problems += r["errors"]
    first = results[0]
    for r in results[1:]:
        if identity(r) != identity(first):
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"a {kind} process disagrees with the first on counts or CSV digests")
            break
    if first["attempted"] < 1 or first["delivered"] < 1:
        problems.append("the run attempted or delivered nothing")
    return problems


def median(values):
    return statistics.median(list(values))


def end_to_end(untraced, probes):
    """Medians of each process's timings, scaled to the nominal host speed
    by the probes run just before and after it."""
    scale = [PROBE_NOMINAL_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]
    return {
        "wall_s": median(r["wall_s"] * k for r, k in zip(untraced, scale)),
        "msgs_per_s": median(r["delivered"] / r["drain_s"] / k for r, k in zip(untraced, scale)),
        "setup_s": median(r["setup_s"] * k for r, k in zip(untraced, scale)),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(traced, untraced):
    """(value, unit) per layer metric; see BENCHMARK.json for the list."""
    c = traced[0]["counts"]
    delivered = c["msgs.delivered"]

    def timed(key):
        return median(r[key] for r in traced)

    m = {
        "scenario.parse_s": (timed("parse_s"), "s"),
        "scenario.build_s": (timed("build_s"), "s"),
        "scenario.check_s": (timed("check_s"), "s"),
        "telemetry.export_s": (timed("export_s"), "s"),
    }
    for cls in CLASSES:
        seconds = median(r["class_s"][cls] for r in traced)
        events = c[f"netsim.events.{cls}"]
        m[f"netsim.{cls}_s"] = (seconds, "s")
        m[f"netsim.{cls}_ns"] = (seconds * 1e9 / events if events else 0.0, "ns")
    m["netsim.events"] = (c["netsim.events"], "count")
    for cls in CLASSES:
        m[f"netsim.events.{cls}"] = (c[f"netsim.events.{cls}"], "count")
    m["netsim.events_per_msg"] = (c["netsim.events"] / delivered, "ratio")
    m["netsim.events_per_s"] = (
        c["netsim.events"] / median(r["drain_s"] for r in untraced), "1/s")
    m["netsim.timers_cancelled"] = (c["netsim.timers_cancelled"], "count")
    m["netsim.tx_per_msg"] = (c["netsim.link_tx"] / delivered, "ratio")
    for reason in ("queue_full", "random_loss", "link_down", "corrupted"):
        m[f"netsim.drops.{reason}"] = (c[f"netsim.drops.{reason}"], "count")
    m["netsim.queue_peak_bytes"] = (c["netsim.queue_peak_bytes"], "bytes")
    for key in ("pnet.forwarded", "pnet.mode_transitions", "pnet.clones",
                "mmtp.naks_sent", "mmtp.nak_retries", "mmtp.retransmitted",
                "mmtp.recovered", "mmtp.given_up", "mmtp.duplicates",
                "dtn.relayed", "dtn.persisted", "dtn.recovered_records", "dtn.tail_lost",
                "control.reconfigs", "control.polls", "control.admissions_deferred",
                "telemetry.metrics_rows"):
        m[key] = (c[key], "count")
    retx, relayed, unavailable = (c["mmtp.retransmitted"], c["dtn.relayed"],
                                  c["mmtp.unavailable"])
    m["mmtp.slow_path_share"] = (retx / relayed if relayed else 0.0, "ratio")
    # No repair requested means none missed.
    m["mmtp.repair_hit_ratio"] = (
        retx / (retx + unavailable) if retx + unavailable else 1.0, "ratio")
    m["dtn.peak_bytes"] = (c["dtn.peak_bytes"], "bytes")
    m["telemetry.csv_bytes"] = (c["telemetry.csv_bytes"], "bytes")
    m["trace.overhead_frac"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1,
        "ratio")
    return m


def report(workload, seed, untraced, traced, probes, problems, metrics):
    first = untraced[0]
    print(f"workload {workload} seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced processes, {len(probes)} probes")
    for r in untraced + traced:
        kind = "traced  " if r["traced"] else "untraced"
        print(f"  {kind} wall_s {r['wall_s']:.4f} drain_s {r['drain_s']:.4f} "
              f"setup_s {r['setup_s']:.6f} peak_rss_mb {r['peak_rss_mb']:.1f} (unscaled)")
    if probes:
        print(f"  probe_s median {median(probes):.4f} (nominal {PROBE_NOMINAL_S})")
    if traced:
        print(f"  spans {SPANS / f'{workload}-seed{seed}.jsonl'}")
    print(f"  digest crc32c report={first['report_crc']} metrics={first['metrics_crc']}")
    print(f"  operations attempted {first['attempted']} failed {first['failed']} "
          f"failed_frac {first['failed'] / max(1, first['attempted']):.6g} ratio")
    for v in first["violations"]:
        print(f"  violation {v}")
    for p in problems:
        print(f"  INCORRECT {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")


def self_test():
    build()
    failures = 0
    proc = subprocess.run([str(BINARY), "--self-test", str(HERE / "scenarios" / "faithful.scenario")])
    failures += proc.returncode != 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("FAIL: BENCHMARK.json workloads differ from run.py's")
        failures += 1
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        print("FAIL: BENCHMARK.json end_to_end metrics differ from run.py's")
        failures += 1
    one = {"counts": defaultdict(lambda: 1), "class_s": defaultdict(lambda: 1.0),
           **{k: 1.0 for k in ("parse_s", "build_s", "check_s", "export_s", "drain_s",
                               "wall_s")}}
    produced = {k: unit for k, (_, unit) in per_layer([one], [one]).items()}
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != produced:
        print("FAIL: BENCHMARK.json per_layer metrics differ from run.py's")
        failures += 1
    print("run.py self-test:", "FAILED" if failures else "OK")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0:
        ap.error("--workload is required and --seed must be non-negative")

    build()
    untraced, traced, probes = [], [], []
    start = time.monotonic()
    while True:
        if not args.trace:
            probes.append(run_probe())
        untraced.append(run_process(args.workload, args.seed, traced=False))
        if args.trace:
            traced.append(run_process(args.workload, args.seed, traced=True))
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds or elapsed >= LAST_START_S:
            break

    problems = check(untraced + traced)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        probes.append(run_probe())
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(untraced, probes).items()}
    report(args.workload, args.seed, untraced, traced, probes, problems, metrics)
    first = untraced[0]
    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
