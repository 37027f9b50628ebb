#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload compose_scale --seed 7 \
        --seconds 15 --trace 0 [--build-jobs 1]

Builds perfbench/ (and with it every library source under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
perfbench binary, and prints a host line, the deterministic work
counters, and as the last line one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace under the build directory). Any failed
correctness gate ends the run with a non-zero exit and no result line.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("compose_scale", "serve_steady", "churn_recovery")
# Seed kept out of every tuning run; claims must also hold on it.
HELD_OUT_SEED = 20041
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "workload" / "scenario.hpp").is_file():
        fail(f"no SpiderNet sources under {ROOT / 'src'}")
    out = build_root() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def host_line(raw):
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"nproc": os.cpu_count(), "compiler": raw["host"]["compiler"],
            "build_type": raw["host"]["build_type"],
            "build_jobs": raw["host"]["build_jobs"], "commit": commit,
            "src_sha1": digest.hexdigest(), "held_out_seed": HELD_OUT_SEED}


def end_to_end(raw):
    loop = raw["loop"]
    c = loop["counters"]
    wall = loop["wall_s"]
    recovered = c["session.backup_switches"] + c["session.reactive_recoveries"]
    # Nothing broke, nothing to recover: an empty base reads as 1.
    recovery = stats.ratio(recovered, int(c["session.breaks"]), when_empty=1.0)
    # Per compose, so it still sees the composes a retried request needed.
    success = stats.ratio(c["session.established"], int(c["bcp.composes"]))
    probes = stats.ratio(c["bcp.probe_messages"], int(c["bcp.composes"]))
    metrics = {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "compose_ms_p50": (stats.median(loop["compose_ms"]), "ms"),
        "compose_ms_p95": (stats.tail_percentile(loop["compose_ms"], 95), "ms"),
        "sessions_per_s": (c["session.established"] / wall, "1/s"),
        "ticks_per_s": (loop["units"] / wall, "1/s"),
        "virtual_setup_ms_p50": (stats.median(loop["virtual_setup_ms"]), "ms"),
        "virtual_setup_ms_p95":
            (stats.tail_percentile(loop["virtual_setup_ms"], 95), "ms"),
        "probe_msgs_per_request": (probes.value, "count"),
        "recovery_ratio": (recovery.value, "ratio"),
        "success_ratio": (success.value, "ratio"),
        "peak_rss_mb": (raw["peak_rss_bytes"] / 2**20, "MB"),
    }
    bases = {"success_ratio": success.base, "recovery_ratio": recovery.base,
             "probe_msgs_per_request": probes.base,
             "compose_ms": len(loop["compose_ms"]),
             "virtual_setup_ms": len(loop["virtual_setup_ms"])}
    return metrics, bases


# Span name -> per-layer metric of its busy time.
BUSY_SPANS = {
    "bcp.compose_ms": "bcp.compose",
    "workload.sample_ms": "workload.sample_request",
    "alloc.admit_ms": "alloc.admit_setup",
    "session.establish_ms": "session.establish",
    "session.teardown_ms": "session.teardown",
    "session.monitor_ms": "session.monitor",
    "session.maintenance_ms": "session.maintenance",
    "session.on_peer_failed_ms": "session.on_peer_failed",
}
# Counters reported per loop unit under their own names.
PER_UNIT_COUNTERS = (
    "overlay.route_trees", "overlay.paths_materialized",
    "bcp.probes_spawned", "bcp.probe_messages", "bcp.discovery_messages",
    "bcp.holds_acquired", "bcp.holds_reused", "dht.messages",
    "alloc.admission_rejects", "alloc.lease_renewals",
    "alloc.lease_expirations", "session.breaks", "session.backup_switches",
    "session.reactive_recoveries", "session.losses",
    "session.maintenance_messages", "sim.events",
)
LAYERS = ("workload", "bcp", "alloc", "session", "deploy", "sim", "bench")


def per_layer(raw):
    loop = raw["loop"]
    c = loop["counters"]
    units = loop["units"]
    with open(raw["trace_file"]) as f:
        events = json.load(f)["traceEvents"]
    totals = stats.self_times([{"name": e["name"], "ts": e["ts"],
                                "dur": e["dur"], "parent": e["args"]["parent"]}
                               for e in events])

    def busy_ms(span):
        t = totals.get(span)
        return 0.0 if t is None else t.busy_us / 1000.0 / units

    b = raw["build"]
    metrics = {
        "build.topology_ms": (b["topology_ms"], "ms"),
        "build.overlay_ms": (b["overlay_ms"], "ms"),
        "build.dht_ms": (b["dht_ms"], "ms"),
        "build.deploy_ms": (b["deploy_ms"], "ms"),
        "net.router_trees": (raw["router_trees_after_build"], "count"),
    }
    for counter in PER_UNIT_COUNTERS:
        metrics[counter] = (c[counter] / units, "count/op")
    for metric, span in BUSY_SPANS.items():
        metrics[metric] = (busy_ms(span), "ms/op")
    useful = stats.ratio(c["bcp.probes_arrived"], int(c["bcp.probes_spawned"]),
                         when_empty=1.0)
    metrics["bcp.useful_probe_ratio"] = (useful.value, "ratio")
    run_until = totals.get("sim.run_until")
    metrics["sim.dispatch_self_ms"] = (
        0.0 if run_until is None else run_until.self_us / 1000.0 / units,
        "ms/op")
    for layer in LAYERS:
        self_us = sum(t.self_us for name, t in totals.items()
                      if stats.layer_of(name) == layer)
        metrics[f"layer.{layer}.self_ms"] = (self_us / 1000.0 / units, "ms/op")
    metrics["trace.coverage"] = (
        stats.coverage(totals, loop["wall_s"] * 1e6), "ratio")
    metrics["trace.overhead"] = (
        loop["wall_s"] / raw["untraced_wall_s"] - 1.0, "ratio")
    return metrics, {"units": units, "spans": int(raw["spans"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--build-jobs", type=int, default=1)
    args = ap.parse_args()

    binary = build()
    trace_dir = build_root() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--build-jobs", str(args.build_jobs),
           "--trace-out", str(trace_file)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    if run.returncode != 0:
        fail(f"perfbench exited with {run.returncode}", code=3)
    raw = json.loads(run.stdout)
    print("host " + json.dumps(host_line(raw), sort_keys=True))
    if "prefix_counters" in raw:
        print("counters " + json.dumps(raw["prefix_counters"]), flush=True)

    try:
        metrics, bases = per_layer(raw) if args.trace else end_to_end(raw)
    except ValueError as e:
        fail(f"cannot report: {e}", code=4)
    loop = raw["loop"]
    print("loop " + json.dumps({"units": loop["units"], **bases,
                                **loop["counters"]}))
    attempted = int(loop["counters"]["requests"])
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - int(loop["counters"]["session.established"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
