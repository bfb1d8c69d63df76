#!/usr/bin/env python3
"""FractOS simulator benchmark: host time and modelled time, four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release, offline) and runs repetitions of
one workload, each in a fresh process, until `--seconds` have passed and at
least MIN_REPS repetitions are done. Every repetition runs the workload's
fixed op count with the same seed. The runner checks every repetition's
outputs and that the modelled results are identical across repetitions,
then prints the metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over repetitions).
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead.
See NOTES.md in this directory for the workloads and the metric map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("fv_fig2", "cap_churn", "ring", "ring_sharded")
# Named for claims: a change is shown to hold on this seed as well, and it
# is never used while a change is being written.
HELD_OUT_SEED = 7919
MIN_REPS = 3
MIN_TRACED_REPS = 2
# A repetition that runs longer than this has hung.
REP_TIMEOUT_S = 60
# No new repetition starts after this much time, whatever MIN_REPS says.
HARD_STOP_S = 100

# Modelled (virtual-time) results: a pure function of workload and seed.
# Any difference between repetitions, traced or not, is a defect.
DETERMINISTIC = (
    "ops", "events", "sim_span_ns", "lat_p50_ns", "lat_p99_ns", "net_msgs",
    "net_bytes", "net_wire_bytes", "net_data_msgs", "live_caps", "backend",
    "workers", "seed",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env(**extra):
    """The caller's environment without any FRACTOS_* selector, so no
    exported backend, worker, telemetry or trace setting reaches a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACTOS_")}
    env.update(extra)
    return env


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(CARGO_TARGET_DIR=target),
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0:
        return None
    binary = os.path.join(target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def run_rep(binary, workload, seed, traced):
    """One repetition in a fresh process: its JSON record plus its peak
    resident set, or None if it crashed, hung or printed garbage."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, stderr=sys.stderr)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        log(f"perfbench: {workload} seed {seed} exited with {proc.returncode}")
        return None
    try:
        rec = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} seed {seed} printed no record")
        return None
    rec["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return rec


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(reps):
    r0 = reps[0]
    ops = r0["ops"]
    return {
        "ops_per_s": (statistics.median(r["ops"] / r["run_s"] for r in reps), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
        "sim_op_p50_us": (r0["lat_p50_ns"] / 1e3, "us"),
        "sim_op_p99_us": (r0["lat_p99_ns"] / 1e3, "us"),
        "sim_ops_per_s": (ratio(ops, r0["sim_span_ns"] / 1e9), "1/s"),
        "net_msgs_per_op": (ratio(r0["net_msgs"], ops), "msgs/op"),
        "net_bytes_per_op": (ratio(r0["net_wire_bytes"], ops), "B/op"),
        "verified_frac": (ratio(sum(r["verified"] for r in reps),
                                sum(r["ops"] for r in reps)), "ratio"),
    }


def layer_metrics(rec):
    """Per-layer metrics of one traced repetition."""
    t = rec["trace"]
    run_ns = rec["run_s"] * 1e9
    events = rec["events"]
    layers = t["layers"]
    ctrl = t["ctrl"]
    rounds = rec["sharded_rounds"]

    def per_event(layer):
        return ratio(layers[layer]["ns"], layers[layer]["events"])

    def key_us(key):
        return ratio(ctrl[key]["ns"], ctrl[key]["events"]) / 1e3

    return {
        "sim.events": (events, "count"),
        "sim.events_per_s": (ratio(events, run_ns / 1e9), "1/s"),
        "sim.ns_per_event": (ratio(run_ns - t["busy_ns"], events), "ns"),
        "sim.sharded.rounds": (rounds, "count"),
        "sim.sharded.events_per_round": (ratio(events, rounds), "count"),
        "sim.sharded.stalled_frac": (ratio(rec["sharded_stalled"], rounds * rec["shards"]), "ratio"),
        "sim.sharded.us_per_round": (ratio(run_ns / 1e3, rounds), "us"),
        "core.controller.events": (layers["controller"]["events"], "count"),
        "core.controller.ns_per_event": (per_event("controller"), "ns"),
        "core.controller.busy_frac": (ratio(layers["controller"]["ns"], run_ns), "ratio"),
        "core.controller.revoke_us": (key_us("cap_revoke"), "us"),
        "core.controller.cleanup_us": (key_us("peer.cleanup"), "us"),
        "core.controller.invoke_us": (key_us("request_invoke"), "us"),
        "core.controller.memcopy_us": (key_us("memory_copy"), "us"),
        "cap.live_caps": (rec["live_caps"], "count"),
        "core.wire.encode_ns_per_msg": (ratio(t["wire_ns"], t["wire_msgs"]), "ns"),
        "core.wire.bytes_per_msg": (ratio(t["wire_bytes"], t["wire_msgs"]), "B"),
        "devices.gpu.events": (layers["gpu"]["events"], "count"),
        "devices.gpu.ns_per_event": (per_event("gpu"), "ns"),
        "devices.nvme.events": (layers["nvme"]["events"], "count"),
        "devices.nvme.ns_per_event": (per_event("nvme"), "ns"),
        "services.client.ns_per_event": (per_event("client"), "ns"),
        "services.frontend.ns_per_event": (per_event("frontend"), "ns"),
        "services.fs.ns_per_event": (per_event("fs"), "ns"),
        "baselines.raw.ns_per_event": (per_event("raw"), "ns"),
        "net.data_msgs_per_op": (ratio(rec["net_data_msgs"], rec["ops"]), "msgs/op"),
    }


def per_layer(untraced, traced):
    per_rep = [layer_metrics(r) for r in traced]
    out = {name: (statistics.median(m[name][0] for m in per_rep), unit)
           for name, (_, unit) in per_rep[0].items()}
    plain = statistics.median(r["run_s"] for r in untraced)
    with_trace = statistics.median(r["run_s"] for r in traced)
    out["obs.trace_overhead"] = (with_trace / plain - 1.0, "ratio")
    return out


def check(reps, traced):
    """Output, determinism and layer-accounting checks; returns problems."""
    problems = []
    for r in reps + traced:
        problems += r["failures"]
    base = {k: reps[0][k] for k in DETERMINISTIC}
    for r in reps[1:] + traced:
        diff = [k for k in DETERMINISTIC if r[k] != base[k]]
        if diff:
            kind = "traced" if "trace" in r else "untraced"
            problems.append(f"{kind} repetition differs from the first in {diff}")
    for r in traced:
        busy_ns, run_ns = r["trace"]["busy_ns"], r["run_s"] * 1e9
        # Actor handlers run one at a time per worker thread, so the time
        # charged to layers cannot exceed the run's wall time per worker.
        if busy_ns > run_ns * r["workers"]:
            problems.append(f"layer time {busy_ns} ns exceeds run time "
                            f"{run_ns:.0f} ns x {r['workers']} workers")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    reps, traced, lost = [], [], 0
    start = time.monotonic()
    while True:
        want_traced = args.trace == 1 and len(traced) < len(reps)
        rec = run_rep(binary, args.workload, args.seed, want_traced)
        if rec is None:
            lost += 1
            break
        (traced if want_traced else reps).append(rec)
        elapsed = time.monotonic() - start
        enough = len(reps) >= MIN_REPS and (args.trace == 0 or len(traced) >= MIN_TRACED_REPS)
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_STOP_S:
            break

    r0 = reps[0] if reps else None
    if r0 is not None:
        print(f"# workload={r0['workload']} backend={r0['backend']} "
              f"workers={r0['workers']} seed={r0['seed']} reps={len(reps)} "
              f"traced_reps={len(traced)} held_out_seed={HELD_OUT_SEED}")
    problems = check(reps, traced) if reps else []
    for p in problems:
        log(f"perfbench: check failed: {p}")
    ops = r0["ops"] if r0 else 1
    attempted = sum(r["ops"] for r in reps + traced) + lost * ops
    failed = sum(r["ops"] - r["verified"] for r in reps + traced) + lost * ops
    correct = lost == 0 and not problems and failed == 0 and bool(reps)
    metrics = {}
    if reps and (args.trace == 0 or traced):
        chosen = end_to_end(reps) if args.trace == 0 else per_layer(reps, traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
