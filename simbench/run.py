#!/usr/bin/env python3
"""Fixed-schedule SimCluster benchmark: build, run, check and report.

    python3 simbench/run.py --input-seed 1000 --workload pathvector-noauth \\
        --seed 1 --seconds 25 --trace 0

Run from the root of a SecureBlox checkout. Builds simbench/ (and the
libraries it links) into .bench_build/simbench, then starts one simbench
process per repetition until --seconds have passed: every repetition is a
cold process, so set-up always includes RSA key generation. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json: medians over the repetitions, times calibrated by the host
probe (see PROBE_S). With --trace 1 traced and plain repetitions alternate
and the metrics are the per-layer ones: medians over the traced
repetitions, in raw seconds.

Seeds: --input-seed picks the workload's shape (graph, join values, key
set); --seed relabels/shuffles that input and seeds the simulated network.
A repetition fails when it crashes, its answer check fails, or a payload
is rejected. The run is incorrect when any repetition failed or when the
counts in REPEAT_KEYS differ between any two repetitions, traced or not:
the schedule is fixed, so a difference means wall time leaked into it.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"

MIN_PLAIN_REPS = 5
MIN_TRACED_REPS = 3
# Stop starting repetitions after this long, whatever the minimums say,
# and kill any repetition still running at the deadline: a run must end
# within three minutes.
LAUNCH_CUTOFF_S = 120
DEADLINE_S = 170

# Every repetition does identical work, yet on a shared host its wall time
# swings by tens of percent for minutes at a time with other tenants' load.
# Each simbench process therefore also times a fixed hash-table probe
# (HostProbe in simbench.cc) before and after its run, and the end-to-end
# times are reported as seconds on a host where that probe takes PROBE_S:
# measured time x PROBE_S / measured probe time. The raw times are in the
# provenance line.
PROBE_S = 0.05
CALIBRATED = ("converge_s", "cpu_s", "setup_s")

REPEAT_KEYS = ("net.messages", "net.bytes", "dist.delivery_txns",
               "dist.local_txns", "dist.handoff_rows", "dist.rerouted",
               "engine.transactions", "engine.rule_firings",
               "engine.derived_tuples", "engine.fixpoint_rounds",
               "engine.retractions", "wire_kb_per_node", "node_kb_max")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark binary."""
    if shutil.which("cmake") is None:
        sys.exit("simbench: cmake not found")
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("simbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", str(BUILD), "--target", "simbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        sys.exit("simbench: build failed")
    return BUILD / "simbench"


def repetition(binary, args, traced, spans, timeout):
    """One cold simbench process; returns its record (ok=False on failure)."""
    cmd = [str(binary), "--workload", args.workload,
           "--input-seed", str(args.input_seed),
           "--shuffle-seed", str(args.seed), "--net-seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    # Engine knobs (SB_THREADS, SB_SHARDS, SB_PLAN, ...) stay unset: the
    # benchmark measures the defaults, and simbench refuses to run with them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SB_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "traced": traced,
               "error": "exit %d: %s" % (proc.returncode,
                                         proc.stderr.strip()[-300:])}
    if proc.returncode != 0:
        rec["ok"] = False
    if rec.get("rejected", 0) != 0 or rec.get("crypto.open_failures", 0) != 0:
        rec["ok"] = False
        rec["error"] = "rejected payloads"
    return rec


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(rec, name):
    """A plain repetition's value of an end-to-end metric; times are in
    seconds of a host on which the probe takes PROBE_S."""
    if name in CALIBRATED:
        return rec[name] * PROBE_S / rec["host.probe_s"]
    return rec[name]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--input-seed", type=int, required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.input_seed < 0:
        sys.exit("simbench: seeds must be non-negative")

    binary = build()
    spans = None
    if args.trace:
        spans = BUILD / "spans" / ("%s-seed%d.jsonl" % (args.workload,
                                                        args.seed))
        spans.parent.mkdir(parents=True, exist_ok=True)

    recs = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        plain = [r for r in recs if not r["traced"]]
        traced = [r for r in recs if r["traced"]]
        need = (len(plain) < MIN_PLAIN_REPS if not args.trace else
                min(len(plain), len(traced)) < MIN_TRACED_REPS)
        if elapsed >= LAUNCH_CUTOFF_S or (elapsed >= args.seconds and
                                          not need):
            break
        # Trace runs alternate traced and plain repetitions, so both sides
        # see the same host conditions; only the first traced one keeps
        # its spans.
        want_traced = bool(args.trace) and len(traced) <= len(plain)
        rec = repetition(binary, args, want_traced,
                         spans if want_traced and not traced else None,
                         DEADLINE_S - elapsed)
        rec["traced"] = want_traced
        recs.append(rec)
        log("%s seed %d %s: %s converge_s=%s setup_s=%s%s" % (
            args.workload, args.seed, "traced" if want_traced else "plain",
            "ok" if rec["ok"] else "FAILED", rec.get("converge_s"),
            rec.get("setup_s"), "" if rec["ok"] else " " + rec["error"]))

    good = [r for r in recs if r["ok"]]
    failed = len(recs) - len(good)
    repeat_ok = True
    for key in REPEAT_KEYS:
        values = {r.get(key) for r in good}
        if len(values) > 1:
            repeat_ok = False
            log("exact-repeat guard: %s differs across repetitions: %s" %
                (key, sorted(values, key=str)))

    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if args.trace:
        metrics = spec["per_layer"]
        values = {m["name"]: median(r[m["name"]] for r in traced
                                    if m["name"] in r) for m in metrics}
        values["trace.converge_s"] = median(r["converge_s"] for r in traced)
        # Calibrated on both sides, or host drift swamps the difference.
        values["trace.overhead_s"] = (
            median(end_to_end(r, "converge_s") for r in traced) -
            median(end_to_end(r, "converge_s") for r in plain))
    else:
        metrics = spec["end_to_end"]
        values = {m["name"]: median(end_to_end(r, m["name"]) for r in plain)
                  for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}

    first = good[0] if good else {}
    provenance = {
        "workload": args.workload, "input_seed": args.input_seed,
        "seed": args.seed, "nproc": os.cpu_count(),
        "hardware_threads": first.get("hardware_threads"),
        "simd": first.get("simd"), "compiler": first.get("compiler"),
        "build_type": first.get("build_type"),
        "probe_s": PROBE_S,
        "raw": [{k: r.get(k) for k in ("traced", "converge_s", "cpu_s",
                                       "setup_s", "host.probe_s")}
                for r in good],
    }
    print("provenance " + json.dumps(provenance))
    result = {
        "correct": bool(good) and failed == 0 and repeat_ok,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
