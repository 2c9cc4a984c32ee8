#!/usr/bin/env python3
"""End-to-end benchmark of the unisamp library (see README.md).

    python3 perfbench/run.py --workload ingest-sharded --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark binary from the checked-out sources (into .bench_build/
at the repository root), runs one workload for --seconds, checks its
outputs, prints every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Exits non-zero when a
correctness check fails or the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import metrics as m

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "unisamp_perfbench")
WORKLOADS = ("ingest-sharded", "overlay-colluding", "replay-defended")
# The in-loop spans of a step must cover its duration to within this share.
SPAN_COVERAGE_TOLERANCE = 0.02


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if rc != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd[:2]))


def run_binary(args, raw_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--dir", WORK]
    try:
        rc = subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if rc != 0:
        fail("benchmark binary exited with %d" % rc)
    with open(raw_path) as f:
        return json.load(f)


def throughput(passes):
    """Ids per second of step time.  A total, not a median step: this host
    switches between two speeds some 30% apart every few seconds, and a
    median step jumps to whichever speed held most of the run, while the
    total moves with the mix."""
    return (sum(p["ids"] for p in passes) /
            sum(t for p in passes for t in p["step_ns"]) * 1e9)


def end_to_end(raw, problems):
    passes = raw["passes"]
    steps = [t for p in passes for t in p["step_ns"]]
    tail = m.tail_percentile(len(steps))
    if tail is None or tail < 99.0:
        problems.append("%d steps: too few for p99" % len(steps))
    q = raw["quality"]
    return {
        "ids_per_s": (throughput(passes), "1/s"),
        "step_p50_ms": (m.percentile(steps, 50) / 1e6, "ms"),
        "step_p99_ms": (m.percentile(steps, 99) / 1e6, "ms"),
        "setup_s": (statistics.median(p["setup_ns"] for p in passes) / 1e9,
                    "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "output_kl": (m.kl_from_uniform(q["correct_counts"]), "nats"),
        "output_pollution": (m.pollution(q["malicious"], q["total"]), "ratio"),
    }


def per_layer(raw, problems):
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    n = len(traced)
    spans = [tuple(s) for s in raw["spans"]]
    totals = m.layer_totals(spans)
    c = raw["counters"]
    workload = raw["workload"]

    def span_ns(name):
        return totals.get(name, {}).get("total", 0)

    def per(name, count):
        return span_ns(name) / count if count else 0.0

    ids = sum(p["ids"] for p in traced)
    ladder_ids = c.get("ladder.ids", 0) * n
    sketch_ns = per("sketch", ladder_ids)
    sampler_ns = per("sampler", ladder_ids)
    service_ns = per("service", ladder_ids)
    step = totals.get("step", {"total": 0, "self": 0})
    coverage = 1.0 - step["self"] / step["total"] if step["total"] else 0.0
    if abs(1.0 - coverage) > SPAN_COVERAGE_TOLERANCE:
        problems.append("spans cover %.4f of the step time" % coverage)
    out = {
        "stream.replay_ns_per_id": (per("replay", ids), "ns"),
        "stream.trace_bytes_per_id": (c.get("stream.trace_bytes_per_id", 0),
                                      "B"),
        "sketch.ns_per_id": (sketch_ns, "ns"),
        "sketch.bytes_per_id": (c.get("sketch.bytes_per_id", 0), "B"),
        "sketch.min_counter": (c.get("sketch.min_counter", 0), "count"),
        "sketch.total_count": (c.get("sketch.total_count", 0), "count"),
        "sampler.self_ns_per_id": (sampler_ns - sketch_ns, "ns"),
        "sampler.gamma_turnover_per_kid": (
            1000.0 * c.get("gamma.fresh", 0) / c["ladder.ids"]
            if c.get("ladder.ids") else 0.0, "count"),
        "service.self_ns_per_id": (service_ns - sampler_ns, "ns"),
        "service.sample_ns": (per("sample", c.get("service.queries", 0) * n),
                              "ns"),
        "sharded.ns_per_id": (per("pipeline", ids), "ns"),
        "sharded.serial_ns_per_id": (per("serial", ids), "ns"),
        "sharded.speedup": (span_ns("serial") / span_ns("pipeline")
                            if span_ns("pipeline") else 0.0, "x"),
        "sharded.shard_skew": (c.get("sharded.shard_skew", 0), "x"),
        "detector.ns_per_id": (per("detector", ids), "ns"),
        "detector.windows": (c.get("detector.windows", 0), "count"),
        "detector.alarms": (c.get("detector.alarms", 0), "count"),
        "detector.rekeys": (c.get("detector.rekeys", 0), "count"),
        "detector.rekey_us": (per("rekey", totals.get("rekey", {})
                                  .get("count", 0)) / 1e3, "us"),
        "metrics.measure_us": (per("measure", totals.get("measure", {})
                                   .get("count", 0)) / 1e3, "us"),
        "adversary.malicious_ids": (c.get("adversary.malicious_ids", 0),
                                    "count"),
        "trace.span_coverage": (coverage, "ratio"),
        "trace.overhead_ids_per_s": (
            throughput(traced) - throughput(untraced) if untraced else 0.0,
            "1/s"),
    }
    sent = c.get("sim.messages_sent", 0)
    overlay_ns = service_ns if workload == "overlay-colluding" else 0.0
    delivered = c.get("sim.messages_delivered", 0)
    out.update({
        "service.overlay_ns_per_id": (overlay_ns, "ns"),
        # Event-engine time per sent message: tick time less the service
        # work its deliveries cost at the probe node's per-id rate.
        "sim.ns_per_message": (
            (span_ns("tick") - overlay_ns * delivered * n) / (sent * n)
            if sent else 0.0, "ns"),
        "sim.events_processed": (c.get("sim.events_processed", 0), "count"),
        "sim.messages_sent": (sent, "count"),
        "sim.delivery_ratio": (delivered / sent if sent else 0.0, "ratio"),
        "sim.dropped_overflow": (c.get("sim.dropped_overflow", 0), "count"),
        "sim.in_flight": (c.get("sim.in_flight", 0), "count"),
        "sim.peak_queue_depth": (c.get("sim.peak_queue_depth", 0), "count"),
        "sim.peak_inbox_backlog": (c.get("sim.peak_inbox_backlog", 0),
                                   "count"),
    })
    return out


def check_checksum(raw, problems):
    """The output checksum of a seed must not change between runs of the
    same binary (keyed by its hash, so rebuilt code starts afresh)."""
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(WORK, "checksums", "%s-%d-%s.txt" %
                        (raw["workload"], raw["seed"], binary))
    checksum = raw["passes"][0]["checksum"]
    if os.path.isfile(path):
        with open(path) as f:
            if f.read().strip() != checksum:
                problems.append("output checksum differs from an earlier run")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(checksum + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    raw_path = os.path.join(WORK, "raw-%s-%d-%d.json" %
                            (args.workload, args.seed, args.trace))
    raw = run_binary(args, raw_path)
    if not raw["passes"]:
        fail("no pass completed: " + "; ".join(raw["failures"]))

    problems = list(raw["failures"])
    check_checksum(raw, problems)
    table = per_layer(raw, problems) if args.trace else \
        end_to_end(raw, problems)
    failed = raw["failed"] + (len(problems) - len(raw["failures"]))
    attempted = max(raw["attempted"], failed, 1)
    correct = not problems

    steps = sum(len(p["step_ns"]) for p in raw["passes"])
    fp = raw["fingerprint"]
    print("workload %s  seed %d  trace %d" %
          (args.workload, args.seed, args.trace))
    print("machine  " + "  ".join("%s=%s" % (k, fp[k])
                                  for k in m.FINGERPRINT_KEYS))
    print("samples  %d steps in %d passes (%d traced); p99 needs 1000" %
          (steps, len(raw["passes"]),
           sum(p["traced"] for p in raw["passes"])))
    for name, (value, unit) in table.items():
        print("  %-32s %16.6g %s" % (name, value, unit))
    print("  %-32s %16.6g %s   (%d failed / %d ops)" %
          ("error_rate", failed / attempted, "ratio", failed, attempted))
    for p in problems:
        print("CHECK FAILED: " + p)

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": fp, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in table.items()}}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
