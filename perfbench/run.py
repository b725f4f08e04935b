#!/usr/bin/env python3
"""The repo benchmark: one command per workload.

    python3 perfbench/run.py --workload desk_seq|served_mix --seed N \\
        --seconds S --trace 0|1

Builds the eslam library and the workload runner from source (CMake, into
.bench_build/perfbench under the current directory), renders the
workload's inputs from --seed, measures for --seconds, checks the outputs,
and prints every metric by name with its unit.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with the
benchmark's own spans off; with --trace 1 they are the per-layer ledger
from a separate traced run, which also writes a span file (Chrome trace
JSON) next to the build.  Exits non-zero when a correctness check fails
or the program cannot be built.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("desk_seq", "served_mix")

# name -> unit.  Every workload reports every metric.
END_TO_END = {
    "setup_s": "s",
    "fps": "1/s",
    "frame_p50_ms": "ms",
    "frame_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "features.extract_ms": "ms",
    "image.pyramid_ms": "ms",
    "features.fast_ms": "ms",
    "features.orient_ms": "ms",
    "features.brief_ms": "ms",
    "features.kept_frac": "frac",
    "accel.extract_host_ms": "ms",
    "accel.fe_sim_cycles": "cycles",
    "accel.fm_sim_cycles": "cycles",
    "slam.match_ms": "ms",
    "slam.gated_frac": "frac",
    "slam.match_frac": "frac",
    "slam.pose_ms": "ms",
    "slam.inlier_frac": "frac",
    "slam.optimize_ms": "ms",
    "slam.update_map_ms": "ms",
    "slam.keyframe_frac": "frac",
    "slam.map_points": "count",
    "slam.publishes": "1/frame",
    "slam.bytes_copied_mb": "MB/frame",
    "backend.job_ms": "ms",
    "backend.jobs": "1/frame",
    "runtime.device_busy_frac": "frac",
    "runtime.arm_busy_frac": "frac",
    "runtime.replayed_frac": "frac",
    "runtime.rejected_feeds": "count",
    "backend.jobs_rejected": "count",
    "slam.coldstart_ok": "frac",
    "bench.trace_overhead_frac": "frac",
}

# Printed with the ledger of the workloads that have them, not scored:
# served_mix alone has a scheduler queue and a service front door, and
# desk_seq alone has ground truth for its whole trajectory.
EXTRA_UNITS = {
    "ate_cm": "cm",
    "late_frac": "frac",
    "lost_frac": "frac",
    "fabric_sim_ms": "ms",
    "runtime.dispatch_wait_ms": "ms",
    "backend.queue_ms": "ms",
    "server.feed_us": "us",
    "server.poll_us": "us",
    "server.gen_lag_ms": "ms",
    "frozen_map_points": "count",
}

RUN_LIMIT_S = 175  # the whole command must end within 180 s after a build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the runner; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT):
                out.flush()
                with open(build_log) as f:
                    log("build failed (%s):\n%s" % (build_log, f.read()[-4000:]))
                return None
    return os.path.join(build_dir, "eslam_perfbench")


def percentile_line(name, samples, p, unit):
    got = stats.try_percentile(samples, p)
    if got is None:
        return "  %-28s refused: %d samples, fewer than %d beyond p%g" % (
            name, len(samples), stats.MIN_BEYOND, p)
    return "  %-28s %s" % (name, got.describe(unit))


def end_to_end(raw, lines):
    nums, samples = raw["numbers"], raw["samples"]
    frame_ms = samples["frame_ms"]
    p50 = stats.percentile(frame_ms, 50)
    p90 = stats.percentile(frame_ms, 90)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "fps": nums["fps"],
        "frame_p50_ms": p50.value,
        "frame_p90_ms": p90.value,
        "peak_rss_mb": nums["peak_rss_mb"],
    }
    lines.append("end-to-end (times paced to the reference kernel, see README):")
    lines.append("  %-28s %.4f s (median of %d set-ups)" % (
        "setup_s", metrics["setup_s"], len(samples["setup_s"])))
    lines.append("  %-28s %.4f 1/s" % ("fps", metrics["fps"]))
    lines.append("  %-28s %s" % ("frame_p50_ms", p50.describe("ms")))
    lines.append("  %-28s %s" % ("frame_p90_ms", p90.describe("ms")))
    lines.append("  %-28s %.4f MB" % ("peak_rss_mb", metrics["peak_rss_mb"]))
    lines.append("also measured (not scored):")
    lines.append(percentile_line("frame_p99_ms", frame_ms, 99, "ms"))
    lines.append("  %-28s %.4f s (wall, median of %d set-ups)" % (
        "wall_setup_s", statistics.median(samples["wall_setup_s"]),
        len(samples["wall_setup_s"])))
    for p in (50, 90):
        lines.append(percentile_line("wall_frame_p%d_ms" % p,
                                     samples["wall_frame_ms"], p, "ms"))
    for tier in ("map", "loc"):
        key = tier + "_frame_ms"
        if key in samples:
            for p in (50, 90):
                lines.append(percentile_line("%s_p%d_ms" % (tier, p),
                                             samples[key], p, "ms"))
    for key, unit in EXTRA_UNITS.items():
        if key in nums:
            lines.append("  %-28s %.4f %s" % (key, nums[key], unit))
    return metrics


def per_layer(raw, lines):
    nums, samples = raw["numbers"], raw["samples"]
    # Tracing overhead: median frame latency of the traced half against the
    # untraced half of the same run.
    nums["bench.trace_overhead_frac"] = (
        statistics.median(samples["traced_frame_ms"]) /
        statistics.median(samples["frame_ms"]) - 1.0)
    metrics = {name: nums[name] for name in PER_LAYER}
    lines.append("per-layer (traced run):")
    for name, unit in PER_LAYER.items():
        lines.append("  %-28s %.6g %s" % (name, metrics[name], unit))
    lines.append("also measured (not scored):")
    for key, unit in EXTRA_UNITS.items():
        if key in nums:
            lines.append("  %-28s %.6g %s" % (key, nums[key], unit))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    runner = build(build_dir)
    if runner is None:
        return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace-out", stem + ".spans.json"]
    start = time.monotonic()
    try:
        code = subprocess.run(cmd, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        log("workload runner exceeded %d s" % RUN_LIMIT_S)
        return 3
    if code != 0:
        log("workload runner exited with %d" % code)
        return 3
    with open(stem + ".json") as f:
        raw = json.load(f)

    lines = ["%s seed=%d seconds=%g trace=%d (ran %.1f s)" % (
        args.workload, args.seed, args.seconds, args.trace,
        time.monotonic() - start)]
    try:
        metrics = (per_layer if args.trace else end_to_end)(raw, lines)
    except stats.PercentileRefused as refused:
        log("cannot score this run: %s" % refused)
        return 4
    units = PER_LAYER if args.trace else END_TO_END

    lines.append("checks:")
    correct = True
    for check in raw["checks"]:
        correct = correct and check["ok"]
        lines.append("  [%s] %s: %s" % ("ok" if check["ok"] else "FAIL",
                                        check["name"], check["detail"]))
    lines.append("result file: %s.json" % stem)
    if args.trace:
        lines.append("span file:   %s.spans.json" % stem)
    print("\n".join(lines))

    nums = raw["numbers"]
    result = {
        "correct": correct,
        "attempted": int(nums["attempted"]),
        "failed": int(nums["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
