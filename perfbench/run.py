#!/usr/bin/env python3
"""Benchmark entry point: builds the workload program, runs one workload
for a fixed host-time budget, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload fabric_poll --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The program is built from the checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

--trace 0 prints the end-to-end metrics, taken over several workload
processes, each a fresh single-threaded process with its own set-up.
--trace 1 runs a timed and a traced process of the workload and prints
the per-layer metrics of the traced one plus trace.overhead_pct.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count workload processes and a process fails when
it crashes or any output check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
if not BUILD.is_absolute():
    BUILD = ROOT / BUILD
BUILD = BUILD / "perfbench"
PROGRAM = BUILD / "perfbench_workload"

WORKLOADS = ("fabric_poll", "lirtss_service")

# End-to-end metrics. Host metrics are measured by each process and
# reported as the median over processes; simulated metrics are
# deterministic for a seed and must be identical across processes.
HOST_METRICS = ("setup_s", "wall_per_sim_s", "polls_per_cpu_s", "peak_rss_mb")
SIMULATED_METRICS = (
    "poll_round_sim_ms_p50",
    "poll_round_sim_ms_p95",
    "poll_fail_ratio",
    "path_err_pct",
    "query_sim_ms_p50",
    "query_sim_ms_p99",
    "query_fail_ratio",
)

PER_LAYER = (
    "setup.topology_ms", "setup.network_ms", "setup.agents_ms",
    "setup.monitor_ms",
    "netsim.events", "netsim.frames", "netsim.events_per_frame",
    "netsim.queue_depth_max", "netsim.frames_dropped",
    "snmp.requests", "snmp.responses", "snmp.timeouts", "snmp.retries",
    "snmp.responses_per_request", "snmp.payload_bytes_per_poll",
    "snmp.rtt_sim_ms_p95", "snmp.agent_requests", "snmp.mib_get_next_us_p50",
    "snmp.mib_get_next_us_p99", "snmp.mib_fdb_walk_ms", "snmp.ber_encode_us",
    "snmp.ber_decode_view_us",
    "monitor.rounds", "monitor.polls", "monitor.poll_failures",
    "monitor.polls_skipped", "monitor.quarantine_transitions",
    "monitor.path_samples", "monitor.module_dispatch_us_p50",
    "monitor.module_dispatch_us_p99", "monitor.current_usage_us",
    "history.samples", "history.series", "history.downsample_merges",
    "history.bytes_per_interface", "history.footprint_mb", "history.queries",
    "history.query_us_p50", "history.query_us_p99",
    "query.requests", "query.bad_requests", "query.bytes_out_per_request",
    "query.window_us_p50", "query.window_us_p99", "query.health_us_p50",
    "probe.packets", "probe.wire_bytes", "probe.estimates",
    "probe.estimates_per_kpacket", "probe.intrusiveness",
    "wire.snmp_share_pct", "wire.query_share_pct", "wire.probe_share_pct",
    "wire.load_share_pct",
)

# A median needs at least three processes to reject one disturbed
# process.
MIN_PROCESSES = 3
# Every process of a run must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    """Configures once, then rebuilds incrementally; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:3])} exited {done.returncode}")


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_header():
    """Records what was measured; refuses builds unfit for timing."""
    try:
        info = json.loads(subprocess.run(
            [str(PROGRAM), "--build-info"], capture_output=True, text=True,
            timeout=30, check=True).stdout)
    except (OSError, subprocess.SubprocessError, ValueError) as error:
        fail(f"cannot query the workload program: {error}")
    if not info.get("timing_build"):
        fail("workload program built without NDEBUG and optimisation")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "nproc": os.cpu_count(),
    }


def spawn(workload, seed, traced=False, trace_out=None):
    """Runs one workload process; returns its report or None on failure."""
    command = [str(PROGRAM), "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: process timed out")
        return None
    # Exit 4: the process ran to the end but an output check failed.
    if done.returncode not in (0, 4):
        log(f"{workload} seed {seed}: exit {done.returncode}: "
            f"{done.stderr.strip()[-400:]}")
        return None
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: unreadable report")
        return None
    for name, check in report["checks"].items():
        if not check["ok"]:
            log(f"{workload} seed {seed}: check {name} failed: "
                f"{check['detail']}")
    return report


def value(report, name):
    return report["metrics"][name]["value"]


def same_simulation(reports, problems, label):
    """Same seed: same digest and bit-identical simulated metrics."""
    first = reports[0]
    for other in reports[1:]:
        if other["digest"] != first["digest"]:
            problems.append(f"{label}: digest {other['digest']} != "
                            f"{first['digest']}")
        for name in SIMULATED_METRICS:
            if value(other, name) != value(first, name):
                problems.append(f"{label}: {name} {value(other, name)!r} != "
                                f"{value(first, name)!r}")


def timed_run(args, reports, problems):
    full = []
    begin = time.monotonic()
    # Start another process only while it should finish inside the
    # budget, judging by the mean length of those already run.
    while len(full) < MIN_PROCESSES or \
            (time.monotonic() - begin) * (len(full) + 1) <= \
            args.seconds * len(full):
        report = spawn(args.workload, args.seed)
        reports.append(report)
        if report is None:
            break
        full.append(report)
    if len(full) < MIN_PROCESSES:
        problems.append(f"fewer than {MIN_PROCESSES} complete workload "
                        "processes")
        return {}
    same_simulation(full, problems, "repeat run")
    metrics = {}
    for name in HOST_METRICS:
        metrics[name] = (statistics.median(value(r, name) for r in full),
                         full[0]["metrics"][name]["unit"])
    for name in SIMULATED_METRICS:
        metrics[name] = (value(full[0], name), full[0]["metrics"][name]["unit"])
    log(f"{len(full)} timed processes; counts of the first: "
        f"{json.dumps(full[0]['counts'], sort_keys=True)}")
    return metrics


def traced_run(args, reports, problems):
    timed, traced = [], []
    trace_out = BUILD / f"trace-{args.workload}-{args.seed}.jsonl"
    begin = time.monotonic()
    while not traced or (time.monotonic() - begin) * (len(traced) + 1) <= \
            args.seconds * len(traced):
        pair = (spawn(args.workload, args.seed),
                spawn(args.workload, args.seed, traced=True,
                      trace_out=trace_out))
        reports.extend(pair)
        if None in pair:
            break
        timed.append(pair[0])
        traced.append(pair[1])
    if not traced:
        problems.append("no complete timed/traced pair")
        return {}
    # Tracing must not perturb the simulation.
    same_simulation(timed + traced, problems, "traced vs timed")
    metrics = {}
    for name in PER_LAYER:
        if name not in traced[0]["metrics"]:
            problems.append(f"traced run lacks {name}")
            continue
        metrics[name] = (statistics.median(value(r, name) for r in traced),
                         traced[0]["metrics"][name]["unit"])
    # From the timed processes: the traced one's run time includes the
    # census filter on every frame hop and the per-slice counter scans.
    metrics["netsim.ns_per_event"] = (statistics.median(
        r["counts"]["run_wall_ns"] / r["counts"]["sim_events"]
        for r in timed), "ns")
    wall_timed = statistics.median(r["counts"]["run_wall_ns"] for r in timed)
    wall_traced = statistics.median(r["counts"]["run_wall_ns"] for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (wall_traced / wall_timed - 1.0),
                                     "%")
    log(f"{len(traced)} timed/traced pairs; spans in {trace_out}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    header = build_header()
    print("# perfbench " + json.dumps(
        dict(header, workload=args.workload, seed=args.seed,
             seconds=args.seconds, trace=args.trace), sort_keys=True))

    reports, problems = [], []
    run = traced_run if args.trace else timed_run
    metrics = run(args, reports, problems)
    failed = sum(1 for r in reports if r is None or not r["ok"])
    for problem in problems:
        log("perfbench: " + problem)
    for name, (number, unit) in sorted(metrics.items()):
        print(f"{name:34s} {number:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": number, "unit": unit}
                    for name, (number, unit) in sorted(metrics.items())},
    }))
    if failed or problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
