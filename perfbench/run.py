#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <generate|sweep>
        --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --check [--workload W]

Run from the root of a checkout. The driver is built from source into
$CARGO_TARGET_DIR (default .bench_build) with the benchmark's own CMake
package. Every driver process runs at MTG_THREADS=1 and pins itself to
one CPU.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
runs the traced variant and prints its per-layer metrics. Either way the
last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it carry the host fingerprint and the detail behind the
numbers. Each run's record is kept under <build dir>/runs/ for
compare.py and trace_report.py.

--check runs a few requests of each workload with every output check
and exits non-zero on any failure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import trace_report  # noqa: E402

WORKLOADS = ("generate", "sweep")
# Fixed tail percentile: the highest of PERCENTILE_LADDER that leaves at
# least MIN_SHARE_BEYOND of a run's samples beyond it, and at least
# MIN_BEYOND samples at half the expected rate (MIN_RATE_PER_S is half
# the rate measured on a quiet 4-vCPU host). The share rule exists
# because samples beyond a high percentile are not independent: the host
# slows every request during a slow spell, and the tail must stay inside
# the spells' share of a run to hold still (an earlier synth workload's
# p98 read 46-90 ms across ten runs).
PERCENTILE_LADDER = (90, 95, 97, 98, 99, 99.5, 99.8, 99.9)
MIN_SHARE_BEYOND = 0.05
TAIL_PERCENTILE = 95
MIN_RATE_PER_S = {"generate": 12, "sweep": 6}
MIN_BEYOND = 10
# Fresh set-up processes per run, before and after the measured one; the
# median of theirs and the measured run's own is setup_s. Set-up CPU time
# follows the host's fast and slow states like every request does, and
# the states last from seconds to minutes: samples a run apart straddle
# a change of state where back-to-back ones would all land in one.
SETUP_BEFORE = 2
SETUP_AFTER = 3
# One lane: at two, every fork/join woke a second vCPU, and a request's
# cost flipped between two modes (generate: 34 and 49 ms of CPU time) as
# the host placed the threads. The driver pins itself to one CPU, so the
# pool must not pin workers of its own.
LANES = "1"
AFFINITY = "off"
DRIVER_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_driver():
    """Configures once, then lets the build tool decide what is stale."""
    out = build_dir() / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out / "CMakeCache.txt").exists():
        _quiet(["cmake", "-S", str(HERE), "-B", str(out),
                "-DCMAKE_BUILD_TYPE=Release", *generator])
    _quiet(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 2)])
    return out / "perfbench_driver"


def _quiet(command):
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail(f"build step failed: {' '.join(command)}")


def driver_env():
    env = dict(os.environ)
    env["MTG_THREADS"] = LANES
    env["MTG_AFFINITY"] = AFFINITY
    return env


def run_driver(driver, workload, *args):
    """Runs one driver process and returns its JSON record."""
    command = [str(driver), workload, *map(str, args)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=driver_env(), cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out: {' '.join(command)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {done.returncode}): "
             f"{' '.join(command)}")
    record = json.loads(lines[-1])
    record["exit_code"] = done.returncode
    return record


# ---- statistics -------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile p (0-100) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count, p):
    """Samples strictly above percentile p in a run of `count` samples."""
    return count - 1 - int((count - 1) * p / 100.0)


def tail_supported(count, p):
    return (samples_beyond(count, p) >= MIN_BEYOND
            and (100 - p) / 100 >= MIN_SHARE_BEYOND)


def wall_ms(record):
    """Wall-clock latency of each request, in ms."""
    return [(done - start) * 1e3
            for start, done in zip(record["start_s"], record["done_s"])]


def end_to_end(workload, record, setup_records):
    """The metrics BENCHMARK.json bounds. The time metrics are CPU time of
    the whole process (all its threads): with paravirtual steal accounting
    that leaves out the time the host gave this guest's vCPU to someone
    else, which wall time counts in full."""
    cpu = record["cpu_ms"]
    if not tail_supported(len(cpu), TAIL_PERCENTILE):
        print(f"perfbench: warning: p{TAIL_PERCENTILE} of {len(cpu)} samples "
              f"has fewer than {MIN_BEYOND} beyond it", file=sys.stderr)
    setup = [r["setup_cpu_s"] for r in setup_records + [record]]
    return {
        "cpu_tail_ms": (percentile(cpu, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def detail(workload, record, setup_records):
    """Context printed before the result line. The median and the
    throughput are here, not bounded: the host runs this guest in a fast
    and a slow state that each last from seconds to minutes (requests
    take 1.3-1.8x more CPU time in the slow one), and the median and the
    mean follow whichever state held more of the run."""
    cpu = record["cpu_ms"]
    wall = wall_ms(record)
    setups = setup_records + [record]
    return {
        "workload": workload,
        "fingerprint": record["fingerprint"],
        "load_average": record["load_average"],
        "steal_share": record["steal_share"],
        "samples": len(cpu),
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": samples_beyond(len(cpu), TAIL_PERCENTILE),
        "cpu_p50_ms": statistics.median(cpu),
        "requests_per_cpu_s": record["completed"] / record["cpu_s"],
        "wall_p50_ms": statistics.median(wall),
        "wall_tail_ms": percentile(wall, TAIL_PERCENTILE),
        "wall_throughput_per_s": record["completed"] / record["elapsed_s"],
        "setup_cpu_s": [r["setup_cpu_s"] for r in setups],
        "setup_wall_s": [r["setup_s"] for r in setups],
        "cpu_histogram_ms": histogram(cpu),
        "errors": record["errors"],
    }


def histogram(values, buckets=12):
    """Log-spaced counts, enough to see whether p50 and the tail sit in a
    populated mode or between two request-cost classes."""
    low, high = min(values), max(values)
    if high <= low:
        return {f"{low:.3f}": len(values)}
    ratio = (high / low) ** (1.0 / buckets) if low > 0 else None
    edges = [low * ratio ** i for i in range(buckets + 1)] if ratio else \
        [low + (high - low) * i / buckets for i in range(buckets + 1)]
    counts = [0] * buckets
    for value in values:
        index = next((i for i in range(buckets) if value <= edges[i + 1]),
                     buckets - 1)
        counts[index] += 1
    return {f"{edges[i]:.3f}-{edges[i + 1]:.3f}": counts[i]
            for i in range(buckets)}


# ---- main -------------------------------------------------------------------

def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def save_record(record, name):
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def measure(driver, workload, seed, seconds, traced):
    spec = benchmark_spec()

    def setups(count):
        # The traced run reports no setup_s, so it starts no set-ups.
        return [] if traced else [
            run_driver(driver, workload, "--seed", seed, "--mode", "setup")
            for _ in range(count)]

    setup_records = setups(SETUP_BEFORE)
    args = ["--seed", seed, "--seconds", seconds, "--mode", "run"]
    trace_path = None
    if traced:
        runs = build_dir() / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        trace_path = runs / f"{workload}-seed{seed}.trace.json"
        args += ["--trace-file", trace_path]
    record = run_driver(driver, workload, *args)
    if not record["cpu_ms"]:
        fail(f"{workload}: no request completed: {record['errors']}")
    setup_records += setups(SETUP_AFTER)
    failed = record["failed"] + sum(r["failed"] for r in setup_records)
    attempted = record["attempted"]
    exit_ok = all(r["exit_code"] == 0 for r in setup_records + [record])

    if traced:
        computed = trace_report.layer_metrics(
            record, trace_report.load(trace_path), everything=True)
        wanted = spec["per_layer"]
    else:
        computed = end_to_end(workload, record, setup_records)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in computed:
            fail(f"{workload}: metric {name} not measured")
        metrics[name] = {"value": computed[name][0], "unit": metric["unit"]}

    info = detail(workload, record, setup_records)
    if traced:
        info["layers"] = {name: value
                          for name, (value, _) in sorted(computed.items())}
    print(json.dumps(info))
    record.update(trace=int(traced), metrics=metrics,
                  setup_cpu_samples_s=info["setup_cpu_s"])
    save_record(record, f"{workload}-seed{seed}-trace{int(traced)}.json")
    correct = failed == 0 and exit_ok and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def check(driver, workloads):
    """Every output check on a few requests of each workload."""
    attempted = failed = 0
    for workload in workloads:
        record = run_driver(driver, workload, "--seed", 1, "--mode", "check")
        attempted += record["attempted"]
        failed += record["failed"] or int(record["exit_code"] != 0)
        status = "ok" if record["failed"] == 0 and record["exit_code"] == 0 \
            else "FAILED " + "; ".join(record["errors"])
        print(f"check {workload}: {record['attempted']} request(s), {status}")
    return attempted, failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every output check on a few requests")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required")

    driver = build_driver()
    if args.check:
        workloads = [args.workload] if args.workload else WORKLOADS
        attempted, failed = check(driver, workloads)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed}))
        return 0 if failed == 0 else 1
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    measure(driver, args.workload, args.seed, seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
