#!/usr/bin/env python3
"""Trace reader: per-layer metrics of one traced run.

    python3 perfbench/trace_report.py <run record> <trace file>

The driver writes every span it recorded around its own calls into the
library (name, start, end, parent, request id) and the counter deltas it
read per request. This reader reports, per span name, the calls and the
self time per request (a span's duration minus the part of it that its
children cover), the counts per request, the ratios of the per-layer
table with their bases, how much of each request the layer spans cover,
and the tracing overhead (CPU time of traced against untraced requests
of the same run, which alternate).

The record is the run record run.py keeps under <build dir>/runs/: the
driver's JSON line plus the metrics computed from it.
"""

import json
import statistics
import sys

# Per-layer metrics every workload reports (BENCHMARK.json `per_layer`).
# Probe costs are measured by the driver on the inputs of the workload
# that exercises the layer; counts are per traced request and 0 where the
# workload never calls the layer.
PROBES = {
    "util.fork_join_us": "us",
    "engine.population_build_ms": "ms",
    "engine.covers_all_us": "us",
    "engine.probe_run_us": "us",
    "fault.tp_classes_ms": "ms",
    "setcover.redundancy_ms": "ms",
    "synth.search_ms": "ms",
    "synth.probes": "count",
    "synth.probe_cache_hits": "count",
    "synth.full_checks": "count",
    "synth.probe_us": "us",
    "march.render_parse_us": "us",
    "sim.faults_per_s": "1/s",
    "word.faults_per_s": "1/s",
}
COUNTS = ["engine.queries", "engine.cache_misses", "core.combinations",
          "atsp.nodes"]


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def covered_us(span, children):
    """Length of the union of the children's intervals inside `span`."""
    intervals = sorted((max(c["t0"], span["t0"]), min(c["t1"], span["t1"]))
                       for c in children)
    total = 0.0
    cursor = span["t0"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans):
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def self_times(spans):
    """{span id: self time in us}."""
    children = children_of(spans)
    return {s["id"]: (s["t1"] - s["t0"])
            - covered_us(s, children.get(s["id"], []))
            for s in spans}


def requests(spans):
    return [s for s in spans if s["name"] == "request"]


def span_cover(spans):
    """Share of the request spans' time their child (layer) spans cover."""
    children = children_of(spans)
    total = covered = 0.0
    for request in requests(spans):
        total += request["t1"] - request["t0"]
        covered += covered_us(request, children.get(request["id"], []))
    return covered / total if total > 0 else 0.0


def per_name(spans):
    """{name: (calls per request, ms per call, self ms per request)} over
    the spans below request roots."""
    n_requests = max(1, len(requests(spans)))
    selfs = self_times(spans)
    calls, duration, self_total = {}, {}, {}
    for span in spans:
        if span["parent"] < 0:
            continue
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        duration[name] = duration.get(name, 0.0) + span["t1"] - span["t0"]
        self_total[name] = self_total.get(name, 0.0) + selfs[span["id"]]
    return {name: (calls[name] / n_requests,
                   duration[name] / calls[name] / 1e3,
                   self_total[name] / n_requests / 1e3)
            for name in calls}


def counts_per_request(trace):
    totals, seen = {}, set()
    for count in trace["counts"]:
        totals[count["name"]] = totals.get(count["name"], 0.0) + count["value"]
        seen.add(count["req"])
    return {name: value / max(1, len(seen)) for name, value in totals.items()}


def tracing_overhead(record):
    """(p50 CPU time of traced over untraced requests, untraced p50 in
    ms). The two alternate within one run."""
    traced, untraced = [], []
    for cpu, on in zip(record["cpu_ms"], record["traced"]):
        (traced if on else untraced).append(cpu)
    if not traced or not untraced:
        return 1.0, 0.0
    base = statistics.median(untraced)
    return statistics.median(traced) / base, base


def layer_metrics(record, trace, everything=False):
    """{metric: (value, unit)}; `everything` adds the span-derived
    per-layer numbers of the workload that owns them."""
    spans = trace["spans"]
    values = record["values"]
    counts = counts_per_request(trace)
    out = {name: (values[name], unit) for name, unit in PROBES.items()}
    for name in COUNTS:
        out[name] = (counts.get(name, 0.0), "count")
    by_name = per_name(spans)
    local = by_name.get("engine.local_bit")
    fleet = by_name.get("engine.fleet_bit")
    fleet_ratio = (fleet[0] * fleet[1] / (local[0] * local[1])
                   if local and fleet else 0.0)
    out["net.fleet_overhead_ratio"] = (fleet_ratio, "ratio")
    out["trace.span_cover"] = (span_cover(spans), "ratio")
    overhead, untraced_p50_ms = tracing_overhead(record)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    if not everything:
        return out

    # Bases of the ratios above.
    out["trace.untraced_cpu_p50_ms"] = (untraced_p50_ms, "ms")
    for name, (calls, ms_per_call, self_ms) in by_name.items():
        out[f"{name}.calls_per_request"] = (calls, "count")
        out[f"{name}.ms_per_call"] = (ms_per_call, "ms")
        out[f"{name}.self_ms_per_request"] = (self_ms, "ms")
    if "core.generate" in by_name:
        out["core.generate_ms"] = (by_name["core.generate"][1], "ms")
    if local and fleet:
        word = by_name.get("engine.local_word", (0.0, 0.0, 0.0))
        out["engine.local_ms"] = (local[0] * local[1] + word[0] * word[1],
                                  "ms")
        out["engine.fleet_ms"] = (fleet[0] * fleet[1], "ms")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    record = load(argv[1])
    trace = load(argv[2])
    metrics = layer_metrics(record, trace, everything=True)
    width = max(len(name) for name in metrics)
    print(f"workload {record['workload']}: "
          f"{len(requests(trace['spans']))} traced request(s)")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<{width}}  {value:14.4f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
