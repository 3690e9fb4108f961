#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py --base <run records...> --new <run records...>

Run records are the JSON files run.py keeps under <build dir>/runs/
(one per run, untraced). For every workload and end-to-end metric the
table shows each side's median and quartile spread and the change in
the metric's worse direction against its bound from BENCHMARK.json:

  ok          no worse than the bound
  REGRESSION  worse than the bound, and the base's own spread is within it
  unresolved  the base's spread is wider than the bound, unless every new
              run reads better than every base run

Runs whose host fingerprints differ (cores, CPUs used, CPU model, ISA,
lane width and ISA, lanes, MTG_AFFINITY) are not comparable: the script
says which fields differ and exits 2. Exit 1 means a regression, 0 none.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """Untraced run records (traced ones carry per-layer metrics)."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record.get("trace"):
            records.append(record)
    return records


def fingerprint_mismatch(records):
    """Fields whose values differ between any two records."""
    fields = {}
    for record in records:
        for key, value in record["fingerprint"].items():
            fields.setdefault(key, set()).add(json.dumps(value))
    return {key: sorted(values) for key, values in fields.items()
            if len(values) > 1}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, base, new):
    """(relative worsening, verdict) of `new` against `base`."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (new_median - base_median) / base_median
    if worse <= metric["bound"]:
        return worse, "ok"
    if spread(base) <= metric["bound"]:
        return worse, "REGRESSION"
    always_better = (max(new) < min(base) if sign > 0
                     else min(new) > max(base))
    return worse, "ok" if always_better else "unresolved"


def compare(base, new, spec):
    rows = []
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in new})
    for workload in workloads:
        side_a = [r for r in base if r["workload"] == workload]
        side_b = [r for r in new if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in side_a]
            b = [r["metrics"][name]["value"] for r in side_b]
            worse, status = verdict(metric, a, b)
            rows.append((workload, name, statistics.median(a), spread(a),
                         statistics.median(b), spread(b), worse,
                         metric["bound"], status))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    mismatch = fingerprint_mismatch(base + new)
    if mismatch:
        for key, values in mismatch.items():
            print(f"fingerprint field {key} differs: {', '.join(values)}")
        print("refusing to compare runs from different hosts or settings")
        return 2
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    print(f"{'workload':<9} {'metric':<17} {'base':>10} {'spread':>7} "
          f"{'new':>10} {'spread':>7} {'worse':>7} {'bound':>6}  verdict")
    regressions = 0
    for workload, name, a, sa, b, sb, worse, bound, status in \
            compare(base, new, spec):
        print(f"{workload:<9} {name:<17} {a:10.4f} {sa:7.3f} {b:10.4f} "
              f"{sb:7.3f} {worse:+7.3f} {bound:6.2f}  {status}")
        regressions += status == "REGRESSION"
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
