#!/usr/bin/env python3
"""Validate BENCH_*.json files against the mc-bench-v1 schema.

The schema is pinned by src/obs/json.h (obs::BenchReport, the one emitter
every bench binary routes through):

    {
      "schema": "mc-bench-v1",
      "benchmark": "<name>",
      "config":  { "<key>": number | string, ... },
      "cases": [
        { "name": "<case>",
          "metrics": {
            "<dotted.metric>": number | null,
            "<dotted.metric>": { "count": N, "mean": x|null, "min": x|null,
                                 "max": x|null, "stddev": x|null, "sum": x }
          } }, ... ]
    }

Conventions enforced here:
  * keys (config, case names, metric names) are snake_case dotted paths:
    [a-z0-9_] segments joined by '.', starting with a letter;
  * every time-valued metric name ends in "_seconds" — and vice versa, a
    *_seconds metric must be a number/null/stat like any other (no strings);
  * a stat-valued metric carries exactly the six RunningStat fields —
    or exactly those six plus "p50"/"p99" (a quantile stat from a
    Reservoir) — with "count" a non-negative integer; count == 0 requires
    null mean/min/max/stddev (and null p50/p99), an empty stat is
    explicit, never a fake zero;
  * benchmarks listed in REQUIRED_FINITE must carry each named metric in
    every case, as a finite number (null or a stat does not satisfy it) —
    e.g. a repartition report without its migration_fraction cannot show
    the workload stayed in the small-migration regime the speedup claims;
  * benchmarks listed in REQUIRED_QUANTILES must carry each named metric
    in every case as a *non-empty quantile stat* with finite p50/p99 — a
    latency report without percentiles cannot support a tail-latency
    claim.

Usage: check_bench_json.py FILE [FILE...]   (exits non-zero on any failure)
"""

import json
import math
import re
import sys

KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
STAT_FIELDS = {"count", "mean", "min", "max", "stddev", "sum"}
QUANTILE_FIELDS = {"p50", "p99"}

# benchmark name -> metrics each of its cases must report as finite numbers.
REQUIRED_FINITE = {
    "repartition": ("migration_fraction", "bytes_migrated"),
    "server": ("latency_p50_seconds", "latency_p99_seconds",
               "sched_share.hit_rate", "batch.occupancy_mean"),
    # Per-link-class traffic attribution: a data-move report that cannot
    # say how many messages crossed nodes cannot support a topology claim.
    "data_move": ("link.inter_node.messages", "link.inter_node.bytes",
                  "link.intra_node.messages", "link.intra_node.bytes",
                  "link.forwarded.messages", "link.forwarded.bytes"),
    # Warm-start evidence: a snapshot report that cannot say how much state
    # was restored or how the first request compared cold-vs-warm cannot
    # support a warm-start claim.  The cold case reports restore volume 0
    # and speedup 1.0 — finite, never null.
    "snapshot": ("restore_bytes", "restore_entries",
                 "first_request_speedup"),
    # Inspector evidence: a build report without its build time, its
    # measured table footprint and the one-entry-per-element reference
    # footprint cannot support a build-speed or table-memory claim.
    "schedule_build": ("run_native.build_seconds",
                       "run_native.peak_table_bytes",
                       "elementwise_table_bytes"),
}

# benchmark name -> metrics each of its cases must report as non-empty
# quantile stats (the six RunningStat fields + finite p50/p99).
REQUIRED_QUANTILES = {
    "server": ("latency_seconds",),
}


def is_number(v):
    # bool is an int subclass; a bare true/false is never a valid metric.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_key(errors, where, key):
    if not KEY_RE.match(key):
        errors.append(f"{where}: key '{key}' is not a snake_case dotted path")


def check_stat(errors, where, v):
    fields = set(v.keys())
    if fields != STAT_FIELDS and fields != STAT_FIELDS | QUANTILE_FIELDS:
        errors.append(
            f"{where}: stat object has fields {sorted(fields)}, "
            f"expected {sorted(STAT_FIELDS)} (optionally plus "
            f"{sorted(QUANTILE_FIELDS)})")
        return
    count = v["count"]
    if not is_number(count) or count < 0 or count != int(count):
        errors.append(f"{where}: stat 'count' must be a non-negative integer")
        return
    moments = ["mean", "min", "max", "stddev"]
    moments += sorted(fields & QUANTILE_FIELDS)
    if count == 0:
        for m in moments:
            if v[m] is not None:
                errors.append(
                    f"{where}: empty stat (count 0) must have null '{m}', "
                    f"got {v[m]!r}")
    else:
        for m in moments + ["sum"]:
            if not is_number(v[m]):
                errors.append(
                    f"{where}: non-empty stat field '{m}' must be a number, "
                    f"got {v[m]!r}")


def check_metric(errors, where, name, v):
    check_key(errors, where, name)
    if v is None or is_number(v):
        return
    if isinstance(v, dict):
        check_stat(errors, f"{where}.{name}", v)
        return
    errors.append(
        f"{where}: metric '{name}' must be a number, null, or a stat "
        f"object, got {type(v).__name__}")


def check_report(errors, path, doc):
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level must be an object")
        return
    if doc.get("schema") != "mc-bench-v1":
        errors.append(f"{path}: schema is {doc.get('schema')!r}, "
                      f"expected 'mc-bench-v1'")
    if not isinstance(doc.get("benchmark"), str) or not doc.get("benchmark"):
        errors.append(f"{path}: 'benchmark' must be a non-empty string")
    extra = set(doc.keys()) - {"schema", "benchmark", "config", "cases"}
    if extra:
        errors.append(f"{path}: unexpected top-level keys {sorted(extra)}")

    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append(f"{path}: 'config' must be an object")
    else:
        for key, v in config.items():
            check_key(errors, f"{path}:config", key)
            if not (is_number(v) or isinstance(v, str)):
                errors.append(f"{path}:config: '{key}' must be a number or "
                              f"string, got {type(v).__name__}")

    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append(f"{path}: 'cases' must be a non-empty array")
        return
    seen = set()
    for i, case in enumerate(cases):
        where = f"{path}:cases[{i}]"
        if not isinstance(case, dict):
            errors.append(f"{where}: must be an object")
            continue
        name = case.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: 'name' must be a non-empty string")
        else:
            check_key(errors, where, name)
            if name in seen:
                errors.append(f"{where}: duplicate case name '{name}'")
            seen.add(name)
        if set(case.keys()) != {"name", "metrics"}:
            errors.append(f"{where}: must have exactly 'name' and 'metrics', "
                          f"got {sorted(case.keys())}")
            continue
        metrics = case["metrics"]
        if not isinstance(metrics, dict) or not metrics:
            errors.append(f"{where}: 'metrics' must be a non-empty object")
            continue
        for mname, v in metrics.items():
            check_metric(errors, where, mname, v)
        for req in REQUIRED_FINITE.get(doc.get("benchmark"), ()):
            v = metrics.get(req)
            if not is_number(v) or not math.isfinite(v):
                errors.append(
                    f"{where}: benchmark '{doc.get('benchmark')}' requires "
                    f"metric '{req}' as a finite number, got {v!r}")
        for req in REQUIRED_QUANTILES.get(doc.get("benchmark"), ()):
            v = metrics.get(req)
            ok = (isinstance(v, dict)
                  and set(v.keys()) == STAT_FIELDS | QUANTILE_FIELDS
                  and is_number(v.get("count")) and v["count"] > 0
                  and all(is_number(v.get(q)) and math.isfinite(v[q])
                          for q in QUANTILE_FIELDS))
            if not ok:
                errors.append(
                    f"{where}: benchmark '{doc.get('benchmark')}' requires "
                    f"metric '{req}' as a non-empty quantile stat with "
                    f"finite p50/p99, got {v!r}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    errors = []
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: {e}")
            continue
        check_report(errors, path, doc)
    for e in errors:
        print(f"check_bench_json: {e}", file=sys.stderr)
    if not errors:
        print(f"check_bench_json: {len(argv) - 1} file(s) OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
