#!/usr/bin/env python3
"""Schema checks for the KPJ CLI's observability outputs.

Validates one file per invocation:

    tools/validate_metrics.py --mode metrics-json engine_metrics.json
    tools/validate_metrics.py --mode prom         engine_metrics.prom
    tools/validate_metrics.py --mode trace        trace.json
    tools/validate_metrics.py --mode access-log   access.log
    tools/validate_metrics.py --mode stats        stats.json

The metrics schema is read from the metric registry,
src/core/metrics.def: every declared key and series must be present
exactly once, and nothing undeclared may appear. Pass --server for
expositions produced by kpjd, whose server-owned entries (server_accepted,
the kpj_server_queue_time_ms histogram, ...) are then required too.

Exit status 0 means the file is well-formed; any violation prints a
diagnostic and exits 1. Used by scripts/check.sh to gate the CLI smoke
run and the kpjd service smoke, and handy standalone when wiring
dashboards.
"""

import argparse
import json
import math
import os
import re
import sys

# The metric registry: every JSON key and Prometheus series the expositions
# carry is declared there, one entry per metric.
REGISTRY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "src", "core", "metrics.def")
# KPJ_METRIC(owner, kind, field, "json", "prom", ...) or
# KPJ_ALGO_METRIC(kind, field, "json", "prom", ...) with owner Algo.
ENTRY_RE = re.compile(r'KPJ_(?:ALGO_METRIC\(|METRIC\((\w+),)\s*(\w+),\s*(\w+),'
                      r'\s*"([^"]*)",\s*"([^"]*)",')


def load_registry():
    """Every registry entry, as a dict."""
    with open(REGISTRY_PATH, "r", encoding="utf-8") as f:
        matches = ENTRY_RE.findall(f.read())
    if not matches:
        fail(f"no metric declarations found in {REGISTRY_PATH}")
    entries = []
    for owner, kind, field, json_key, prom in matches:
        if not prom:
            prom = "kpj_" + field
            if kind in ("Counter", "ByAlgorithm"):
                prom += "_total"
        entries.append({"owner": owner or "Algo", "kind": kind,
                        "json": json_key, "prom": prom})
    return entries


def histogram_keys(spec):
    """'latency_{count,mean_ms}' -> ['latency_count', 'latency_mean_ms']."""
    m = re.fullmatch(r"(\w*)\{([\w,]+)\}", spec)
    if m is None:
        fail(f"histogram JSON spec {spec!r} lists no summaries")
    return [m.group(1) + stat for stat in m.group(2).split(",")]


def fail(message):
    print(f"validate_metrics: {message}", file=sys.stderr)
    sys.exit(1)


def check_number(where, key, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where} {key!r} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{where} {key!r} is not finite: {value!r}")
    if value < 0:
        fail(f"{where} {key!r} is negative: {value!r}")


def reject_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        fail(f"metrics JSON repeats keys {repeated!r}")
    return dict(pairs)


def check_metrics_json(text, server=False):
    try:
        data = json.loads(text, object_pairs_hook=reject_duplicate_keys)
    except json.JSONDecodeError as e:
        fail(f"metrics JSON does not parse: {e}")
    if not isinstance(data, dict):
        fail("metrics JSON root must be an object")
    declared = set()
    for entry in load_registry():
        required = server or entry["owner"] != "Server"
        if entry["kind"] == "Histogram":
            keys = histogram_keys(entry["json"])
        elif entry["kind"] == "ByAlgorithm":
            # One key per algorithm plus their sum; the algorithm names
            # come from the exposition itself.
            total = entry["json"] + "_total"
            keys = [key for key in data
                    if key.startswith(entry["json"] + "_")]
            if required and (total not in keys or len(keys) < 2):
                fail(f"metrics JSON missing {entry['json']}_<algorithm> "
                     f"keys or {total!r}")
            if entry["json"] + "_Auto" in keys:
                fail(f"{entry['json']}: 'Auto' is the planner, not a solver")
        else:
            keys = [entry["json"]]
        declared.update(keys)
        if not required and not any(key in data for key in keys):
            continue
        for key in keys:
            if key not in data:
                fail(f"metrics JSON missing key {key!r}")
            check_number("metrics key", key, data[key])
        if entry["kind"] == "ByAlgorithm":
            per_algorithm = sum(data[key] for key in keys if key != total)
            if per_algorithm != data[total]:
                fail(f"{total} = {data[total]} but its algorithms sum to "
                     f"{per_algorithm}")
        if entry["prom"].endswith("_ratio") and data[keys[0]] > 1.0 + 1e-9:
            fail(f"{keys[0]} outside [0, 1]: {data[keys[0]]}")
    undeclared = sorted(set(data) - declared)
    if undeclared:
        fail(f"metrics JSON keys not in the registry: {undeclared!r}")


PROM_TYPES = {"Counter": "counter", "Gauge": "gauge",
              "Histogram": "histogram", "ByAlgorithm": "counter"}


def check_prom(text, server=False):
    registry = {entry["prom"]: entry for entry in load_registry()}
    # sample line: name{labels} value  |  name value
    sample_re = re.compile(
        r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
    typed = {}
    seen = set()
    bucket_counts = {}     # histogram base name -> [bucket values in order]
    histogram_counts = {}  # histogram base name -> _count value
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                fail(f"line {line_no}: malformed TYPE comment: {line!r}")
            name = parts[2]
            if name not in registry:
                fail(f"line {line_no}: {name} is not in the registry")
            if name in typed:
                fail(f"line {line_no}: {name} is typed twice")
            if parts[3] != PROM_TYPES[registry[name]["kind"]]:
                fail(f"line {line_no}: {name} is declared "
                     f"{registry[name]['kind']}, typed {parts[3]}")
            typed[name] = parts[3]
            continue
        if line.startswith("#"):
            fail(f"line {line_no}: unknown comment form: {line!r}")
        m = sample_re.match(line)
        if m is None:
            fail(f"line {line_no}: unparseable sample: {line!r}")
        name, labels, value_text = m.groups()
        try:
            value = float(value_text)
        except ValueError:
            fail(f"line {line_no}: non-numeric value: {line!r}")
        if not math.isfinite(value):
            fail(f"line {line_no}: non-finite value: {line!r}")
        if value < 0:
            fail(f"line {line_no}: negative value: {line!r}")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed:
            base = name
        if base not in typed:
            fail(f"line {line_no}: sample {name!r} has no TYPE comment")
        seen.add(base)
        if registry[base]["kind"] == "ByAlgorithm":
            # Per-solver series; without the algorithm label they would
            # aggregate into a meaningless sum.
            if labels is None or 'algorithm="' not in labels:
                fail(f"line {line_no}: {name} without algorithm label")
            if 'algorithm="Auto"' in labels:
                fail(f"line {line_no}: 'Auto' is the planner, not a solver")
        if name.endswith("_ratio") and value > 1.0 + 1e-9:
            fail(f"line {line_no}: ratio outside [0, 1]: {line!r}")
        if name.endswith("_bucket") and typed.get(base) == "histogram":
            if labels is None or 'le="' not in labels:
                fail(f"line {line_no}: histogram bucket without le label")
            bucket_counts.setdefault(base, []).append(value)
        if name.endswith("_count") and typed.get(base) == "histogram":
            histogram_counts[base] = value
    for name, entry in registry.items():
        if not server and entry["owner"] == "Server":
            continue
        if name not in seen:
            fail(f"missing series {name!r}")
        if entry["kind"] == "Histogram" and name not in bucket_counts:
            fail(f"histogram {name!r} has no buckets")
    for base, buckets in bucket_counts.items():
        if any(b > a for b, a in zip(buckets, buckets[1:])):
            fail(f"histogram {base!r} buckets are not cumulative")
        if base not in histogram_counts:
            fail(f"histogram {base!r} has no _count sample")
        if buckets[-1] != histogram_counts[base]:
            fail(f"{base}: +Inf bucket {buckets[-1]} != "
                 f"_count {histogram_counts[base]}")


# One JSONL object per finished request, written by kpjd --access-log
# (src/server/access_log.cc). trace_id is always present: zero-padded
# 16-hex, all zeros when the client sent no trace context.
ACCESS_LOG_STRING_KEYS = [
    "trace_id", "peer", "type", "algorithm", "status", "shed_reason"]
ACCESS_LOG_NUMBER_KEYS = ["ts_ms", "k", "queue_ms", "exec_ms", "epoch"]
ACCESS_LOG_BOOL_KEYS = ["answer_cached"]
TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")

# Rolling-window gauge payload served by the kpjd `stats` request
# (api::StatsInfo).
STATS_REQUIRED_KEYS = [
    "window_s", "requests", "shed", "errors", "qps",
    "latency_mean_ms", "latency_p50_ms", "latency_p90_ms",
    "latency_p99_ms", "latency_max_ms", "in_flight", "epoch",
]


def check_access_log(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail("access log has no lines")
    for line_no, line in enumerate(lines, 1):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"access log line {line_no} does not parse: {e}")
        if not isinstance(entry, dict):
            fail(f"access log line {line_no} is not an object")
        for key in ACCESS_LOG_STRING_KEYS:
            if key not in entry:
                fail(f"access log line {line_no} missing key {key!r}")
            if not isinstance(entry[key], str):
                fail(f"access log line {line_no}: {key!r} must be a string, "
                     f"got {entry[key]!r}")
        for key in ACCESS_LOG_NUMBER_KEYS:
            if key not in entry:
                fail(f"access log line {line_no} missing key {key!r}")
            check_number(f"access log line {line_no}:", key, entry[key])
        for key in ACCESS_LOG_BOOL_KEYS:
            if not isinstance(entry.get(key), bool):
                fail(f"access log line {line_no}: {key!r} must be a bool, "
                     f"got {entry.get(key)!r}")
        if not TRACE_ID_RE.match(entry["trace_id"]):
            fail(f"access log line {line_no}: trace_id is not 16-hex: "
                 f"{entry['trace_id']!r}")
        if not entry["type"]:
            fail(f"access log line {line_no}: empty request type")
        if not entry["status"]:
            fail(f"access log line {line_no}: empty status")
    print(f"validate_metrics: checked {len(lines)} access-log lines",
          file=sys.stderr)


def check_stats(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"stats JSON does not parse: {e}")
    if not isinstance(data, dict):
        fail("stats JSON root must be an object")
    for key in STATS_REQUIRED_KEYS:
        if key not in data:
            fail(f"stats JSON missing key {key!r}")
        check_number("stats key", key, data[key])
    if data["shed"] + data["errors"] > data["requests"]:
        fail("stats: shed + errors exceeds requests")
    if "per_second" not in data or not isinstance(data["per_second"], list):
        fail("stats JSON missing 'per_second' array")
    for i, n in enumerate(data["per_second"]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            fail(f"stats per_second[{i}] must be a non-negative integer")
    if len(data["per_second"]) > data["window_s"]:
        fail("stats: per_second has more buckets than window_s")


def check_trace(text, expect_spans=()):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"trace JSON does not parse: {e}")
    if not isinstance(data, dict) or "traceEvents" not in data:
        fail("trace JSON must be an object with a 'traceEvents' array")
    events = data["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' must be an array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {i} is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"event {i} missing {key!r}")
        if event["ph"] not in ("X", "i"):
            fail(f"event {i} has unsupported phase {event['ph']!r}")
        if event["ph"] == "X":
            if "dur" not in event or event["dur"] < 0:
                fail(f"event {i}: complete event needs dur >= 0")
        if event["ph"] == "i" and event.get("s") != "t":
            fail(f"event {i}: instant event needs scope 's': 't'")
        if event["ts"] < 0:
            fail(f"event {i} has negative timestamp")
    if expect_spans:
        names = {e["name"] for e in events}
        for span in expect_spans:
            if span not in names:
                fail(f"trace missing expected span {span!r}")
        trace_ids = {e["args"]["trace_id"] for e in events
                     if isinstance(e.get("args"), dict)
                     and "trace_id" in e["args"]}
        if len(trace_ids) != 1:
            fail(f"expected one shared trace_id across spans, "
                 f"got {sorted(trace_ids)!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=["metrics-json", "prom", "trace",
                                 "access-log", "stats"])
    parser.add_argument("--server", action="store_true",
                        help="require kpjd server-level series too")
    parser.add_argument("--expect-span", action="append", default=[],
                        metavar="NAME",
                        help="trace mode: require a span with this name and "
                             "a single shared args.trace_id (repeatable)")
    parser.add_argument("path")
    args = parser.parse_args()
    if args.server and args.mode not in ("metrics-json", "prom"):
        fail("--server only applies to metrics-json and prom modes")
    if args.expect_span and args.mode != "trace":
        fail("--expect-span only applies to trace mode")
    with open(args.path, "r", encoding="utf-8") as f:
        text = f.read()
    if args.mode == "metrics-json":
        check_metrics_json(text, server=args.server)
    elif args.mode == "prom":
        check_prom(text, server=args.server)
    elif args.mode == "access-log":
        check_access_log(text)
    elif args.mode == "stats":
        check_stats(text)
    else:
        check_trace(text, expect_spans=args.expect_span)
    print(f"validate_metrics: {args.mode} OK: {args.path}")


if __name__ == "__main__":
    main()
