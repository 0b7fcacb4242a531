#!/usr/bin/env bash
# Configure, build, and run the test suite — the tier-1 gate for every
# change. Usage:
#
#   scripts/check.sh                 # release-ish build + ctest
#   scripts/check.sh --asan          # opt-in AddressSanitizer + UBSan run
#   scripts/check.sh --ubsan         # opt-in UndefinedBehaviorSanitizer-
#                                    # only run (full suite; catches UB
#                                    # that ASan's redzones mask and runs
#                                    # much faster than --asan)
#   scripts/check.sh --tsan          # opt-in ThreadSanitizer run of the
#                                    # concurrency suite (engine, pool,
#                                    # landmark build, intra, trace,
#                                    # observability, cache reuse, SPT
#                                    # cache, api, socket, server) only
#   scripts/check.sh --bench-gate    # opt-in perf gate: re-run bench_cache
#                                    # and bench_intra and
#                                    # diff against the checked-in
#                                    # BENCH_*.json baselines with
#                                    # tools/compare_bench.py (>10% fails);
#                                    # bench_planner diffs at 25% plus the
#                                    # hard floors auto >= 1.0x best fixed
#                                    # and >= 1.3x median fixed;
#                                    # bench_mmap (v4 load/swap) and the
#                                    # kpj_loadgen smoke report diff at a
#                                    # loose 50% — load and service
#                                    # latencies are noisier than
#                                    # in-process query timings
#   KPJ_CHECK_JOBS=8 scripts/check.sh
#
# Sanitizer runs use separate build trees (build-asan/, build-ubsan/,
# build-tsan/) so they never invalidate the incremental default build.
#
# After ctest, every mode drives the built kpj_cli end to end on a small
# generated graph with --trace-out / --metrics-out and validates the
# emitted trace JSON, metrics JSON, and Prometheus text with
# tools/validate_metrics.py, builds landmarks and converts the graph to
# the zero-copy v4 format with them embedded, and requires --mmap answers
# byte-identical to the heap load, then boots kpjd on loopback with an
# access log and round-trips
# health/query/prefix query/GKPJ query (twice)/batch/traced-query/stats/
# metrics/drain
# through kpj_client (query and batch answers diffed against the
# in-process kpj_cli), runs
# a short kpj_loadgen burst, validates the merged wire trace, stats
# payload, access log, and loadgen report (failing on any leaked daemon
# process), and finally boots kpjd again on the mmap'd v4 file, where a
# second query on the same targets must hit the set-bound cache.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${KPJ_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"
build_dir=build
mode=default
cmake_flags=()
ctest_flags=()

if [[ "${1:-}" == "--asan" || "${KPJ_CHECK_ASAN:-0}" == "1" ]]; then
  build_dir=build-asan
  mode=asan
  cmake_flags+=("-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all")
elif [[ "${1:-}" == "--ubsan" || "${KPJ_CHECK_UBSAN:-0}" == "1" ]]; then
  build_dir=build-ubsan
  mode=ubsan
  cmake_flags+=("-DCMAKE_CXX_FLAGS=-fsanitize=undefined -fno-sanitize-recover=all")
elif [[ "${1:-}" == "--tsan" || "${KPJ_CHECK_TSAN:-0}" == "1" ]]; then
  # TSAN and ASAN cannot be combined; the TSAN tree only runs the tests
  # that actually exercise threads (the full suite is single-threaded and
  # ~10x slower under TSAN for no added coverage).
  build_dir=build-tsan
  mode=tsan
  cmake_flags+=("-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-sanitize-recover=all")
  # landmark_index_test is in the list for its multi-threaded
  # byte-identical-build property, not for raw coverage.
  ctest_flags+=("-R" "engine_test|thread_pool_test|intra_test|trace_test|observability_test|cache_reuse_test|spt_cache_test|landmark_index_test|api_test|socket_test|server_test")
elif [[ "${1:-}" == "--bench-gate" || "${KPJ_CHECK_BENCH_GATE:-0}" == "1" ]]; then
  mode=bench-gate
fi

cmake -B "$build_dir" -S . "${cmake_flags[@]}"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "${ctest_flags[@]}"

if [[ "$mode" == "asan" ]]; then
  # Re-run the cache determinism suite with a deliberately tiny (1 MiB)
  # budget so constant eviction runs under the sanitizer, not just the
  # comfortable default the ctest pass uses.
  KPJ_CACHE_TEST_MB=1 "$build_dir/tests/cache_reuse_test"
  echo "asan tiny-cache eviction pass OK"
  # The v4 corruption suite flips bytes in every mapped section and reads
  # the poisoned mappings back; run it explicitly under the sanitizer so
  # out-of-bounds section handling is exercised with redzones armed.
  "$build_dir/tests/mmap_graph_test" --gtest_filter='*Corrupt*:*Truncated*'
  echo "asan mmap corruption pass OK"
fi

# --- Observability smoke: run the CLI with tracing + metrics on a small
# graph and validate every emitted artifact.
smoke_dir="$build_dir/check-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
cli="$build_dir/tools/kpj_cli"

"$cli" generate --nodes 2000 --seed 3 --out "$smoke_dir/g.bin" > /dev/null
"$cli" query --graph "$smoke_dir/g.bin" --source 0 --targets 100,200,300 \
  --k 5 --stats --slow-query-ms 1000 --intra-threads 2 \
  --trace-out "$smoke_dir/query_trace.json" \
  --metrics-out "$smoke_dir/query_metrics.json" > /dev/null
printf '0 3 100 200\n5 2 300\n' > "$smoke_dir/queries.txt"
"$cli" batch --graph "$smoke_dir/g.bin" --queries "$smoke_dir/queries.txt" \
  --threads 2 \
  --trace-out "$smoke_dir/batch_trace.json" \
  --metrics-out "$smoke_dir/batch_metrics.prom" \
  --metrics-format prom > /dev/null

python3 tools/validate_metrics.py --mode trace "$smoke_dir/query_trace.json"
python3 tools/validate_metrics.py --mode metrics-json "$smoke_dir/query_metrics.json"
python3 tools/validate_metrics.py --mode trace "$smoke_dir/batch_trace.json"
python3 tools/validate_metrics.py --mode prom "$smoke_dir/batch_metrics.prom"
echo "observability smoke OK"

# --- Landmark smoke: build landmark (ALT) tables offline, then answer the
# same query with and without them; the top-k length profiles must agree
# (path identities may differ under ties, so only the "(len N)" suffixes
# are compared). The build must be byte-identical at any thread count. It
# runs on the generated road graph, which is its own reverse (one forward
# run per landmark fills both tables), and on a small DIMACS graph with
# one-way arcs, which also needs the backward runs.
python3 - "$smoke_dir/oneway.gr" <<'PY'
import random, sys
rng = random.Random(5)
n = 300
arcs = {}
for u in range(1, n + 1):
    arcs[(u, u % n + 1)] = rng.randint(1, 20)  # A cycle: strongly connected.
    for _ in range(3):
        v = rng.randint(1, n)
        if v != u:
            arcs[(u, v)] = rng.randint(1, 20)
with open(sys.argv[1], "w") as f:
    f.write("p sp %d %d\n" % (n, len(arcs)))
    for (u, v), w in sorted(arcs.items()):
        f.write("a %d %d %d\n" % (u, v, w))
PY
for graph in g.bin oneway.gr; do
  base="$smoke_dir/${graph%.*}"
  "$cli" landmarks --graph "$smoke_dir/$graph" --out "$base.lm" \
    --count 4 --threads 1 > /dev/null
  "$cli" landmarks --graph "$smoke_dir/$graph" --out "$base.t3.lm" \
    --count 4 --threads 3 > /dev/null
  cmp "$base.lm" "$base.t3.lm"
  "$cli" query --graph "$smoke_dir/$graph" --landmarks "$base.lm" \
    --source 0 --targets 100,200,250 --k 5 \
    | grep -o 'len [0-9]*' > "$base.alt_lens.txt"
  "$cli" query --graph "$smoke_dir/$graph" --source 0 \
    --targets 100,200,250 --k 5 | grep -o 'len [0-9]*' > "$base.plain_lens.txt"
  [[ -s "$base.plain_lens.txt" ]]
  diff "$base.alt_lens.txt" "$base.plain_lens.txt"
done
echo "landmark smoke OK"

# --- Zero-copy (v4) smoke: convert the graph to the mmap format with the
# landmarks embedded, then answer the same query heap-loaded (landmark
# file beside the graph), mapped, and mapped-trusted; the printed paths
# must be byte-identical across all three.
"$cli" convert --in "$smoke_dir/g.bin" --format v4 \
  --landmarks "$smoke_dir/g.lm" --out "$smoke_dir/g_v4.bin" > /dev/null
"$cli" query --graph "$smoke_dir/g.bin" --landmarks "$smoke_dir/g.lm" \
  --source 0 --targets 100,200,300 --k 5 | grep ' -> ' > "$smoke_dir/v4_heap.txt"
"$cli" query --graph "$smoke_dir/g_v4.bin" --mmap \
  --source 0 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/v4_mmap.txt"
"$cli" query --graph "$smoke_dir/g_v4.bin" --mmap --trusted \
  --source 0 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/v4_trusted.txt"
diff "$smoke_dir/v4_heap.txt" "$smoke_dir/v4_mmap.txt"
diff "$smoke_dir/v4_heap.txt" "$smoke_dir/v4_trusted.txt"
echo "mmap smoke OK"

# --- Service smoke: boot kpjd on an ephemeral loopback port, round-trip
# health + query + metrics through kpj_client over the wire protocol, then
# drain and require a clean exit with no leaked daemon process. The wire
# query must match what kpj_cli computes in-process on the same graph.
kpjd="$build_dir/tools/kpjd"
kpj_client="$build_dir/tools/kpj_client"
kpjd_pid=""
cleanup_kpjd() {
  if [[ -n "$kpjd_pid" ]] && kill -0 "$kpjd_pid" 2>/dev/null; then
    kill -9 "$kpjd_pid" 2>/dev/null || true
    echo "service smoke FAILED: kpjd (pid $kpjd_pid) leaked" >&2
  fi
}
trap cleanup_kpjd EXIT

"$kpjd" --graph "$smoke_dir/g.bin" --port 0 \
  --port-file "$smoke_dir/kpjd.port" --workers 2 \
  --metrics-out "$smoke_dir/kpjd_metrics.json" \
  --access-log "$smoke_dir/kpjd_access.log" \
  > "$smoke_dir/kpjd.log" 2>&1 &
kpjd_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$smoke_dir/kpjd.port" ]] && break
  if ! kill -0 "$kpjd_pid" 2>/dev/null; then
    cat "$smoke_dir/kpjd.log" >&2
    echo "service smoke FAILED: kpjd exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -s "$smoke_dir/kpjd.port" ]] || {
  echo "service smoke FAILED: no port file" >&2; exit 1; }

"$kpj_client" health --port-file "$smoke_dir/kpjd.port" > /dev/null
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0 --targets 100,200,300 --k 5 > "$smoke_dir/wire_answer.txt"
# Byte-identity gate: the daemon's paths equal the in-process CLI's.
"$cli" query --graph "$smoke_dir/g.bin" --source 0 --targets 100,200,300 \
  --k 5 | grep ' -> ' > "$smoke_dir/cli_answer.txt"
grep ' -> ' "$smoke_dir/wire_answer.txt" > "$smoke_dir/wire_paths.txt"
diff "$smoke_dir/cli_answer.txt" "$smoke_dir/wire_paths.txt"
# Prefix answers: k = 3 on the same source and targets is served from the
# cached k = 5 answer, as its first three paths; the access log must mark
# it answer_cached (checked once drain has flushed the log).
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0 --targets 100,200,300 --k 3 \
  | grep ' -> ' > "$smoke_dir/prefix_paths.txt"
head -n 3 "$smoke_dir/cli_answer.txt" | diff - "$smoke_dir/prefix_paths.txt"

# GKPJ over the wire: a two-source query runs the same pooled solvers as
# KPJ, so the daemon's paths equal the in-process CLI's; sent again, it is
# served from the daemon's answer cache with the same paths.
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0,7 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/gkpj_wire.txt"
"$cli" query --graph "$smoke_dir/g.bin" --source 0,7 \
  --targets 100,200,300 --k 5 | grep ' -> ' > "$smoke_dir/gkpj_cli.txt"
diff "$smoke_dir/gkpj_cli.txt" "$smoke_dir/gkpj_wire.txt"
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0,7 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/gkpj_repeat.txt"
diff "$smoke_dir/gkpj_wire.txt" "$smoke_dir/gkpj_repeat.txt"

# Batch over the wire: the streamed BatchResponse must carry, query by
# query, the length profiles the in-process batch computes on the same
# graph and queries (comment and blank lines keep the line labels honest).
printf '# source k targets...\n0 5 100 200 300\n\n7 3 50\n11 10 400 900\n0 5 100 200 300\n' \
  > "$smoke_dir/batch_queries.txt"
"$kpj_client" batch --port-file "$smoke_dir/kpjd.port" \
  --queries "$smoke_dir/batch_queries.txt" \
  | grep '^query ' > "$smoke_dir/batch_wire.txt"
"$cli" batch --graph "$smoke_dir/g.bin" \
  --queries "$smoke_dir/batch_queries.txt" \
  | grep '^query ' > "$smoke_dir/batch_cli.txt"
[[ $(wc -l < "$smoke_dir/batch_cli.txt") -eq 4 ]]
diff "$smoke_dir/batch_cli.txt" "$smoke_dir/batch_wire.txt"

# Wire-to-solver tracing: a traced query must come back with server spans
# that merge with the client's into one timeline sharing one trace_id.
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0 --targets 100,200,300 --k 5 \
  --trace-out "$smoke_dir/wire_trace.json" > "$smoke_dir/traced_answer.txt"
grep ' -> ' "$smoke_dir/traced_answer.txt" > "$smoke_dir/traced_paths.txt"
# Tracing must not change answers: traced paths equal the untraced ones.
diff "$smoke_dir/cli_answer.txt" "$smoke_dir/traced_paths.txt"
python3 tools/validate_metrics.py --mode trace \
  --expect-span client.request --expect-span server.accept \
  --expect-span server.parse --expect-span server.queue \
  --expect-span server.execute --expect-span server.serialize \
  --expect-span engine.query --expect-span solver.run \
  "$smoke_dir/wire_trace.json"

# Adaptive planner over the wire: a per-request "auto" override must
# report the chosen solver + planner rule, return the same top-k length
# profile as the fixed-algorithm answer (the cross-solver contract), and
# show up in the planner decision counters.
"$kpj_client" query --port-file "$smoke_dir/kpjd.port" \
  --source 0 --targets 100,200,300 --k 5 --algorithm auto \
  > "$smoke_dir/auto_answer.txt"
grep -q '^# algorithm: ' "$smoke_dir/auto_answer.txt"
grep -o 'len [0-9]*' "$smoke_dir/auto_answer.txt" > "$smoke_dir/auto_lens.txt"
grep -o 'len [0-9]*' "$smoke_dir/cli_answer.txt" > "$smoke_dir/fixed_lens.txt"
diff "$smoke_dir/fixed_lens.txt" "$smoke_dir/auto_lens.txt"

# Live rolling-window gauges over the wire.
"$kpj_client" stats --port-file "$smoke_dir/kpjd.port" --json \
  > "$smoke_dir/kpjd_stats.json"
python3 tools/validate_metrics.py --mode stats "$smoke_dir/kpjd_stats.json"

"$kpj_client" metrics --port-file "$smoke_dir/kpjd.port" --format prom \
  > "$smoke_dir/kpjd_metrics.prom"
python3 tools/validate_metrics.py --mode prom --server \
  "$smoke_dir/kpjd_metrics.prom"
# The auto query above must be visible as a nonzero planner decision.
grep -Eq '^kpj_planner_choice_total\{algorithm="[^"]+"\} [1-9]' \
  "$smoke_dir/kpjd_metrics.prom"

# Sustained-load rig: a short closed-loop burst must complete with zero
# wire failures, nonzero throughput, and a parseable report.
"$build_dir/tools/kpj_loadgen" --port-file "$smoke_dir/kpjd.port" \
  --connections 2 --warmup-s 1 --duration-s 3 --k 4 --targets 2 \
  --out "$smoke_dir/BENCH_service.json" > "$smoke_dir/loadgen.log"
python3 - "$smoke_dir/BENCH_service.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["requests_failed"] == 0, report
assert report["throughput_qps"] > 0, report
assert report["requests_measured"] > 0, report
assert sum(report["per_second"]) == report["requests_measured"], report
print(f"loadgen smoke: {report['requests_measured']} requests at "
      f"{report['throughput_qps']:.0f} qps")
PY

"$kpj_client" drain --port-file "$smoke_dir/kpjd.port" > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$kpjd_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$kpjd_pid" 2>/dev/null; then
  echo "service smoke FAILED: kpjd did not exit after drain" >&2
  exit 1
fi
wait "$kpjd_pid"
kpjd_pid=""
trap - EXIT
# The daemon flushed its final metrics on drain; they must carry the
# server-level schema too.
python3 tools/validate_metrics.py --mode metrics-json --server \
  "$smoke_dir/kpjd_metrics.json"
# Drain flushed the buffered access log; every request round-tripped
# above must be on disk as a well-formed JSONL line.
python3 tools/validate_metrics.py --mode access-log \
  "$smoke_dir/kpjd_access.log"
# The one k = 3 query above is the prefix hit.
grep '"type":"query"' "$smoke_dir/kpjd_access.log" | grep '"k":3,' \
  > "$smoke_dir/prefix_access.txt"
[[ $(wc -l < "$smoke_dir/prefix_access.txt") -eq 1 ]]
grep -q '"answer_cached":true' "$smoke_dir/prefix_access.txt"
grep -q "kpjd drained cleanly" "$smoke_dir/kpjd.log"
echo "service smoke OK"

# --- Mapped service smoke: boot kpjd on the v4 file (mmap'd, checksums
# verified at startup) and require wire answers byte-identical to the
# mapped in-process CLI on the same file and embedded landmarks, then a
# set-bound cache hit in the daemon's metrics.
"$kpjd" --graph "$smoke_dir/g_v4.bin" --port 0 \
  --port-file "$smoke_dir/kpjd_v4.port" --workers 2 \
  > "$smoke_dir/kpjd_v4.log" 2>&1 &
kpjd_pid=$!
trap cleanup_kpjd EXIT
for _ in $(seq 1 100); do
  [[ -s "$smoke_dir/kpjd_v4.port" ]] && break
  if ! kill -0 "$kpjd_pid" 2>/dev/null; then
    cat "$smoke_dir/kpjd_v4.log" >&2
    echo "mapped service smoke FAILED: kpjd exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -s "$smoke_dir/kpjd_v4.port" ]] || {
  echo "mapped service smoke FAILED: no port file" >&2; exit 1; }
"$kpj_client" query --port-file "$smoke_dir/kpjd_v4.port" \
  --source 0 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/v4_wire.txt"
"$cli" query --graph "$smoke_dir/g_v4.bin" --mmap \
  --source 0 --targets 100,200,300 --k 5 \
  | grep ' -> ' > "$smoke_dir/v4_cli.txt"
diff "$smoke_dir/v4_cli.txt" "$smoke_dir/v4_wire.txt"
# Same targets from another source: its target-set bound aggregates must be
# served by the daemon's one reuse cache.
"$kpj_client" query --port-file "$smoke_dir/kpjd_v4.port" \
  --source 7 --targets 100,200,300 --k 5 > /dev/null
"$kpj_client" metrics --port-file "$smoke_dir/kpjd_v4.port" \
  > "$smoke_dir/kpjd_v4_metrics.json"
python3 - "$smoke_dir/kpjd_v4_metrics.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["algo_bound_cache_hits"] >= 1, metrics["algo_bound_cache_hits"]
PY
"$kpj_client" drain --port-file "$smoke_dir/kpjd_v4.port" > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$kpjd_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$kpjd_pid" 2>/dev/null; then
  echo "mapped service smoke FAILED: kpjd did not exit after drain" >&2
  exit 1
fi
wait "$kpjd_pid"
kpjd_pid=""
trap - EXIT
grep -q "kpjd drained cleanly" "$smoke_dir/kpjd_v4.log"
echo "mapped service smoke OK"

# --- Opt-in bench gate: re-run the cross-query cache and intra-query
# parallelism benchmarks and fail if any timing or speedup leaf regressed
# >10% against the checked-in baselines.
if [[ "$mode" == "bench-gate" ]]; then
  gate_dir="$build_dir/check-bench"
  rm -rf "$gate_dir"
  mkdir -p "$gate_dir"
  KPJ_BENCH_JSON="$gate_dir/BENCH_cache.json" "$build_dir/bench/bench_cache"
  python3 tools/compare_bench.py BENCH_cache.json "$gate_dir/BENCH_cache.json" \
    --threshold 0.10
  KPJ_BENCH_JSON="$gate_dir/BENCH_intra.json" "$build_dir/bench/bench_intra"
  python3 tools/compare_bench.py BENCH_intra.json "$gate_dir/BENCH_intra.json" \
    --threshold 0.10
  # Adaptive-planner gate: the mixed-workload artifact diffs at a looser
  # threshold (the planner re-learns from its static priors every round,
  # so routing — and therefore timing — is noisier than a fixed
  # algorithm's), while the issue's hard floors are asserted exactly:
  # auto >= the best fixed algorithm end to end, >= 1.3x the median
  # fixed choice, and byte-identical paths to the chosen solver (the
  # bench itself aborts on any identity violation; "identical" records
  # that the checks ran).
  KPJ_BENCH_JSON="$gate_dir/BENCH_planner.json" "$build_dir/bench/bench_planner"
  python3 tools/compare_bench.py BENCH_planner.json \
    "$gate_dir/BENCH_planner.json" --threshold 0.25
  python3 - "$gate_dir/BENCH_planner.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["identical"] is True, report
assert report["auto_vs_best_fixed_speedup"] >= 1.0, report
assert report["auto_vs_median_fixed_speedup"] >= 1.3, report
print("planner gate: auto {:.3f}x best fixed, {:.3f}x median fixed".format(
    report["auto_vs_best_fixed_speedup"],
    report["auto_vs_median_fixed_speedup"]))
PY
  # Zero-copy load/swap gate: cold-load and swap figures swing with disk
  # and page-cache state far more than in-process query timings, so the
  # mmap bench diffs at the loose service threshold; its hard floors
  # (>=10x trusted cold load, >=2x trusted swap, byte-identical answers)
  # are enforced inside the binary itself.
  KPJ_BENCH_JSON="$gate_dir/BENCH_mmap.json" "$build_dir/bench/bench_mmap"
  python3 tools/compare_bench.py BENCH_mmap.json "$gate_dir/BENCH_mmap.json" \
    --threshold 0.50
  # Service-level gate: the loadgen report from the smoke above, diffed at
  # a loose threshold — loopback service latency is far noisier than the
  # in-process benches.
  python3 tools/compare_bench.py BENCH_service.json \
    "$smoke_dir/BENCH_service.json" --threshold 0.50
  echo "bench gate OK"
fi
