#!/usr/bin/env bash
# Records the repo's perf trajectory for this PR into BENCH_<N>.json at the
# repo root. The manifest below is the single source of truth: one
# "<default_out> <benchmark_filter>" line per record — adding a bench to the
# trajectory is a one-line append.
#
#   BENCH_3.json — scenario-suite robustness fan-out (BM_RobustnessSuite at
#                  1/2/4/8 threads over the overlay regime views:
#                  scenarios/sec, speedup vs serial sweep)
#   BENCH_5.json — async pipelined evolution driver (BM_EvolutionPipelined:
#                  cands/sec at pipeline depths 0/1/2, speedup vs
#                  lockstep depth 0; AE_BENCH_THREADS sets the
#                  worker count)
#   BENCH_6.json — runtime-dispatched kernel variants
#                  (BM_DispatchedMatMul: the per-ISA matmul tables vs the
#                  scalar table, registered for exactly the variants this
#                  host can run)
#   BENCH_7.json — stress-in-the-loop mining (BM_ScenarioFitness: cands/sec
#                  mining against the full 7-regime suite of copy-on-write
#                  overlay panels — resident panel bytes + memory ratio vs
#                  materialized copies of the views — with cheap-first
#                  screening on vs off)
#   BENCH_8.json — telemetry overhead (BM_TelemetryOverhead: mining cands/sec
#                  with the obs layer disabled / counters-only / full span
#                  tracing; overhead_pct vs the disabled run — acceptance is
#                  full tracing under 5%)
#   BENCH_9.json — checkpointing overhead (BM_CheckpointOverhead: mining
#                  cands/sec with snapshots off / every 8 batches / every
#                  batch; overhead_pct vs the off run plus snapshot bytes
#                  and fsync+rename write ms — acceptance is the default
#                  cadence under 3%)
#   BENCH_10.json — resident-service op throughput (BM_ServiceOps: req/sec
#                  and queue-to-response p50/p99 µs from the
#                  service.op_micros histogram, for job_status / cached
#                  signals lookups / submit+cancel round trips against a
#                  live AlphaService)
#
# BENCH_2.json (executor sharding) and BENCH_4.json (shard barriers) stay
# committed as history; the executor no longer shards a candidate, so their
# micro-benches are gone.
#
# Every record gets a top-level "machine" object (core count, CPU model,
# AE_NATIVE on/off, hostname, and — from bench_micro's own context — the
# detected and active kernel variant) so numbers from the 1-core dev box and
# the multicore CI runners are comparable across the PR trajectory.
#
# Usage: scripts/record_bench.sh [build_dir] [out1 out2 ...]
# Positional outputs override the manifest's default filenames in order; "-"
# skips that record (so one bench can be re-recorded without re-running all).
# AE_BENCH_REPETITIONS (default 1) sets --benchmark_repetitions per record.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift $(( $# > 0 ? 1 : 0 ))

# The bench manifest: "<default_out> <benchmark_filter>".
BENCHES=(
  "BENCH_3.json BM_RobustnessSuite"
  "BENCH_5.json BM_EvolutionPipelined"
  "BENCH_6.json BM_DispatchedMatMul"
  "BENCH_7.json BM_ScenarioFitness"
  "BENCH_8.json BM_TelemetryOverhead"
  "BENCH_9.json BM_CheckpointOverhead"
  "BENCH_10.json BM_ServiceOps"
)

if [[ ! -x "$BUILD_DIR/bench_micro" ]]; then
  echo "error: $BUILD_DIR/bench_micro not built (google-benchmark missing?)" >&2
  exit 1
fi

# AE_NATIVE is a CMake option; read the build's actual setting so the record
# states which ISA the kernels were compiled for.
AE_NATIVE_SETTING="unknown"
if [[ -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  AE_NATIVE_SETTING="$(sed -n 's/^AE_NATIVE:BOOL=//p' "$BUILD_DIR/CMakeCache.txt")"
  AE_NATIVE_SETTING="${AE_NATIVE_SETTING:-unknown}"
fi
export AE_NATIVE_SETTING

annotate() {
  python3 - "$1" <<'PY'
import json, os, platform, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

cpu_model = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.lower().startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

doc["machine"] = {
    "num_cores": os.cpu_count(),
    "cpu_model": cpu_model or platform.processor(),
    "ae_native": os.environ.get("AE_NATIVE_SETTING", "unknown"),
    "hostname": platform.node(),
    "platform": platform.platform(),
    "bench_threads_env": os.environ.get("AE_BENCH_THREADS", ""),
}

# bench_micro stamps the kernel-variant story into the benchmark context
# (AddCustomContext); lift it next to the machine facts so one object says
# what ISA actually ran.
ctx = doc.get("context", {})
for key in ("ae_kernel_variant_detected", "ae_kernel_variants_compiled"):
    if key in ctx:
        doc["machine"][key] = ctx[key]
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
}

record() {
  local filter="$1" out="$2"
  "$BUILD_DIR/bench_micro" \
    --benchmark_filter="$filter" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_repetitions="${AE_BENCH_REPETITIONS:-1}"
  annotate "$out"
  echo "wrote $out"
}

args=("$@")
i=0
for entry in "${BENCHES[@]}"; do
  out="${entry%% *}"
  filter="${entry#* }"
  if (( i < $# )); then
    out="${args[i]}"
  fi
  if [[ "$out" != "-" ]]; then
    record "$filter" "$out"
  fi
  i=$((i + 1))
done
