#!/usr/bin/env bash
# Records one run of every micro-bench in bench_micro as one JSON file: the
# google-benchmark report plus a top-level "machine" object (core count, CPU
# model, the build's AE_NATIVE setting, hostname, platform, and the kernel
# variant bench_micro detected and the variants it compiled), so numbers
# from different hosts can be told apart.
#
# End-to-end numbers, the ones that gate a change, come from
# `python3 e2ebench/run.py`; each micro-bench names the row it explains.
#
# Usage: scripts/record_bench.sh BUILD_DIR OUT_JSON
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_JSON" >&2
  exit 2
fi
BUILD_DIR="$1"
OUT="$2"

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

"$BUILD_DIR/bench_micro" --benchmark_out="$OUT" --benchmark_out_format=json

python3 - "$OUT" <<'PY'
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
echo "wrote $OUT"
