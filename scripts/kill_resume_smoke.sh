#!/usr/bin/env bash
# Kill-and-resume smoke: SIGKILL a checkpointed mining run about halfway
# through, resume it from the newest snapshot, and require the final JSON
# report to be byte-identical to an uninterrupted run's.
#
# First, malformed input must be refused with exit code 2: a candidate
# budget or snapshot cadence that fell back to the wall clock could never
# resume bit-identically, "abc" seconds read as 0 would never stop, and an
# unknown aggregation must not silently become another. Each refusal runs
# under a timeout, so a run that is not refused fails instead of hanging.
#
# The reference runs without --checkpoint-dir, the interrupted run with it:
# every search owns its fingerprint cache, so checkpointing changes nothing
# in the report, and the byte-compare below checks that too. Candidate
# budgets (--max-candidates) replace wall-clock budgets so both runs cover
# the same search space.
#
# If the timed SIGKILL loses the race (the run finished first — slow disk,
# fast box), the interruption is retried with the deterministic
# AE_FAULT=crash_after_write@3 injection, which _Exit(42)s the process right
# after the third snapshot publish — the same no-cleanup death as SIGKILL.
#
# Usage: scripts/kill_resume_smoke.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
MINER="$BUILD_DIR/mine_alpha_set"
if [[ ! -x "$MINER" ]]; then
  echo "error: $MINER not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== malformed input is refused =="
refused() {
  timeout 60 "$MINER" "$@" > /dev/null 2>&1 && status=0 || status=$?
  if [[ "$status" != 2 ]]; then
    echo "error: '$*' was not refused (exit $status)" >&2
    exit 1
  fi
}
refused 1 0.5 1 --max-candidates=abc --checkpoint-dir="$WORK/refused"
refused 1 0.5 1 --checkpoint-every=-1 --checkpoint-dir="$WORK/refused"
refused 1 abc 1
refused 1 0.5 1 "$WORK/refused.json" 1 0 best
echo "refused with exit 2"

# 2 rounds (two concurrent searches each), 2 threads, pipeline depth 2, no
# stress suite; candidate-bounded with a tight snapshot cadence.
MINE_ARGS=(2 0 2)
MINE_TAIL=(2 0 worst --max-candidates=300 --checkpoint-every=2)

echo "== reference run (uninterrupted, not checkpointed) =="
start_ns=$(date +%s%N)
"$MINER" "${MINE_ARGS[@]}" "$WORK/ref.json" "${MINE_TAIL[@]}" > /dev/null
ref_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "reference finished in ${ref_ms}ms"

echo "== interrupted run (SIGKILL at ~50%) =="
"$MINER" "${MINE_ARGS[@]}" "$WORK/out.json" "${MINE_TAIL[@]}" \
  --checkpoint-dir="$WORK/ck" > /dev/null 2>&1 &
pid=$!
# Sleep half the reference duration, then kill -9 — no handlers, no flush.
python3 -c "import time,sys; time.sleep(float(sys.argv[1])/2000.0)" "$ref_ms"
killed=0
if kill -9 "$pid" 2> /dev/null; then
  killed=1
fi
wait "$pid" && status=0 || status=$?
if [[ "$killed" == 1 && "$status" == 137 ]]; then
  echo "killed mid-run (exit $status)"
else
  echo "run finished before the signal (exit $status); retrying with" \
       "deterministic crash injection"
  rm -rf "$WORK/ck" "$WORK/out.json"
  AE_FAULT=crash_after_write@3 \
    "$MINER" "${MINE_ARGS[@]}" "$WORK/out.json" "${MINE_TAIL[@]}" \
    --checkpoint-dir="$WORK/ck" > /dev/null 2>&1 && status=0 || status=$?
  if [[ "$status" != 42 ]]; then
    echo "error: crash injection did not fire (exit $status)" >&2
    exit 1
  fi
  echo "crashed after the 3rd snapshot (exit 42)"
fi

if ! ls "$WORK/ck"/*.ckpt > /dev/null 2>&1; then
  echo "error: no snapshots survived the kill" >&2
  exit 1
fi

echo "== resumed run =="
"$MINER" "${MINE_ARGS[@]}" "$WORK/out.json" "${MINE_TAIL[@]}" \
  --checkpoint-dir="$WORK/ck" --resume | grep -i "resum" || true

echo "== comparing final reports =="
if ! cmp "$WORK/ref.json" "$WORK/out.json"; then
  echo "FAIL: resumed report differs from the uninterrupted reference" >&2
  exit 1
fi
echo "PASS: resumed JSON is byte-identical to the uninterrupted run"
