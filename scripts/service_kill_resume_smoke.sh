#!/usr/bin/env bash
# Daemon kill-and-resume smoke: SIGKILL alpha_serviced while a supervised
# search job is mid-run, restart it on the same checkpoint directory, and
# require the auto-resumed job's job_result response to be byte-identical to
# the one an uninterrupted daemon produces for the same spec. A third daemon
# then reloads the DONE job from its record alone and must serve the same
# status and the same job_result line without running it.
#
# The kill is timed off the job's own progress (job_status polling — SIGKILL
# once >= 2 batch barriers committed, well before the ~30-batch budget), so
# the race window is wide; if the job still finishes first (pathologically
# fast box), the run is retried with AE_FAULT=crash_after_write@3, which
# _Exit(42)s the daemon right after the third snapshot publish — the same
# no-cleanup death.
#
# Usage: scripts/service_kill_resume_smoke.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
DAEMON="$BUILD_DIR/alpha_serviced"
if [[ ! -x "$DAEMON" ]]; then
  echo "error: $DAEMON not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python3 - "$DAEMON" "$WORK" <<'PY'
import json
import os
import signal
import subprocess
import sys
import time

daemon_path, work = sys.argv[1], sys.argv[2]
FLAGS = ["--stocks=24", "--days=220", "--data-seed=13",
         "--max-candidates=480", "--checkpoint-every=2"]
SPEC = {"seed": 7, "max_candidates": 480}


def start(ckpt_dir, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.Popen(
        [daemon_path, f"--checkpoint-dir={ckpt_dir}", *FLAGS],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, bufsize=1, env=full_env)


def call(proc, op, rid, params=None, timeout=300.0):
    req = {"op": op, "id": rid}
    if params is not None:
        req["params"] = params
    proc.stdin.write(json.dumps(req) + "\n")
    proc.stdin.flush()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon died waiting for {rid!r}")
        doc = json.loads(line)
        if doc["id"] == rid:
            assert doc.get("ok"), f"{op} failed: {doc}"
            return doc, line.rstrip("\n")
    raise TimeoutError(rid)


def wait_done(proc, job, timeout=600.0):
    deadline = time.monotonic() + timeout
    n = 0
    while time.monotonic() < deadline:
        n += 1
        doc, _ = call(proc, "job_status", f"p{n}", {"job": job})
        if doc["result"]["state"] == "done":
            return doc["result"]
        time.sleep(0.05)
    raise TimeoutError(job)


def result_line(proc, job):
    # The fixed request id makes the whole response line byte-comparable.
    _, raw = call(proc, "job_result", "final", {"job": job})
    return raw


# --- Reference: one uninterrupted daemon mines the spec to completion.
print("== reference daemon (uninterrupted) ==")
ref = start(f"{work}/ck_ref")
job, _ = call(ref, "submit_search", "s", SPEC)
job = job["result"]["job"]
wait_done(ref, job)
ref_line = result_line(ref, job)
ref.stdin.close()
assert ref.wait(timeout=120) == 0
print(f"reference {job} done")

# --- Interrupted: SIGKILL mid-run, keyed off committed batch barriers.
print("== interrupted daemon (SIGKILL mid-job) ==")
crash_dir = f"{work}/ck_crash"
victim = start(crash_dir)
job2, _ = call(victim, "submit_search", "s", SPEC)
job2 = job2["result"]["job"]
killed = False
for n in range(2000):
    doc, _ = call(victim, "job_status", f"k{n}", {"job": job2})
    state = doc["result"]
    if state["state"] == "done":
        break
    # Kill only once a snapshot is durable on disk: the background publisher
    # lags the batch barrier that queued it, and a kill before the first
    # publish would test the fresh-start path, not resume.
    durable = any(f.endswith(".ckpt")
                  for f in os.listdir(f"{crash_dir}/{job2}"))
    if state["batches_committed"] >= 2 and durable:
        victim.kill()  # SIGKILL: no handlers, no flush, no drain
        victim.wait()
        killed = True
        print(f"SIGKILLed at batch {state['batches_committed']}")
        break
    time.sleep(0.01)

if not killed:
    print("job finished before the signal; retrying with deterministic "
          "crash injection")
    import shutil
    shutil.rmtree(crash_dir, ignore_errors=True)
    victim = start(crash_dir, env={"AE_FAULT": "crash_after_write@3"})
    job2, _ = call(victim, "submit_search", "s", SPEC)
    job2 = job2["result"]["job"]
    status = victim.wait(timeout=600)
    assert status == 42, f"crash injection did not fire (exit {status})"
    print("crashed after the 3rd snapshot publish (exit 42)")

ckpts = [f for f in os.listdir(f"{crash_dir}/{job2}") if f.endswith(".ckpt")]
assert ckpts, "no snapshots survived the kill"

# --- Restart on the same directory: Recover requeues and auto-resumes.
print("== restarted daemon (auto-resume) ==")
revived = start(crash_dir)
status = wait_done(revived, job2)
assert status["resumes"] >= 1 or status["attempts"] >= 2, status
out_line = result_line(revived, job2)
revived.stdin.close()
assert revived.wait(timeout=120) == 0

if out_line != ref_line:
    print("FAIL: resumed job_result differs from the uninterrupted "
          "reference", file=sys.stderr)
    print(f"  ref: {ref_line}", file=sys.stderr)
    print(f"  got: {out_line}", file=sys.stderr)
    sys.exit(1)
print("PASS: resumed job_result is byte-identical to the uninterrupted run")

# --- Reload: a third daemon serves the DONE job from its record alone.
print("== reloaded daemon (DONE job from its record) ==")
reloaded = start(crash_dir)
doc, _ = call(reloaded, "job_status", "r", {"job": job2})
assert doc["result"]["state"] == "done", doc
assert doc["result"]["attempts"] == status["attempts"], (doc, status)
reload_line = result_line(reloaded, job2)
reloaded.stdin.close()
assert reloaded.wait(timeout=120) == 0
if reload_line != ref_line:
    print("FAIL: reloaded job_result differs from the uninterrupted "
          "reference", file=sys.stderr)
    print(f"  ref: {ref_line}", file=sys.stderr)
    print(f"  got: {reload_line}", file=sys.stderr)
    sys.exit(1)
left = sorted(os.listdir(f"{crash_dir}/{job2}"))
assert left == ["job"], f"{job2}/ should hold only its record: {left}"
print("PASS: reloaded job_result is byte-identical; the job's directory "
      "holds only its record")
PY
