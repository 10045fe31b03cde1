#!/usr/bin/env python3
"""End-to-end smoke for the resident alpha service daemon.

Starts ./alpha_serviced on pipes, drives the full op catalog over the
line-delimited JSON protocol — health, submit_search, job_status polling,
job_result, query_alphas, signals, backtest, stress, metrics, error paths
(a tournament larger than the population and an op deadline past one day
are refused) — then a job whose deadline expires mid-search, which must
stop at a batch barrier and park cancelled with deadline_exceeded while the
daemon keeps serving, checks health's per-state job counts, and finishes
with a drain op, asserting the daemon exits 0. A malformed or out-of-range
numeric flag (a default op deadline past one day, a negative or non-numeric
queue capacity, a non-numeric panel size, a negative worker count, a zero
candidate budget) is refused at startup with exit code 2.

Usage: scripts/service_smoke.py [build_dir]
"""

import json
import subprocess
import sys
import time


class Daemon:
    """One alpha_serviced process driven over stdin/stdout pipes."""

    def __init__(self, binary, *flags):
        self.proc = subprocess.Popen(
            [binary, *flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self.pending = {}  # id -> (doc, raw line), responses read early

    def send(self, op, rid, params=None, deadline_ms=None):
        req = {"op": op, "id": rid}
        if params is not None:
            req["params"] = params
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()

    def wait(self, rid, timeout=120.0):
        """Returns (parsed, raw_line) for the response matching rid."""
        if rid in self.pending:
            return self.pending.pop(rid)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"daemon closed stdout waiting for {rid!r} "
                    f"(exit {self.proc.poll()})"
                )
            doc = json.loads(line)
            if doc["id"] == rid:
                return doc, line.rstrip("\n")
            self.pending[doc["id"]] = (doc, line.rstrip("\n"))
        raise TimeoutError(f"no response for {rid!r} within {timeout}s")

    def call(self, op, rid, params=None, deadline_ms=None, timeout=120.0):
        self.send(op, rid, params, deadline_ms)
        return self.wait(rid, timeout)[0]

    def ok(self, op, rid, params=None, timeout=120.0):
        doc = self.call(op, rid, params, timeout=timeout)
        assert doc.get("ok"), f"{op} failed: {doc}"
        return doc["result"]

    def err(self, op, rid, params=None):
        doc = self.call(op, rid, params)
        assert not doc.get("ok"), f"{op} unexpectedly succeeded: {doc}"
        return doc["error"]["code"]

    def close(self, expect_exit=0, timeout=120.0):
        self.proc.stdin.close()
        status = self.proc.wait(timeout=timeout)
        assert status == expect_exit, f"daemon exited {status}"


def wait_for_state(daemon, job, states, timeout=300.0):
    deadline = time.monotonic() + timeout
    n = 0
    while time.monotonic() < deadline:
        n += 1
        status = daemon.ok("job_status", f"poll-{n}", {"job": job})
        if status["state"] in states:
            return status
        time.sleep(0.1)
    raise TimeoutError(f"{job} never reached {states}")


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    binary = f"{build}/alpha_serviced"
    for flag in ("--default-deadline-ms=1e15", "--queue-capacity=-1",
                 "--queue-capacity=abc", "--stocks=abc", "--job-workers=-3",
                 "--max-candidates=0", "--stocks=1"):
        refused = subprocess.run([binary, flag], stdin=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, timeout=120)
        assert refused.returncode == 2, (flag, refused.returncode)
    daemon = Daemon(
        binary,
        "--stocks=24", "--days=220", "--data-seed=13",
        "--max-candidates=96", "--checkpoint-every=2", "--telemetry",
    )

    health = daemon.ok("health", "h1")
    assert health["status"] == "ok" and health["ready"], health
    assert health["queue_capacity"] > 0, health

    # Error paths answer with structured codes, and the daemon keeps serving.
    daemon.proc.stdin.write("this is not json\n")
    daemon.proc.stdin.flush()
    bad, _ = daemon.wait("")
    assert bad["error"]["code"] == "bad_request", bad
    assert daemon.err("job_status", "e1", {"job": "job-99"}) == "not_found"
    assert daemon.err("submit_search", "e2", {"batch_size": 0}) == \
        "invalid_argument"
    assert daemon.err("teleport", "e3") == "bad_request"
    # A tournament larger than the population could only fail: nothing runs.
    assert daemon.err("submit_search", "e4", {
        "population_size": 4, "tournament_size": 5}) == "invalid_argument"
    late_op = daemon.call("list_jobs", "e5", deadline_ms=1e15)
    assert late_op["error"]["code"] == "invalid_argument", late_op

    # One full supervised search through the protocol.
    submitted = daemon.ok("submit_search", "s1", {"seed": 7})
    job = submitted["job"]
    status = wait_for_state(daemon, job, {"done", "failed"})
    assert status["state"] == "done", status
    assert status["attempts"] >= 1 and status["has_result"], status

    result = daemon.ok("job_result", "r1", {"job": job})
    assert result["has_alpha"], result
    assert "metrics" in result and "stats" in result, result
    assert result["stats"]["candidates"] > 0, result

    alphas = daemon.ok("query_alphas", "qa1")["alphas"]
    assert len(alphas) == 1 and alphas[0]["job"] == job, alphas

    signals = daemon.ok("signals", "sg1", {"job": job, "split": "valid",
                                           "date": 0})
    assert len(signals["predictions"]) > 0, signals
    assert daemon.err("signals", "sg2", {"job": job, "date": 10**6}) == \
        "invalid_argument"

    backtest = daemon.ok("backtest", "bt1", {"job": job})
    assert backtest["ic_valid"] == result["metrics"]["ic_valid"], \
        (backtest, result)

    stress = daemon.ok("stress", "st1", {"job": job, "scenarios": 2},
                       timeout=300.0)
    assert len(stress["scenarios"]) == 2, stress
    assert stress["scenarios"][0]["scenario"] == "baseline", stress
    for cell in stress["scenarios"]:
        # Each row carries the backtest's field set, `valid` included.
        for key in ("scenario", "valid", "ic_valid", "sharpe_valid",
                    "sharpe_test"):
            assert key in cell, (key, cell)

    metrics = daemon.ok("metrics", "m1")
    assert metrics["counters"].get("service.ops_completed", 0) > 0, metrics

    # A job deadline through the real search driver: a budget far beyond
    # the deadline, so the search is stopped at a batch barrier past it.
    late = daemon.ok("submit_search", "s2", {
        "seed": 8, "max_candidates": 10**7, "deadline_seconds": 0.5})["job"]
    status = wait_for_state(daemon, late, {"done", "failed", "cancelled"})
    assert status["state"] == "cancelled", status
    assert status["error"] == "deadline_exceeded", status
    assert status["attempts"] == 1, status
    health = daemon.ok("health", "h2")
    assert health["status"] == "ok", health
    assert health["jobs"] == {"pending": 0, "running": 0, "done": 1,
                              "failed": 0, "cancelled": 1}, health

    # Drain: the daemon acknowledges, refuses new work, exits 0.
    drained = daemon.ok("drain", "d1")
    assert drained["draining"], drained
    daemon.close(expect_exit=0)
    print("service smoke ok: full op catalog over one mined alpha")


if __name__ == "__main__":
    main()
