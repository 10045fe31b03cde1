#!/usr/bin/env python3
"""End-to-end benchmark of the alpha-mining library.

Builds the library and the in-process driver (e2ebench/e2e.cc) from source,
runs one fixed-work workload, checks that the work and its results match the
pinned references in reference.json, and prints one JSON line of metrics:

    python3 e2ebench/run.py --workload mine_ci --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer table.
Extra modes (not used by the gate):

    python3 e2ebench/run.py --record [--workload W]   # rewrite reference.json
    python3 e2ebench/run.py --scaling --seconds 20    # thread/pipeline report

Run from the repository root. See e2ebench/NOTES.md for the workloads, the
metric definitions and the noise controls.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("mine_ci", "mine_paper", "mine_stress_ckpt", "service_mixed")
# --seed picks one of a few pinned input variants per workload: the seed base
# of the workload's searches (or service jobs). Each variant has its own
# reference work counters and result digest. Search cost depends strongly on
# the programs a search evolves, so each workload keeps the largest group of
# bases whose measured unit wall time and CPU per evaluation agree within
# the host's run-to-run noise; for mine_ci no two did (NOTES.md, "Input
# variants").
VARIANT_BASES = {
    "mine_ci": (0,),
    "mine_paper": (22, 23),
    "mine_stress_ckpt": (0, 2, 3, 16),
    "service_mixed": (3, 4, 5, 6),
}
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BINARY_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "cands_per_s": "1/s",
    "cpu_ms_per_eval": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "market.simulate_ms": "ms",
    "market.panel_mb": "MiB",
    "evolution.generate_ms": "ms",
    "evolution.fingerprint_ms": "ms",
    "evolution.commit_ms": "ms",
    "evolution.commit_wait_ms": "ms",
    "evolution.tournament_wait_ms": "ms",
    "prune.us_per_cand": "us",
    "prune.redundant_frac": "ratio",
    "cache.hit_frac": "ratio",
    "executor.run_ms_p50": "ms",
    "executor.run_ms_p99": "ms",
    "executor.ns_per_task_date": "ns",
    "eval.ic_ms": "ms",
    "eval.backtest_ms": "ms",
    "eval.sharpe_us": "us",
    "eval.cutoff_us": "us",
    "evaluate.ms_p50": "ms",
    "evaluate.ms_p99": "ms",
    "pool.busy_frac": "ratio",
    "pool.lease_wait_ms": "ms",
    "threadpool.tasks_helped": "count",
    "mining.round_s": "s",
    "mining.search_skew": "ratio",
    "scenario.overlay_build_ms": "ms",
    "scenario.resident_mb": "MiB",
    "scenario.score_ms_p50": "ms",
    "scenario.score_ms_p99": "ms",
    "scenario.regimes_per_eval": "ratio",
    "scenario.screen_reject_frac": "ratio",
    "ckpt.write_ms": "ms",
    "ckpt.capture_ms": "ms",
    "ckpt.publish_ms": "ms",
    "ckpt.snapshot_kb": "KiB",
    "ckpt.generations": "count",
    "service.job_p50_ms": "ms",
    "service.job_p80_ms": "ms",
    "service.backtest_p50_ms": "ms",
    "service.backtest_p80_ms": "ms",
    "service.stress_p50_ms": "ms",
    "service.stress_p80_ms": "ms",
    "service.status_us_p50": "us",
    "service.status_us_p99": "us",
    "service.result_ms": "ms",
    "service.signals_first_ms": "ms",
    "service.signals_cached_us": "us",
    "service.stress_regime_ms": "ms",
    "service.jobs_retried": "count",
    "obs.trace_overhead_pct": "%",
}

# Per-layer percentiles over the driver's latency samples:
# metric -> (sample name, percentile).
SAMPLE_PERCENTILES = {
    "executor.run_ms_p50": ("executor_run_ms", 50),
    "executor.run_ms_p99": ("executor_run_ms", 99),
    "executor.ns_per_task_date": ("executor_ns_per_task_date", 50),
    "eval.ic_ms": ("eval_ic_ms", 50),
    "eval.backtest_ms": ("eval_backtest_ms", 50),
    "eval.sharpe_us": ("eval_sharpe_us", 50),
    "eval.cutoff_us": ("eval_cutoff_us", 50),
    "evaluate.ms_p50": ("evaluate_ms", 50),
    "evaluate.ms_p99": ("evaluate_ms", 99),
    "scenario.score_ms_p50": ("score_ms", 50),
    "scenario.score_ms_p99": ("score_ms", 99),
    "service.job_p50_ms": ("job_ms", 50),
    "service.job_p80_ms": ("job_ms", 80),
    "service.backtest_p50_ms": ("backtest_ms", 50),
    "service.backtest_p80_ms": ("backtest_ms", 80),
    "service.stress_p50_ms": ("stress_ms", 50),
    "service.stress_p80_ms": ("stress_ms", 80),
    "service.status_us_p50": ("status_us", 50),
    "service.status_us_p99": ("status_us", 99),
    "service.result_ms": ("result_ms", 50),
    "service.signals_first_ms": ("signals_first_ms", 50),
    "service.signals_cached_us": ("signals_cached_us", 50),
}

STRESS_REGIMES = 3  # the read script's stress op asks for three regimes


# ------------------------------------------------------------------ helpers


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100] of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n, wanted):
    """The highest of the percentiles 99/95/90/80/75, at most `wanted`, with
    at least ten of `n` samples beyond it (a tail read from fewer samples is
    one outlier); the median when none qualifies."""
    for p in (99, 95, 90, 80, 75):
        if p <= wanted and n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def variant_of(workload, seed):
    bases = VARIANT_BASES[workload]
    return bases[seed % len(bases)]


def unit_mismatches(unit, reference):
    """Differences between a unit's work counters/result digest and the
    pinned reference; empty when the unit did exactly the pinned work."""
    problems = []
    if reference is None:
        return ["no reference for this workload/variant"]
    for name, want in reference["counters"].items():
        got = unit["counters"].get(name)
        if got != want:
            problems.append("%s: %s != pinned %s" % (name, got, want))
    if unit["digest"] != reference["digest"]:
        problems.append("digest: %s != pinned %s" % (unit["digest"],
                                                     reference["digest"]))
    return problems


def account(units, reference):
    """(attempted, failed, problems): a unit whose work or results differ
    from the reference fails all its operations; otherwise only the
    operations that returned an error fail."""
    attempted = failed = 0
    problems = []
    for unit in units:
        attempted += unit["ops"]
        bad = unit_mismatches(unit, reference)
        if bad:
            failed += unit["ops"]
            problems.extend(bad)
        else:
            failed += unit["failed_ops"]
    return attempted, failed, problems


def paid_evaluations(unit):
    """Full evaluations a unit paid: regime evaluations under scenario
    fitness, plain evaluations otherwise."""
    c = unit["counters"]
    return c.get("regime_evals") or c["evaluated"]


def end_to_end(raw):
    units = [u for u in raw["units"] if not u["traced"]]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "cands_per_s": statistics.median(
            [u["counters"]["candidates"] / u["wall_s"] for u in units]),
        "cpu_ms_per_eval": statistics.median(
            [1e3 * u["cpu_s"] / paid_evaluations(u) for u in units]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer table; 0 for a layer the workload bypasses."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    traced = [u for u in raw["units"] if u["traced"]]
    untraced = [u for u in raw["units"] if not u["traced"]]
    for key in {k for u in traced for k in u["layers"]}:
        values[key] = statistics.median([u["layers"][key] for u in traced
                              if key in u["layers"]])
    for metric, (sample, p) in SAMPLE_PERCENTILES.items():
        xs = raw["samples"].get(sample)
        if xs:
            values[metric] = percentile(xs, tail_percentile(len(xs), p))
    values["service.stress_regime_ms"] = (
        values["service.stress_p50_ms"] / STRESS_REGIMES)
    for key, v in raw["layers"].items():
        if key in values:
            values[key] = v
    if traced and untraced:
        base = statistics.median([u["wall_s"] for u in untraced])
        values["obs.trace_overhead_pct"] = 100.0 * (
            statistics.median([u["wall_s"] for u in traced]) / base - 1.0)
    return values


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


# --------------------------------------------------------------- build/run


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no library sources next to e2ebench/ "
                           "(run from a full checkout)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "e2e", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2e")


def run_driver(binary, workload, variant, seconds, trace, threads=4,
               pipeline=1):
    workdir = os.path.join(build_dir(), "work-%s-%d" % (workload, os.getpid()))
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--variant", str(variant),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--threads", str(threads), "--pipeline", str(pipeline),
             "--workdir", workdir],
            check=True, stdout=subprocess.PIPE, stderr=sys.stderr,
            timeout=BINARY_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def reference_for(reference, workload, variant):
    return reference.get(workload, {}).get(str(variant))


def machine_stamp(raw):
    m = raw["machine"]
    steal = 100.0 * m["steal_ticks"] / max(1, m["total_ticks"])
    return ("machine: nproc=%d cpu=%r kernels=%s AE_NATIVE=%s ckpt_fs=%s "
            "steal=%.1f%% | setup=%d units=%d" % (
                m["nproc"], m["cpu_model"], m["kernel_variant"],
                "ON" if m["ae_native"] else "OFF", m["ckpt_fs"], steal,
                len(raw["setup_s"]), len(raw["units"])))


# ------------------------------------------------------------------- modes


def measure(args):
    binary = build()
    variant = variant_of(args.workload, args.seed)
    raw = run_driver(binary, args.workload, variant, args.seconds, args.trace)
    log(machine_stamp(raw))
    attempted, failed, problems = account(
        raw["units"], reference_for(load_reference(), args.workload, variant))
    for p in problems[:10]:
        log("MISMATCH", args.workload, "variant", variant, p)
    correct = not problems and failed == 0
    if args.trace:
        replay_bad = raw["layers"].get("replay.mismatches", 0)
        if replay_bad:
            log("MISMATCH replayed evaluations differ:", replay_bad)
            correct = False
        values, units = per_layer(raw), PER_LAYER
    else:
        values, units = end_to_end(raw), END_TO_END
    for k in units:
        log("  %-30s %14.6g %s" % (k, values[k], units[k]))
    print(result_line(correct, attempted, failed, values, units))
    return 0


def record(args):
    binary = build()
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        for variant in VARIANT_BASES[workload]:
            unit = run_driver(binary, workload, variant, 1, False)["units"][0]
            entry = {"counters": unit["counters"], "digest": unit["digest"]}
            reference.setdefault(workload, {})[str(variant)] = entry
            log(workload, variant, entry)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def scaling(args):
    """cands_per_s at 1/2/4 threads (pinned batch, so identical work) and at
    pipeline depth 0 vs 1. Not gated; every run must still match the
    reference work exactly."""
    binary = build()
    reference = load_reference()
    rows = [(w, t, 1) for w in ("mine_ci", "mine_paper") for t in (1, 2, 4)]
    rows.append(("mine_ci", 4, 0))
    print("| workload | threads | pipeline | cands_per_s | cpu_ms_per_eval "
          "| units | work matches |")
    print("|---|---|---|---|---|---|---|")
    for workload, threads, pipeline in rows:
        variant = VARIANT_BASES[workload][0]
        raw = run_driver(binary, workload, variant, args.seconds, False,
                         threads, pipeline)
        _, failed, problems = account(
            raw["units"], reference_for(reference, workload, variant))
        e2e = end_to_end(raw)
        print("| %s | %d | %d | %.2f | %.2f | %d | %s |" % (
            workload, threads, pipeline, e2e["cands_per_s"],
            e2e["cpu_ms_per_eval"], len(raw["units"]),
            "yes" if not problems and not failed else "NO"), flush=True)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record(args)
        if args.scaling:
            return scaling(args)
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py:", e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
