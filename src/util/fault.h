#ifndef ALPHAEVOLVE_UTIL_FAULT_H_
#define ALPHAEVOLVE_UTIL_FAULT_H_

#include <string>
#include <utility>

namespace alphaevolve::fault {

/// Failure modes the checkpoint stream can be asked to exhibit, for the
/// crash-recovery tests and the CI fault matrix. Configured through the
/// AE_FAULT environment variable — `AE_FAULT=<kind>[@<n>]`, e.g.
/// `AE_FAULT=torn_write@2` — or programmatically via SetForTesting.
///
///   crash_after_write  _Exit(kCrashExitCode) right after the n-th snapshot
///                      is durably published (write + fsync + rename) — the
///                      SIGKILL-equivalent for resume tests. One-shot.
///   torn_write         the n-th snapshot is truncated mid-file before
///                      publication (a torn page / lost tail), exercising
///                      the reader's CRC check + generation fallback.
///                      One-shot.
///   enospc / eio       every write from the n-th on fails as if the disk
///                      were full / erroring; the writer must degrade to a
///                      warning + counter, never abort the search, and the
///                      service keeps each job's previous record (both
///                      publish through ckpt::PublishFile). Persistent.
///   delay              every InjectDelay site from the n-th on sleeps
///                      kDelayMillis — slow I/O / a slow evaluation, for
///                      deterministic deadline-exceeded tests. Persistent
///                      (a slow disk stays slow).
enum class Kind {
  kNone = 0,
  kCrashAfterWrite,
  kTornWrite,
  kEnospc,
  kEio,
  kDelay,
};

/// Exit code of the simulated crash, asserted by the kill-and-resume smoke.
inline constexpr int kCrashExitCode = 42;

/// How long one injected delay sleeps. Long enough that a millisecond-scale
/// op deadline deterministically expires across it, short enough to keep the
/// fault-matrix suites fast.
inline constexpr int kDelayMillis = 100;

/// True iff the active fault is `kind` and this call is the firing occasion
/// (the n-th Fire of that kind; every later call too for persistent kinds).
/// When no fault is configured this is one relaxed atomic load + compare —
/// cheap enough to leave in production code paths.
bool Fire(Kind kind);

/// Sleeps kDelayMillis iff the delay fault fires at this call (see Fire);
/// returns whether it slept. Drop this at any latency-sensitive site — the
/// checkpoint publish path and the service op loop use it — to make
/// deadline/timeout handling testable without wall-clock races.
bool InjectDelay();

/// The configured kind (test override first, then AE_FAULT), kNone if none.
Kind Active();

/// Overrides AE_FAULT for this process: `kind` fires on the `trigger_at`-th
/// Fire call (1-based). Pass kNone to neutralize faults entirely — tests
/// that need clean I/O call this in SetUp so a CI-wide AE_FAULT matrix
/// variable cannot perturb them. Resets the occurrence counter.
void SetForTesting(Kind kind, int trigger_at = 1);

/// Drops the test override, returning to the AE_FAULT environment setting
/// (re-parsed lazily). Resets the occurrence counter.
void ClearForTesting();

/// Parses an `AE_FAULT`-style spec ("torn_write@2") into (kind, trigger).
/// Unknown kinds parse as kNone. Exposed so the env-driven fault-matrix
/// test can see what CI asked for without consuming the Fire counter.
std::pair<Kind, int> Parse(const std::string& spec);

/// The (kind, trigger) currently in the AE_FAULT environment variable,
/// ignoring any SetForTesting override. (kNone, 1) when unset.
std::pair<Kind, int> FromEnv();

const char* KindName(Kind kind);

}  // namespace alphaevolve::fault

#endif  // ALPHAEVOLVE_UTIL_FAULT_H_
