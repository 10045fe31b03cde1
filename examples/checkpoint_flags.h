// Shared checkpoint/crash-recovery flag handling for the example binaries.
// Like telemetry_flags.h, the flags are position-independent `--key=value`
// arguments stripped from argv before the positional parse:
//
//   --checkpoint-dir=DIR        write generation-numbered snapshots there
//   --checkpoint-every=N        snapshot every N committed batches (def. 8)
//   --checkpoint-every-secs=S   also snapshot every S wall-clock seconds
//   --checkpoint-keep=K         retain the newest K generations (default 3)
//   --resume                    continue from the newest valid snapshot in
//                               --checkpoint-dir instead of starting fresh
//   --max-candidates=N          per-search candidate budget; replaces the
//                               positional time budget so interrupted and
//                               uninterrupted runs cover the same candidates
//                               (required for bit-identical resume; 0, the
//                               default, keeps the time budget)
//   --eval-budget=S             per-candidate evaluation watchdog in seconds
//                               (0 = off; arming trades bit-reproducibility
//                               for liveness on pathological candidates)
//
// Numeric values are parsed whole (flag_number.h): N, K and S must be at
// least 0 and N at most 2^53; anything else exits 2.
#ifndef ALPHAEVOLVE_EXAMPLES_CHECKPOINT_FLAGS_H_
#define ALPHAEVOLVE_EXAMPLES_CHECKPOINT_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "ckpt/checkpoint.h"
#include "core/evolution.h"
#include "flag_number.h"
#include "util/serde.h"

namespace alphaevolve::examples {

struct CheckpointFlags {
  std::string dir;
  int every_batches = 8;
  double every_seconds = 0.0;
  int keep = 3;
  bool resume = false;
  int64_t max_candidates = 0;
  double eval_budget = 0.0;

  bool enabled() const { return !dir.empty(); }

  ckpt::WriterOptions ToWriterOptions() const {
    ckpt::WriterOptions options;
    options.every_batches = every_batches;
    options.every_seconds = every_seconds;
    options.keep = keep;
    return options;
  }
};

/// Removes the checkpoint flags from (argc, argv) — leaving the positional
/// arguments contiguous — and returns the parsed values.
inline CheckpointFlags StripCheckpointFlags(int& argc, char** argv) {
  CheckpointFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value_of("--checkpoint-dir=")) {
      flags.dir = v;
    } else if (const char* v = value_of("--checkpoint-every=")) {
      flags.every_batches = FlagNumber(arg, v, 0);
    } else if (const char* v = value_of("--checkpoint-every-secs=")) {
      flags.every_seconds = FlagNumber(arg, v, 0.0);
    } else if (const char* v = value_of("--checkpoint-keep=")) {
      flags.keep = FlagNumber(arg, v, 0);
    } else if (std::strcmp(arg, "--resume") == 0) {
      flags.resume = true;
    } else if (const char* v = value_of("--max-candidates=")) {
      flags.max_candidates =
          FlagNumber<int64_t>(arg, v, 0, kMaxFlagCandidates);
    } else if (const char* v = value_of("--eval-budget=")) {
      flags.eval_budget = FlagNumber(arg, v, 0.0);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (flags.enabled() && flags.max_candidates <= 0) {
    std::fprintf(stderr,
                 "warning: --checkpoint-dir without --max-candidates: "
                 "time-budgeted searches resume from the snapshot but cannot "
                 "reproduce the uninterrupted run bit-for-bit\n");
  }
  if (flags.resume && !flags.enabled()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    std::exit(2);
  }
  return flags;
}

/// The per-search wall-clock budget, positional argument `index`: at least
/// 0, and more than 0 unless --max-candidates bounds each search instead
/// (0 seconds and no candidate budget would never stop).
inline double SearchSeconds(int argc, char** argv, int index,
                            double fallback, const CheckpointFlags& flags) {
  if (index >= argc) return fallback;
  const std::optional<double> seconds = WholeNumber(argv[index], 0.0);
  if (!seconds || (*seconds == 0.0 && flags.max_candidates == 0)) {
    RefuseValue(std::string("seconds_per_search=") + argv[index],
                flags.max_candidates == 0 ? "a number > 0" : "a number >= 0");
  }
  return *seconds;
}

/// Loads and decodes the newest valid search snapshot of `<dir>/<stem>`;
/// nullopt when none exists (fresh start) or the payload will not decode
/// (warned, treated as no snapshot — never fatal).
inline std::optional<core::EvolutionCheckpoint> LoadSearchResume(
    const CheckpointFlags& flags, const std::string& stem) {
  if (!flags.resume) return std::nullopt;
  const auto loaded = ckpt::LoadNewest(flags.dir, stem);
  if (!loaded.has_value()) return std::nullopt;
  if (loaded->kind != ckpt::kSearchSnapshotKind) {
    std::fprintf(stderr,
                 "warning: %s/%s generation %lld has kind %u, expected a "
                 "search snapshot; starting fresh\n",
                 flags.dir.c_str(), stem.c_str(),
                 static_cast<long long>(loaded->generation), loaded->kind);
    return std::nullopt;
  }
  try {
    return ckpt::DecodeSearchSnapshot(loaded->payload);
  } catch (const serde::Error& e) {
    std::fprintf(stderr,
                 "warning: undecodable search snapshot %s/%s (%s); starting "
                 "fresh\n",
                 flags.dir.c_str(), stem.c_str(), e.what());
    return std::nullopt;
  }
}

/// Loads the newest valid campaign snapshot of `<dir>/<stem>`; nullopt for a
/// fresh start.
inline std::optional<ckpt::CampaignState> LoadCampaignResume(
    const CheckpointFlags& flags, const std::string& stem,
    int64_t* generation = nullptr) {
  if (!flags.resume) return std::nullopt;
  const auto loaded = ckpt::LoadNewest(flags.dir, stem);
  if (!loaded.has_value()) return std::nullopt;
  if (loaded->kind != ckpt::kCampaignSnapshotKind) {
    std::fprintf(stderr,
                 "warning: %s/%s generation %lld has kind %u, expected a "
                 "campaign snapshot; starting fresh\n",
                 flags.dir.c_str(), stem.c_str(),
                 static_cast<long long>(loaded->generation), loaded->kind);
    return std::nullopt;
  }
  try {
    ckpt::CampaignState state = ckpt::DecodeCampaign(loaded->payload);
    if (generation != nullptr) *generation = loaded->generation;
    return state;
  } catch (const serde::Error& e) {
    std::fprintf(stderr,
                 "warning: undecodable campaign snapshot %s/%s (%s); "
                 "starting fresh\n",
                 flags.dir.c_str(), stem.c_str(), e.what());
    return std::nullopt;
  }
}

}  // namespace alphaevolve::examples

#endif  // ALPHAEVOLVE_EXAMPLES_CHECKPOINT_FLAGS_H_
