// Shared telemetry flag handling for the example binaries. Flags are
// position-independent `--key=value` arguments stripped from argv before the
// positional parse, so they compose with every existing invocation:
//
//   --telemetry             enable the metrics registry (counters/histograms)
//   --metrics-out=PATH      write the registry snapshot JSON (implies
//                           --telemetry)
//   --trace-out=PATH        record spans and write Chrome-trace JSON, open in
//                           chrome://tracing or https://ui.perfetto.dev
//                           (implies --telemetry)
//   --progress-every=SECS   stream periodic progress lines to stderr and, with
//                           --metrics-out=X, JSON records to X.progress
//                           (implies --telemetry)
#ifndef ALPHAEVOLVE_EXAMPLES_TELEMETRY_FLAGS_H_
#define ALPHAEVOLVE_EXAMPLES_TELEMETRY_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "obs/flush.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace alphaevolve::examples {

struct TelemetryFlags {
  bool enabled = false;
  std::string trace_out;
  std::string metrics_out;
  double progress_every = 0.0;

  obs::TelemetryConfig ToConfig() const {
    obs::TelemetryConfig config;
    config.enabled = enabled;
    config.tracing = !trace_out.empty();
    return config;
  }
};

/// Removes the telemetry flags from (argc, argv) — leaving the positional
/// arguments contiguous — and returns the parsed values.
inline TelemetryFlags StripTelemetryFlags(int& argc, char** argv) {
  TelemetryFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (std::strcmp(arg, "--telemetry") == 0) {
      flags.enabled = true;
    } else if (const char* v = value_of("--trace-out=")) {
      flags.trace_out = v;
      flags.enabled = true;
    } else if (const char* v = value_of("--metrics-out=")) {
      flags.metrics_out = v;
      flags.enabled = true;
    } else if (const char* v = value_of("--progress-every=")) {
      flags.progress_every = std::atof(v);
      flags.enabled = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flags;
}

/// Applies the flags process-wide and starts the progress stream (if asked
/// for). Call before the mining run; keep the returned reporter alive
/// through it.
inline std::unique_ptr<obs::ProgressReporter> StartTelemetry(
    const TelemetryFlags& flags) {
  if (!flags.enabled) return nullptr;
  obs::Configure(flags.ToConfig());
  std::unique_ptr<obs::ProgressReporter> reporter;
  if (flags.progress_every > 0.0) {
    obs::ProgressReporter::Options options;
    options.interval_seconds = flags.progress_every;
    options.stream = &std::cerr;  // progress lines; stdout keeps the report
    if (!flags.metrics_out.empty()) {
      options.json_path = flags.metrics_out + ".progress";
    }
    reporter = std::make_unique<obs::ProgressReporter>(
        obs::MetricsRegistry::Default(), std::move(options));
  }
  // If the run dies before FinishTelemetry — fatal signal, stray exit() —
  // the hook still flushes the reporter and writes the artifacts, so a
  // crashed campaign keeps its telemetry.
  obs::InstallCrashFlush(
      {flags.metrics_out, flags.trace_out, reporter.get()});
  return reporter;
}

/// Stops the progress stream, writes the requested artifacts, and prints the
/// span summary table. Returns false if a file could not be written.
inline bool FinishTelemetry(const TelemetryFlags& flags,
                            std::unique_ptr<obs::ProgressReporter> reporter) {
  if (!flags.enabled) return true;
  obs::DisarmCrashFlush();  // the normal path below writes the artifacts
  if (reporter != nullptr) reporter->Stop();
  bool ok = true;
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    out << obs::MetricsRegistry::Default().ToJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n",
                   flags.metrics_out.c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", flags.metrics_out.c_str());
    }
  }
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    out << obs::ToChromeTraceJson(obs::TraceRecorder::Default()) << "\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n",
                   flags.trace_out.c_str());
      ok = false;
    } else {
      std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                  flags.trace_out.c_str());
    }
    std::printf("\nspan summary:\n");
    obs::PrintSpanSummary(obs::TraceRecorder::Default(), std::cout);
  }
  return ok;
}

}  // namespace alphaevolve::examples

#endif  // ALPHAEVOLVE_EXAMPLES_TELEMETRY_FLAGS_H_
