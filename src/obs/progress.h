#ifndef ALPHAEVOLVE_OBS_PROGRESS_H_
#define ALPHAEVOLVE_OBS_PROGRESS_H_

#include <condition_variable>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

namespace alphaevolve::obs {

class MetricsRegistry;

/// Background thread that snapshots the metrics registry every
/// `interval_seconds` and emits one human progress line to `stream` and/or
/// one JSON record (JSON-lines) to `json_path`. Throughputs (cands/sec,
/// evals/sec) are computed from deltas between consecutive snapshots; the
/// cache hit rate (evolution.cache_hits over cache_hits + evaluated) and the
/// screen reject rate are cumulative; gauges report current/max occupancy;
/// per-stage p99 comes from the span histograms. Stop() (or the destructor)
/// emits a final snapshot so short runs still produce at least one record.
/// This is the seam the future service's subscriber stream will attach to.
class ProgressReporter {
 public:
  struct Options {
    double interval_seconds = 1.0;
    std::ostream* stream = nullptr;  ///< human-readable lines; null = none
    std::string json_path;           ///< JSON-lines file; empty = none
  };

  ProgressReporter(MetricsRegistry& registry, Options options);
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Emits the final snapshot and joins the background thread. Idempotent.
  void Stop();

 private:
  struct Snapshot {
    double t_seconds = 0.0;
    int64_t candidates = 0;
    int64_t evaluated = 0;
    int64_t cache_hits = 0;
    int64_t screened_out = 0;
    int64_t scenario_evals = 0;
  };

  void Loop();
  void Emit(const Snapshot& prev, const Snapshot& cur);
  Snapshot Take() const;

  MetricsRegistry& registry_;
  Options options_;
  std::ofstream json_out_;
  Snapshot last_;
  int tick_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace alphaevolve::obs

#endif  // ALPHAEVOLVE_OBS_PROGRESS_H_
