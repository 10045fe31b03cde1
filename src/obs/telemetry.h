#ifndef ALPHAEVOLVE_OBS_TELEMETRY_H_
#define ALPHAEVOLVE_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace alphaevolve::obs {

/// Process-wide telemetry knobs. Everything defaults to OFF: with both flags
/// false every instrumented hot path is a single relaxed atomic load plus a
/// predictable branch, the search results are bit-identical to an
/// uninstrumented build, and nothing is allocated. Set once per process
/// through Configure (the example binaries' --trace-out / --metrics-out /
/// --progress-every flags do this); the library itself never calls it.
struct TelemetryConfig {
  /// Master switch for the metrics registry (counters/gauges/histograms).
  bool enabled = false;
  /// Span tracing into per-thread ring buffers (Chrome-trace export).
  /// Implies nothing about `enabled`; spans feed their latency histograms
  /// only when `enabled` is also set. Each thread's ring keeps its newest
  /// 16,384 span events; older ones are dropped and counted.
  bool tracing = false;
};

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_tracing_enabled;

/// Stable per-thread stripe index in [0, kStripes): threads are assigned
/// round-robin on first use, so up to kStripes concurrent threads never
/// share a cell and more only contend pairwise.
inline constexpr int kStripes = 16;  // power of two
int ThreadStripe();
}  // namespace internal

/// Metrics hot-path gate: one relaxed load. Relaxed is correct because the
/// flag only gates *whether* we count, never orders data other threads read.
inline bool Enabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Span-tracing hot-path gate (see Enabled()).
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Applies `config` to the process-global telemetry state. Idempotent and
/// callable at any time; existing metric values and trace events are kept
/// (use MetricsRegistry::Reset / TraceRecorder::Clear for a clean slate).
void Configure(const TelemetryConfig& config);

/// Monotonic counter, striped per thread: Add is a relaxed fetch_add on the
/// caller's own cache line — lock-free and (for <= kStripes threads)
/// contention-free. Value() folds the stripes on the (cold) read side.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t n = 1) {
    if (!Enabled()) return;
    cells_[static_cast<size_t>(internal::ThreadStripe())].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  std::string name_;
  std::array<Cell, internal::kStripes> cells_{};
};

/// Point-in-time level (queue depth, in-flight batches). A single atomic:
/// gauges are updated orders of magnitude less often than counters and a
/// level must read coherently. Tracks the high-water mark alongside.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }

  void Add(int64_t delta) {
    if (!Enabled()) return;
    const int64_t v =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) UpdateMax(v);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  void UpdateMax(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Latency histogram with power-of-two buckets: bucket i >= 1 covers
/// [2^(i-1), 2^i), bucket 0 holds v <= 0. Record is two relaxed fetch_adds
/// on the caller's stripe; quantiles are extracted on read by folding the
/// stripes and interpolating linearly inside the crossing bucket — exact to
/// within one octave, which is all a p99 dashboard needs. Values are
/// whatever unit the site records (spans record nanoseconds).
class Histogram {
 public:
  static constexpr int kBuckets = 48;  // 2^47 ns ≈ 39 hours

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value) {
    if (!Enabled()) return;
    Stripe& s = stripes_[static_cast<size_t>(internal::ThreadStripe())];
    s.buckets[static_cast<size_t>(BucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Aggregated view; one fold over the stripes.
  struct Stats {
    int64_t count = 0;
    int64_t sum = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max_bound = 0.0;  ///< exclusive upper bound of the top bucket hit
  };
  Stats GetStats() const;

  int64_t Count() const;
  int64_t Sum() const;
  /// Quantile for q in [0, 1] (0 with no samples).
  double Quantile(double q) const;

  void Reset();

  const std::string& name() const { return name_; }

  static int BucketOf(int64_t value);
  /// [lower, upper) value range of bucket `b`.
  static double BucketLower(int b);
  static double BucketUpper(int b);

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<int64_t>, kBuckets> buckets{};
    std::atomic<int64_t> sum{0};
  };
  std::array<int64_t, kBuckets> FoldBuckets() const;

  std::string name_;
  std::array<Stripe, internal::kStripes> stripes_{};
};

/// Name → metric registry. Registration (GetX) takes a mutex — call sites
/// cache the returned reference in a function-local static, so the hot path
/// never sees the lock. Metrics are never removed; references stay valid for
/// the life of the process (Default() is a leaky singleton).
class MetricsRegistry {
 public:
  static MetricsRegistry& Default();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Metric pointers in name order (stable addresses; safe to hold).
  std::vector<const Counter*> Counters() const;
  std::vector<const Gauge*> Gauges() const;
  std::vector<const Histogram*> Histograms() const;

  /// Zeroes every registered metric (registrations are kept).
  void Reset();

  /// {"counters": {name: value}, "gauges": {name: {value, max}},
  ///  "histograms": {name: {count, sum, mean, p50, p95, p99, max_bound}}}
  /// in name order — the --metrics-out artifact.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace alphaevolve::obs

#endif  // ALPHAEVOLVE_OBS_TELEMETRY_H_
