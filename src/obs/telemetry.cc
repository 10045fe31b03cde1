#include "obs/telemetry.h"

#include <algorithm>
#include <bit>

#include "util/json.h"

namespace alphaevolve::obs {

namespace internal {

std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_tracing_enabled{false};

int ThreadStripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

}  // namespace internal

void Configure(const TelemetryConfig& config) {
  internal::g_metrics_enabled.store(config.enabled,
                                    std::memory_order_relaxed);
  internal::g_tracing_enabled.store(config.tracing,
                                    std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Histogram

int Histogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  const int width = 64 - std::countl_zero(static_cast<uint64_t>(value));
  return std::min(width, kBuckets - 1);
}

double Histogram::BucketLower(int b) {
  if (b <= 0) return 0.0;
  return static_cast<double>(uint64_t{1} << (b - 1));
}

double Histogram::BucketUpper(int b) {
  if (b <= 0) return 1.0;
  return static_cast<double>(uint64_t{1} << b);
}

std::array<int64_t, Histogram::kBuckets> Histogram::FoldBuckets() const {
  std::array<int64_t, kBuckets> folded{};
  for (const Stripe& s : stripes_) {
    for (int b = 0; b < kBuckets; ++b) {
      folded[static_cast<size_t>(b)] +=
          s.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    }
  }
  return folded;
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const int64_t c : FoldBuckets()) total += c;
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

double QuantileFromBuckets(const std::array<int64_t, Histogram::kBuckets>& h,
                           int64_t count, double q) {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (0-based); linear interpolation inside the
  // bucket the cumulative count crosses in.
  const double rank = q * static_cast<double>(count - 1);
  int64_t below = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const int64_t in_bucket = h[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(below + in_bucket) > rank) {
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
      return Histogram::BucketLower(b) +
             frac * (Histogram::BucketUpper(b) - Histogram::BucketLower(b));
    }
    below += in_bucket;
  }
  // rank == count - 1 lands here through FP rounding; report the top bucket.
  for (int b = Histogram::kBuckets - 1; b >= 0; --b) {
    if (h[static_cast<size_t>(b)] > 0) return Histogram::BucketUpper(b);
  }
  return 0.0;
}

}  // namespace

double Histogram::Quantile(double q) const {
  const auto folded = FoldBuckets();
  int64_t count = 0;
  for (const int64_t c : folded) count += c;
  return QuantileFromBuckets(folded, count, q);
}

Histogram::Stats Histogram::GetStats() const {
  const auto folded = FoldBuckets();
  Stats stats;
  for (const int64_t c : folded) stats.count += c;
  stats.sum = Sum();
  if (stats.count > 0) {
    stats.mean =
        static_cast<double>(stats.sum) / static_cast<double>(stats.count);
    stats.p50 = QuantileFromBuckets(folded, stats.count, 0.50);
    stats.p95 = QuantileFromBuckets(folded, stats.count, 0.95);
    stats.p99 = QuantileFromBuckets(folded, stats.count, 0.99);
    for (int b = kBuckets - 1; b >= 0; --b) {
      if (folded[static_cast<size_t>(b)] > 0) {
        stats.max_bound = BucketUpper(b);
        break;
      }
    }
  }
  return stats;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Default() {
  // Leaky singleton: instrument sites hold references across static
  // destruction (e.g. thread pools torn down at exit), so the registry must
  // never be destroyed.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::vector<const Counter*> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back(c.get());
  return out;
}

std::vector<const Gauge*> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back(g.get());
  return out;
}

std::vector<const Histogram*> MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(h.get());
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const Counter* c : Counters()) {
    w.Key(c->name()).Value(c->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const Gauge* g : Gauges()) {
    w.Key(g->name()).BeginObject();
    w.Key("value").Value(g->Value());
    w.Key("max").Value(g->Max());
    w.EndObject();
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const Histogram* h : Histograms()) {
    const Histogram::Stats stats = h->GetStats();
    w.Key(h->name()).BeginObject();
    w.Key("count").Value(stats.count);
    w.Key("sum").Value(stats.sum);
    w.Key("mean").Value(stats.mean);
    w.Key("p50").Value(stats.p50);
    w.Key("p95").Value(stats.p95);
    w.Key("p99").Value(stats.p99);
    w.Key("max_bound").Value(stats.max_bound);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace alphaevolve::obs
