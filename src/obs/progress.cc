#include "obs/progress.h"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <string_view>

#include "obs/flush.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/json.h"

namespace alphaevolve::obs {

namespace {

double Rate(int64_t delta, double dt) {
  return dt > 0.0 ? static_cast<double>(delta) / dt : 0.0;
}

double Share(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

std::string Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace

ProgressReporter::ProgressReporter(MetricsRegistry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  if (!options_.json_path.empty()) {
    json_out_.open(options_.json_path, std::ios::out | std::ios::trunc);
  }
  last_ = Take();
  if (options_.interval_seconds > 0.0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

ProgressReporter::~ProgressReporter() {
  // A dying reporter must not be reachable from a later crash flush.
  CrashFlushForgetReporter(this);
  Stop();
}

void ProgressReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot so a run shorter than one interval still reports.
  const Snapshot cur = Take();
  Emit(last_, cur);
  last_ = cur;
  if (json_out_.is_open()) json_out_.close();
}

void ProgressReporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::duration<double>(options_.interval_seconds);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    lock.unlock();
    const Snapshot cur = Take();
    Emit(last_, cur);
    last_ = cur;
    lock.lock();
  }
}

ProgressReporter::Snapshot ProgressReporter::Take() const {
  Snapshot s;
  s.t_seconds = static_cast<double>(NowNs()) / 1e9;
  s.candidates = registry_.GetCounter("evolution.candidates").Value();
  s.evaluated = registry_.GetCounter("evolution.evaluated").Value();
  s.cache_hits = registry_.GetCounter("evolution.cache_hits").Value();
  s.screened_out = registry_.GetCounter("scenario.screen_rejects").Value();
  s.scenario_evals = registry_.GetCounter("scenario.regime_evals").Value();
  return s;
}

void ProgressReporter::Emit(const Snapshot& prev, const Snapshot& cur) {
  const double dt = cur.t_seconds - prev.t_seconds;
  const double cands_per_sec = Rate(cur.candidates - prev.candidates, dt);
  const double evals_per_sec = Rate(cur.evaluated - prev.evaluated, dt);
  const double cache_hit_rate =
      Share(cur.cache_hits, cur.cache_hits + cur.evaluated);
  const double screen_reject_rate =
      Share(cur.screened_out, cur.candidates);
  Gauge& inflight = registry_.GetGauge("evolution.inflight_batches");
  Gauge& queue_depth = registry_.GetGauge("threadpool.queue_depth");
  ++tick_;

  if (options_.stream != nullptr) {
    std::ostream& os = *options_.stream;
    os << "[progress t=" << Fixed(cur.t_seconds, 1) << "s]"
       << " cands=" << cur.candidates << " (" << Fixed(cands_per_sec, 1)
       << "/s)"
       << " evals=" << cur.evaluated << " (" << Fixed(evals_per_sec, 1)
       << "/s)"
       << " cache_hit=" << Fixed(100.0 * cache_hit_rate, 1) << "%"
       << " screen_rej=" << Fixed(100.0 * screen_reject_rate, 1) << "%"
       << " inflight=" << inflight.Value() << "/" << inflight.Max()
       << " queue=" << queue_depth.Value();
    for (const Histogram* h : registry_.Histograms()) {
      constexpr std::string_view kPrefix = "span.evolution.";
      const std::string& name = h->name();
      if (name.rfind(kPrefix, 0) != 0 || h->Count() == 0) continue;
      os << " " << name.substr(kPrefix.size())
         << "_p99=" << Fixed(h->Quantile(0.99) / 1e6, 2) << "ms";
    }
    os << "\n";
    os.flush();
  }

  if (json_out_.is_open()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("tick").Value(tick_);
    w.Key("t_seconds").Value(cur.t_seconds);
    w.Key("candidates").Value(cur.candidates);
    w.Key("evaluated").Value(cur.evaluated);
    w.Key("cands_per_sec").Value(cands_per_sec);
    w.Key("evals_per_sec").Value(evals_per_sec);
    w.Key("cache_hit_rate").Value(cache_hit_rate);
    w.Key("screen_reject_rate").Value(screen_reject_rate);
    w.Key("scenario_evals").Value(cur.scenario_evals);
    w.Key("pipeline_inflight").Value(inflight.Value());
    w.Key("pipeline_inflight_max").Value(inflight.Max());
    w.Key("queue_depth").Value(queue_depth.Value());
    w.Key("stage_p99_us").BeginObject();
    for (const Histogram* h : registry_.Histograms()) {
      constexpr std::string_view kPrefix = "span.";
      const std::string& name = h->name();
      if (name.rfind(kPrefix, 0) != 0 || h->Count() == 0) continue;
      w.Key(name.substr(kPrefix.size())).Value(h->Quantile(0.99) / 1e3);
    }
    w.EndObject();
    w.EndObject();
    json_out_ << w.TakeString() << "\n";
    json_out_.flush();
  }
}

}  // namespace alphaevolve::obs
