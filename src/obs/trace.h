#ifndef ALPHAEVOLVE_OBS_TRACE_H_
#define ALPHAEVOLVE_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace alphaevolve::obs {

/// One completed span. `name` points at a string with static storage
/// duration (the AE_SPAN literal), so events are trivially copyable and the
/// ring never allocates per event.
struct SpanEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;  ///< steady-clock, relative to TraceRecorder epoch
  int64_t dur_ns = 0;
  int depth = 0;  ///< nesting depth on the recording thread (0 = top level)
};

/// Nanoseconds since the recorder's steady-clock epoch (first use in the
/// process). Monotonic; comparable across threads.
int64_t NowNs();

/// Collects SpanEvents into per-thread ring buffers. Each thread registers
/// its ring on first span; pushes take the ring's own mutex, which is
/// uncontended in steady state (only Collect/Clear ever touch another
/// thread's ring). When a ring is full the oldest events are overwritten and
/// counted as dropped.
class TraceRecorder {
 public:
  static TraceRecorder& Default();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records a completed span on the calling thread's ring.
  void Record(const SpanEvent& event);

  /// Snapshot of every thread's events in recording order per thread, with
  /// the recording thread's stable track id attached. Safe to call while
  /// other threads keep recording.
  struct CollectedEvent {
    SpanEvent event;
    int tid = 0;
  };
  std::vector<CollectedEvent> Collect() const;

  /// Total events discarded because rings were full.
  int64_t DroppedCount() const;

  /// Discards all buffered events (rings stay registered).
  void Clear();

  /// Capacity for rings created after this call (existing rings keep
  /// theirs; the default is 1 << 14). Values < 1 are clamped to 1. Only the
  /// ring-overflow test sets it.
  void set_ring_capacity(int capacity);

 private:
  struct ThreadRing {
    mutable std::mutex mu;
    std::vector<SpanEvent> events;  // circular once `count == capacity`
    int capacity = 0;
    int head = 0;  // next write position
    int count = 0;
    int64_t dropped = 0;
    int tid = 0;
  };

  ThreadRing& RingForThisThread();

  mutable std::mutex mu_;  // guards rings_ registration + capacity_
  std::vector<ThreadRing*> rings_;
  int capacity_ = 1 << 14;
  int next_tid_ = 0;
};

/// Per-call-site state for AE_SPAN: owns the literal name and lazily caches
/// the latency Histogram ("span." + name, nanoseconds) so the hot path never
/// touches the registry lock after first use.
class SpanSite {
 public:
  explicit SpanSite(const char* name) : name_(name) {}

  const char* name() const { return name_; }
  Histogram& histogram();

 private:
  const char* name_;
  std::atomic<Histogram*> histogram_{nullptr};
};

/// RAII span. Fully inert (no clock read) unless metrics or tracing are
/// enabled at construction. On destruction records the duration into the
/// site histogram (metrics) and pushes a SpanEvent (tracing).
class SpanScope {
 public:
  explicit SpanScope(SpanSite& site)
      : site_(site), active_(Enabled() || TracingEnabled()) {
    if (!active_) return;
    start_ns_ = NowNs();
    depth_ = depth()++;
  }

  ~SpanScope() {
    if (!active_) return;
    --depth();
    const int64_t dur = NowNs() - start_ns_;
    if (Enabled()) site_.histogram().Record(dur);
    if (TracingEnabled()) {
      TraceRecorder::Default().Record(
          SpanEvent{site_.name(), start_ns_, dur, depth_});
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  SpanSite& site_;
  bool active_;
  int64_t start_ns_ = 0;
  int depth_ = 0;
};

#define AE_OBS_CONCAT_INNER(a, b) a##b
#define AE_OBS_CONCAT(a, b) AE_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope as span `name_literal`. Usage:
///   AE_SPAN("evolution.commit");
/// `name_literal` must be a string literal (its pointer is kept).
#define AE_SPAN(name_literal)                                              \
  static ::alphaevolve::obs::SpanSite AE_OBS_CONCAT(ae_span_site_,         \
                                                    __LINE__){name_literal}; \
  ::alphaevolve::obs::SpanScope AE_OBS_CONCAT(ae_span_scope_, __LINE__)(   \
      AE_OBS_CONCAT(ae_span_site_, __LINE__))

}  // namespace alphaevolve::obs

#endif  // ALPHAEVOLVE_OBS_TRACE_H_
