#ifndef ALPHAEVOLVE_SERVICE_OP_QUEUE_H_
#define ALPHAEVOLVE_SERVICE_OP_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "service/protocol.h"

namespace alphaevolve::service {

/// One admitted operation moving from the intake thread to an op worker.
/// Every op carries its absolute deadline (resolved at admission from the
/// request's relative `deadline_ms`), which the worker checks once, just
/// before dispatch — the evaluation watchdog's liveness idea generalized to
/// op granularity.
struct Op {
  Request request;
  std::function<void(const std::string&)> respond;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point enqueued{};
};

enum class PushResult { kOk, kFull, kClosed };

/// Bounded MPMC command queue with admission control: TryPush never blocks
/// — a full queue is an immediate, structured rejection, so the intake
/// thread stays responsive no matter how far behind the workers fall.
/// Close() wakes every blocked Pop with "drained"; already-queued ops are
/// still handed out first, which is what lets a graceful drain finish the
/// work it admitted.
class OpQueue {
 public:
  explicit OpQueue(size_t capacity) : capacity_(capacity) {}

  PushResult TryPush(Op op) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (queue_.size() >= capacity_) return PushResult::kFull;
      queue_.push_back(std::move(op));
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until an op is available or the queue is closed *and* empty
  /// (nullopt — the worker's signal to exit).
  std::optional<Op> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    Op op = std::move(queue_.front());
    queue_.pop_front();
    return op;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> queue_;
  bool closed_ = false;
};

}  // namespace alphaevolve::service

#endif  // ALPHAEVOLVE_SERVICE_OP_QUEUE_H_
