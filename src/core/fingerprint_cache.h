#ifndef ALPHAEVOLVE_CORE_FINGERPRINT_CACHE_H_
#define ALPHAEVOLVE_CORE_FINGERPRINT_CACHE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace alphaevolve::core {

/// Fingerprint → fitness memo (paper §4.2). With pruning enabled the key is
/// the structural fingerprint of the *pruned* program, computed without any
/// evaluation; in the `_N` ablation it is the functional (prediction-hash)
/// fingerprint, which requires a probe evaluation first.
///
/// Thread-safe: the map is sharded with one mutex per shard (mutex striping)
/// so batch workers can insert concurrently with negligible contention. A
/// given fingerprint always maps to the same deterministically-computed
/// fitness, so insert order does not affect the cache contents.
class FingerprintCache {
 public:
  FingerprintCache() = default;
  FingerprintCache(const FingerprintCache&) = delete;
  FingerprintCache& operator=(const FingerprintCache&) = delete;

  /// Returns the cached fitness for `fingerprint`, if present.
  ///
  /// Telemetry note: the obs cache.hits/cache.misses counters tally Lookup
  /// calls, which the evolution driver partially bypasses at pipeline depth
  /// >= 1 (frontier hits never reach the cache) — so unlike
  /// EvolutionStats::cache_hits they are observational, not invariant
  /// across pipeline depths.
  std::optional<double> Lookup(uint64_t fingerprint) const {
    const Shard& shard = shards_[ShardIndex(fingerprint)];
    bool hit;
    std::optional<double> result;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(fingerprint);
      hit = it != shard.map.end();
      if (hit) result = it->second;
    }
    if (obs::Enabled()) {
      static obs::Counter& hits =
          obs::MetricsRegistry::Default().GetCounter("cache.hits");
      static obs::Counter& misses =
          obs::MetricsRegistry::Default().GetCounter("cache.misses");
      (hit ? hits : misses).Add();
    }
    return result;
  }

  /// Records the fitness for `fingerprint` (overwrites).
  void Insert(uint64_t fingerprint, double fitness) {
    Shard& shard = shards_[ShardIndex(fingerprint)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map[fingerprint] = fitness;
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
    }
  }

  /// All (fingerprint, fitness) entries, sorted by fingerprint — a canonical
  /// order, so two caches with equal contents serialize bit-identically no
  /// matter what insertion schedule built them. Shards are locked one at a
  /// time; callers snapshot only at commit barriers, when no inserts are in
  /// flight.
  std::vector<std::pair<uint64_t, double>> Snapshot() const {
    std::vector<std::pair<uint64_t, double>> out;
    out.reserve(size());
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      out.insert(out.end(), shard.map.begin(), shard.map.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Replaces the contents with a Snapshot()'s entries.
  void Restore(const std::vector<std::pair<uint64_t, double>>& entries) {
    Clear();
    for (const auto& [fingerprint, fitness] : entries) {
      Insert(fingerprint, fitness);
    }
  }

 private:
  static constexpr size_t kNumShards = 16;  // power of two

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, double> map;
  };

  /// Fingerprints are already hashes, but mix before taking the top bits so
  /// shard choice is not correlated with any structure in the low bits.
  static size_t ShardIndex(uint64_t fingerprint) {
    uint64_t x = fingerprint * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(x >> 60) & (kNumShards - 1);
  }

  std::array<Shard, kNumShards> shards_;
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_FINGERPRINT_CACHE_H_
