#ifndef ALPHAEVOLVE_UTIL_RNG_H_
#define ALPHAEVOLVE_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

namespace alphaevolve {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component of the library takes an explicit
/// `Rng` or seed so that experiments are exactly reproducible.
///
/// Not thread-safe; give each worker its own generator (distinct seeds), or
/// draw through `CounterRng`, which any number of threads may share.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds give statistically independent
  /// streams for practical purposes.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller (no cached spare; stateless per call
  /// pair, deterministic in call order).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  int WeightedChoice(const std::vector<double>& weights);

  /// Raw xoshiro256** state — the checkpoint layer's "RNG cursor". Capturing
  /// and restoring the four words reproduces the stream exactly in O(1),
  /// with no draw-count replay.
  std::array<uint64_t, 4> state() const;

  /// Restores a state captured by `state()`. The all-zero state (invalid
  /// for xoshiro) throws CheckError — it can only come from a corrupt or
  /// hand-forged snapshot.
  void set_state(const std::array<uint64_t, 4>& state);

 private:
  uint64_t s_[4];
};

/// Stateless splitmix64 finalizer (the increment folded into the argument):
/// the bijective 64-bit mixer behind `CounterRng` and the scenario engine's
/// deterministic keying. Distinct inputs give well-scattered outputs.
uint64_t Mix64(uint64_t z);

/// Stateless counter-based generator: every draw is a pure function of
/// (seed, stream, index), computed with a splitmix64-style finalizer. Unlike
/// `Rng` there is no mutable stream to advance, so any number of threads can
/// draw concurrently and the value at a given index never depends on which
/// worker (or in which order) it was requested — the property that keeps
/// the executor's random-init ops bit-identical to the reference executor
/// however each walks its tasks.
///
/// Typical use: one `CounterRng(seed, draw_id)` per random-op execution
/// (`draw_id` assigned serially, one per execution), indexed by the
/// flattened (task, element) position.
class CounterRng {
 public:
  CounterRng(uint64_t seed, uint64_t stream);

  /// Raw 64-bit value at `index`; pure, order-independent.
  uint64_t At(uint64_t index) const;

  /// Uniform double in [0, 1) at `index`.
  double UniformAt(uint64_t index) const;

  /// Uniform double in [lo, hi) at `index`.
  double UniformAt(uint64_t index, double lo, double hi) const;

  /// Standard normal at `index` (Box-Muller over two sub-draws derived from
  /// the same index, so one index == one Gaussian).
  double GaussianAt(uint64_t index) const;

  /// Normal with the given mean and standard deviation at `index`.
  double GaussianAt(uint64_t index, double mean, double stddev) const;

 private:
  uint64_t key_;
};

}  // namespace alphaevolve

#endif  // ALPHAEVOLVE_UTIL_RNG_H_
