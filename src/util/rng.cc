#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace alphaevolve {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::array<uint64_t, 4> Rng::state() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::set_state(const std::array<uint64_t, 4>& state) {
  AE_CHECK_MSG((state[0] | state[1] | state[2] | state[3]) != 0,
               "Rng::set_state: all-zero state is not a valid xoshiro state");
  for (int i = 0; i < 4; ++i) s_[i] = state[static_cast<size_t>(i)];
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

double Rng::Gaussian() {
  // Box-Muller; reject u1 == 0 to keep log() finite.
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

int Rng::UniformInt(int n) {
  AE_CHECK(n > 0);
  // Rejection-free multiply-shift; bias is negligible for n << 2^64.
  return static_cast<int>(NextU64() % static_cast<uint64_t>(n));
}

int Rng::UniformInt(int lo, int hi) {
  AE_CHECK(lo <= hi);
  return lo + UniformInt(hi - lo + 1);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::WeightedChoice(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    AE_CHECK(w >= 0.0);
    total += w;
  }
  AE_CHECK(total > 0.0);
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

double ToUnit(uint64_t bits) {
  // 53 random mantissa bits -> [0, 1), as Rng::Uniform.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

CounterRng::CounterRng(uint64_t seed, uint64_t stream)
    : key_(Mix64(seed ^ Mix64(stream))) {}

uint64_t CounterRng::At(uint64_t index) const {
  return Mix64(key_ + index * 0xD1B54A32D192ED03ULL);
}

double CounterRng::UniformAt(uint64_t index) const { return ToUnit(At(index)); }

double CounterRng::UniformAt(uint64_t index, double lo, double hi) const {
  return lo + (hi - lo) * UniformAt(index);
}

double CounterRng::GaussianAt(uint64_t index) const {
  // Box-Muller over two sub-draws; keep log() finite without a rejection
  // loop (a loop would need a second counter) by flooring u1 at 2^-53.
  const double u1 =
      std::max(ToUnit(At(index * 2)), 0x1.0p-53);
  const double u2 = ToUnit(At(index * 2 + 1));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double CounterRng::GaussianAt(uint64_t index, double mean,
                              double stddev) const {
  return mean + stddev * GaussianAt(index);
}

}  // namespace alphaevolve
