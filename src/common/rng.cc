#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace clouddb {

uint64_t Rng::NextU64() {
  // splitmix64 step.
  uint64_t z = (state_ += kGolden);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  assert(mean > 0);
  // Inverse-CDF; 1 - u in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - NextDouble());
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box-Muller transform.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::LogNormal(double median, double sigma) {
  assert(median > 0);
  return median * std::exp(Normal(0.0, sigma));
}

double Rng::ClampedNormal(double mean, double stddev, double lo, double hi) {
  double v = Normal(mean, stddev);
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

int Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork(uint64_t tag) {
  // Mix the tag into a fresh stream derived from this generator's state.
  uint64_t child_seed = NextU64() ^ (tag * 0xD1B54A32D192ED03ull);
  return Rng(child_seed);
}

}  // namespace clouddb
