#ifndef CLOUDDB_COMMON_RNG_H_
#define CLOUDDB_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace clouddb {

/// Deterministic pseudo-random number generator used everywhere in the
/// library. Uses the splitmix64 algorithm (Steele et al.): tiny state, good
/// statistical quality, and — crucially for reproducible experiments —
/// identical output across platforms and standard-library versions (unlike
/// std::normal_distribution etc., whose output is implementation-defined).
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(uint64_t seed) : state_(seed ^ kGolden) {}

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

  /// Normally distributed (Box-Muller; consumes two uniforms every two
  /// calls, caching the spare value).
  double Normal(double mean, double stddev);

  /// Log-normally distributed such that the median is `median` and the
  /// underlying normal has standard deviation `sigma`.
  double LogNormal(double median, double sigma);

  /// Normal clamped to [lo, hi].
  double ClampedNormal(double mean, double stddev, double lo, double hi);

  /// Picks an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Requires a non-empty vector of non-negative weights with a
  /// positive sum.
  int WeightedIndex(const std::vector<double>& weights);

  /// Derives an independent child generator; children with different tags
  /// produce decorrelated streams. Used to give each simulated entity its
  /// own stream so adding entities does not perturb others.
  Rng Fork(uint64_t tag);

 private:
  static constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  uint64_t state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace clouddb

#endif  // CLOUDDB_COMMON_RNG_H_
