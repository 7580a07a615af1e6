#ifndef CLOUDDB_COMMON_STATS_H_
#define CLOUDDB_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace clouddb {

/// Accumulates a sample of doubles and computes summary statistics.
/// Used for latencies, replication delays and throughput series.
///
/// The paper trims the top and bottom 5 % of replication-delay samples before
/// averaging ("because of network fluctuation"); `TrimmedMean(0.05)`
/// implements exactly that.
///
/// Every statistic is a total function: on an empty sample, Sum/Mean/Min/
/// Max/StdDev/Percentile/TrimmedMean all return exactly 0.0 — never NaN,
/// never a read past the end. (Callers that need to distinguish "no data"
/// from "all zeros" check `empty()` first; the harness does this when a
/// measurement window ends up with no samples.)
class Sample {
 public:
  Sample() = default;

  void Add(double v) { values_.push_back(v); }
  void AddAll(const std::vector<double>& vs);
  void Clear() { values_.clear(); }

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Population standard deviation; 0 for fewer than 2 samples.
  double StdDev() const;
  /// Linear-interpolated quantile; q is clamped to [0, 1] (NaN acts as 0).
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

  /// Mean after removing the lowest and highest `fraction` of samples
  /// (two-sided trim). `fraction` is clamped into [0, 0.5) — out-of-range
  /// values must not underflow the trim arithmetic even in NDEBUG builds.
  /// With fewer than 3 samples the plain mean is returned.
  double TrimmedMean(double fraction) const;

 private:
  std::vector<double> values_;
};

}  // namespace clouddb

#endif  // CLOUDDB_COMMON_STATS_H_
