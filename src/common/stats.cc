#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace clouddb {

void Sample::AddAll(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
}

double Sample::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Sample::Mean() const {
  if (values_.empty()) return 0.0;
  return Sum() / static_cast<double>(values_.size());
}

double Sample::Min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::Max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::StdDev() const {
  if (values_.size() < 2) return 0.0;
  double m = Mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double Sample::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  // NaN fails both ordered comparisons and would reach the size_t cast
  // below — undefined behaviour. Treat it (and anything <= 0) as q = 0.
  if (!(q > 0.0)) return Min();
  if (q >= 1.0) return Max();
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double Sample::TrimmedMean(double fraction) const {
  assert(fraction >= 0.0 && fraction < 0.5);
  // Clamp anyway: with NDEBUG the assert is gone, and a fraction >= 0.5
  // would underflow the size_t trim arithmetic below.
  if (!(fraction > 0.0)) fraction = 0.0;  // also normalizes NaN
  if (fraction >= 0.5) fraction = 0.0;
  if (values_.size() < 3 || fraction == 0.0) return Mean();
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t cut = static_cast<size_t>(fraction * static_cast<double>(sorted.size()));
  if (2 * cut >= sorted.size()) return Mean();
  size_t n = sorted.size() - 2 * cut;
  double s = 0.0;
  for (size_t i = cut; i < sorted.size() - cut; ++i) s += sorted[i];
  return s / static_cast<double>(n);
}

}  // namespace clouddb
