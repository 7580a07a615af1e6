#ifndef CLOUDDB_METRICS_METRIC_REGISTRY_H_
#define CLOUDDB_METRICS_METRIC_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace clouddb::metrics {

/// The metrics spine: one `MetricRegistry` per node (or per component),
/// aggregated cluster-wide with `MergeFrom`. The registry is deliberately
/// clock-free — it never reads wall or simulated time. Samplers that need a
/// timestamp are fed one by the instrumented code (a sim-clock-driven poller
/// or an event handler), so the same registry contents are reproduced byte-
/// for-byte by a reseeded run. Names are lowercase dot-separated
/// ("module.signal.unit"-style), registered exactly once per registry; both
/// properties are enforced here at registration and statically by the
/// `clouddb-metric-name` lint rule.

enum class MetricKind { kCounter, kGauge, kEwma };

/// Monotone event count (e.g. reads routed, SLA violations).
class Counter {
 public:
  void Increment(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  friend class MetricRegistry;
  int64_t value_ = 0;
};

/// Point-in-time level. Push-model gauges are Set() by the instrumented
/// code; pull-model gauges carry a probe callback and cost nothing on the
/// hot path — the value is computed only when somebody reads it.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return probe_ ? probe_() : value_; }
  bool is_probe() const { return static_cast<bool>(probe_); }

 private:
  friend class MetricRegistry;
  double value_ = 0.0;
  std::function<double()> probe_;
};

/// Exponentially weighted moving average over observed samples. Decay is per
/// observation, not per unit time, which keeps the sampler clock-free.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Observe(double v) {
    value_ = count_ == 0 ? v : (1.0 - alpha_) * value_ + alpha_ * v;
    ++count_;
  }
  double value() const { return value_; }
  int64_t count() const { return count_; }
  double alpha() const { return alpha_; }

 private:
  friend class MetricRegistry;
  double alpha_;
  double value_ = 0.0;
  int64_t count_ = 0;
};

/// One row of a registry snapshot. `value` is the counter total, gauge
/// level or EWMA value; `count` is the number of observations (1 for
/// counters/gauges).
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  int64_t count = 0;
};

const char* MetricKindName(MetricKind kind);

class MetricRegistry {
 public:
  /// `scope` labels the owning node/component ("master", "slave-2",
  /// "proxy") in rendered tables; it is not part of metric names.
  explicit MetricRegistry(std::string scope = "");

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registration. Names must satisfy IsValidName and be unique within the
  /// registry; violations abort (they are programming errors, caught in any
  /// test that exercises the instrumented path). Returned pointers stay
  /// valid for the registry's lifetime.
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  /// Pull-model gauge: `probe` is evaluated on read, so instrumenting an
  /// existing counter field costs nothing on the hot path.
  Gauge* AddProbe(const std::string& name, std::function<double()> probe);
  Ewma* AddEwma(const std::string& name, double alpha = 0.2);

  /// Lookup; nullptr (or 0.0 for ValueOf) when the name is absent or of a
  /// different kind.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Ewma* FindEwma(const std::string& name) const;
  bool Has(const std::string& name) const;
  /// The snapshot `value` of one metric: counter total, gauge level or EWMA
  /// value. 0.0 when absent.
  double ValueOf(const std::string& name) const;

  const std::string& scope() const { return scope_; }
  size_t size() const { return metrics_.size(); }

  /// Lowercase dot-separated with at least two non-empty segments of
  /// [a-z0-9_], e.g. "repl.slave.apply_backlog".
  static bool IsValidName(const std::string& name);

  /// Name-ordered snapshot of every metric (deterministic: std::map order).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Cluster-wide aggregation: folds `other` into this registry. Counters
  /// add, gauges sum (probes are sampled at merge time and become plain
  /// values), EWMAs combine count-weighted. Metrics
  /// absent here are created; same-named metrics must have the same kind.
  void MergeFrom(const MetricRegistry& other);

  /// Aligned table of the snapshot: metric | kind | value | count.
  std::string ToString() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Ewma> ewma;
  };

  Entry* Register(const std::string& name, MetricKind kind);

  std::string scope_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace clouddb::metrics

#endif  // CLOUDDB_METRICS_METRIC_REGISTRY_H_
