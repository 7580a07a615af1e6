#include "metrics/metric_registry.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/str_util.h"
#include "common/table_writer.h"

namespace clouddb::metrics {
namespace {

[[noreturn]] void DieBadRegistration(const std::string& scope,
                                     const std::string& name,
                                     const char* why) {
  std::fprintf(stderr, "MetricRegistry(%s): metric '%s' %s\n",
               scope.empty() ? "<anon>" : scope.c_str(), name.c_str(), why);
  std::abort();
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kEwma: return "ewma";
  }
  return "unknown";
}

MetricRegistry::MetricRegistry(std::string scope) : scope_(std::move(scope)) {}

bool MetricRegistry::IsValidName(const std::string& name) {
  int segments = 0;
  size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;  // empty segment ("a..b", ".a")
      ++segments;
      seg_len = 0;
      continue;
    }
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;  // trailing dot or empty name
  return segments + 1 >= 2;        // hierarchical: at least "module.signal"
}

MetricRegistry::Entry* MetricRegistry::Register(const std::string& name,
                                                MetricKind kind) {
  if (!IsValidName(name)) {
    DieBadRegistration(scope_, name,
                       "is not a lowercase dot-separated metric name");
  }
  auto [it, inserted] = metrics_.try_emplace(name);
  if (!inserted) {
    DieBadRegistration(scope_, name, "is already registered");
  }
  it->second.kind = kind;
  return &it->second;
}

Counter* MetricRegistry::AddCounter(const std::string& name) {
  Entry* e = Register(name, MetricKind::kCounter);
  e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricRegistry::AddGauge(const std::string& name) {
  Entry* e = Register(name, MetricKind::kGauge);
  e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Gauge* MetricRegistry::AddProbe(const std::string& name,
                                std::function<double()> probe) {
  Entry* e = Register(name, MetricKind::kGauge);
  e->gauge = std::make_unique<Gauge>();
  e->gauge->probe_ = std::move(probe);
  return e->gauge.get();
}

Ewma* MetricRegistry::AddEwma(const std::string& name, double alpha) {
  Entry* e = Register(name, MetricKind::kEwma);
  e->ewma = std::make_unique<Ewma>(alpha);
  return e->ewma.get();
}

const Counter* MetricRegistry::FindCounter(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricRegistry::FindGauge(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.gauge.get();
}

const Ewma* MetricRegistry::FindEwma(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.ewma.get();
}

bool MetricRegistry::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

double MetricRegistry::ValueOf(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0.0;
  const Entry& e = it->second;
  switch (e.kind) {
    case MetricKind::kCounter:
      return static_cast<double>(e.counter->value());
    case MetricKind::kGauge:
      return e.gauge->value();
    case MetricKind::kEwma:
      return e.ewma->value();
  }
  return 0.0;
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, e] : metrics_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(e.counter->value());
        snap.count = 1;
        break;
      case MetricKind::kGauge:
        snap.value = e.gauge->value();
        snap.count = 1;
        break;
      case MetricKind::kEwma:
        snap.value = e.ewma->value();
        snap.count = e.ewma->count();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      Entry fresh;
      fresh.kind = theirs.kind;
      switch (theirs.kind) {
        case MetricKind::kCounter:
          fresh.counter = std::make_unique<Counter>();
          fresh.counter->value_ = theirs.counter->value();
          break;
        case MetricKind::kGauge:
          // Probes are sampled now: an aggregate registry outlives the
          // objects the probes read.
          fresh.gauge = std::make_unique<Gauge>();
          fresh.gauge->value_ = theirs.gauge->value();
          break;
        case MetricKind::kEwma:
          fresh.ewma = std::make_unique<Ewma>(theirs.ewma->alpha());
          fresh.ewma->value_ = theirs.ewma->value();
          fresh.ewma->count_ = theirs.ewma->count();
          break;
      }
      metrics_.emplace(name, std::move(fresh));
      continue;
    }
    Entry& mine = it->second;
    if (mine.kind != theirs.kind) {
      DieBadRegistration(scope_, name, "merged with a different metric kind");
    }
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.counter->value_ += theirs.counter->value();
        break;
      case MetricKind::kGauge:
        mine.gauge->value_ = mine.gauge->value() + theirs.gauge->value();
        mine.gauge->probe_ = nullptr;  // the sum is a plain value now
        break;
      case MetricKind::kEwma: {
        int64_t total = mine.ewma->count_ + theirs.ewma->count();
        if (total > 0) {
          mine.ewma->value_ =
              (mine.ewma->value_ * static_cast<double>(mine.ewma->count_) +
               theirs.ewma->value() * static_cast<double>(theirs.ewma->count())) /
              static_cast<double>(total);
        }
        mine.ewma->count_ = total;
        break;
      }
    }
  }
}

std::string MetricRegistry::ToString() const {
  TableWriter table({"metric", "kind", "value", "count"});
  for (const MetricSnapshot& snap : Snapshot()) {
    table.AddRow({snap.name, MetricKindName(snap.kind),
                  StrFormat("%.3f", snap.value),
                  StrFormat("%lld", static_cast<long long>(snap.count))});
  }
  std::string head = scope_.empty() ? std::string("metrics")
                                    : "metrics [" + scope_ + "]";
  return head + "\n" + table.ToAscii();
}

}  // namespace clouddb::metrics
